//! Traces: the interface between functional workload execution and the
//! timing simulator.
//!
//! A workload runs once *functionally* (in `nvmm-core`), producing one
//! [`Trace`] per core. The timing layer then replays the traces through
//! the cache hierarchy and memory controller under a particular design.
//! Write events carry the full post-write line image so that writebacks,
//! encryption, and post-crash recovery all operate on real bytes.
//!
//! # Storage layout
//!
//! [`TraceEvent`] is the value type every producer builds and every
//! consumer matches: workloads, arrival shaping, generator streams and
//! the replay loop all speak it, and a `Write` carries its line image
//! inline. That makes every event 80 bytes, although most carry one
//! 8-byte operand. A recorded [`Trace`] therefore stores each event as a
//! 16-byte op (its variant and one operand; a write's op holds the line,
//! the annotation and the index of its image) and keeps the writes'
//! 64-byte post-store line images in a second vector, in program order.
//! Reads decode: [`Trace::iter`] walks the events and [`Trace::get`]
//! fetches one in O(1). A trace of `n` events and `w` writes takes
//! `16n + 64w` bytes instead of `80n`. A generator-fed
//! [`TraceStream`] never stores events, so it decodes nothing.

use crate::addr::LineAddr;
use crate::time::Time;
use nvmm_crypto::LineData;
use std::sync::Arc;

/// One event in a core's execution trace, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A demand load of one cache line.
    Read {
        /// Line accessed.
        line: LineAddr,
    },
    /// A store to one cache line. `data` is the complete 64-byte line
    /// image *after* the store.
    Write {
        /// Line written.
        line: LineAddr,
        /// Post-store contents of the whole line.
        data: LineData,
        /// `true` if the program annotated the destination
        /// `CounterAtomic` (paper §4.3).
        counter_atomic: bool,
    },
    /// `clwb`: write the line back to the memory controller without
    /// invalidating it. Asynchronous; completion is awaited by the next
    /// `PersistBarrier`.
    Clwb {
        /// Line to write back.
        line: LineAddr,
    },
    /// `counter_cache_writeback()`: flush the (dirty) counter line
    /// covering `line` to the counter write queue (paper §4.3).
    CounterCacheWriteback {
        /// Data line whose counter line should be flushed.
        line: LineAddr,
    },
    /// `persist_barrier` / `sfence`: the core stalls until every
    /// previously issued persist (clwb, counter-cache writeback, and any
    /// counter-atomic pairing they imply) is guaranteed durable by ADR.
    PersistBarrier,
    /// Non-memory work: advances the core clock.
    Compute {
        /// Duration of the computation.
        duration: Time,
    },
    /// Marks the successful commit of one workload transaction; used for
    /// throughput accounting and crash bookkeeping. In open-loop
    /// (arrival-shaped) traces the id doubles as the transaction's
    /// arrival instant as a raw [`Time`] tick count, so the replay
    /// engine can report arrival-to-commit latency (see
    /// [`WaitUntil`](TraceEvent::WaitUntil)).
    TxCommit {
        /// Workload-assigned transaction id.
        id: u64,
    },
    /// Open-loop arrival gate: the core idles until the absolute
    /// simulated instant `at` (no-op if already past it). Arrival-curve
    /// shaping inserts one before each transaction; a core that has
    /// executed a `WaitUntil` reports arrival-to-commit latency at each
    /// subsequent `TxCommit`.
    WaitUntil {
        /// Absolute arrival instant.
        at: Time,
    },
}

/// One event as a [`Trace`] stores it: the [`TraceEvent`] with a
/// write's line image replaced by its index into the trace's payloads,
/// so every event fits in 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read(LineAddr),
    Write {
        line: LineAddr,
        payload: u32,
        counter_atomic: bool,
    },
    Clwb(LineAddr),
    CounterCacheWriteback(LineAddr),
    PersistBarrier,
    Compute(Time),
    TxCommit(u64),
    WaitUntil(Time),
}

const _: () = assert!(std::mem::size_of::<Op>() <= 16);

/// A trace's storage: one [`Op`] per event, and the post-store line
/// image of its `k`-th write at `payloads[k]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Events {
    ops: Vec<Op>,
    payloads: Vec<LineData>,
}

impl Events {
    fn push(&mut self, ev: TraceEvent) {
        let op = match ev {
            TraceEvent::Read { line } => Op::Read(line),
            TraceEvent::Write {
                line,
                data,
                counter_atomic,
            } => {
                let payload =
                    u32::try_from(self.payloads.len()).expect("a trace holds at most 2^32 writes");
                self.payloads.push(data);
                Op::Write {
                    line,
                    payload,
                    counter_atomic,
                }
            }
            TraceEvent::Clwb { line } => Op::Clwb(line),
            TraceEvent::CounterCacheWriteback { line } => Op::CounterCacheWriteback(line),
            TraceEvent::PersistBarrier => Op::PersistBarrier,
            TraceEvent::Compute { duration } => Op::Compute(duration),
            TraceEvent::TxCommit { id } => Op::TxCommit(id),
            TraceEvent::WaitUntil { at } => Op::WaitUntil(at),
        };
        self.ops.push(op);
    }

    fn decode(&self, op: Op) -> TraceEvent {
        match op {
            Op::Read(line) => TraceEvent::Read { line },
            Op::Write {
                line,
                payload,
                counter_atomic,
            } => TraceEvent::Write {
                line,
                data: self.payloads[payload as usize],
                counter_atomic,
            },
            Op::Clwb(line) => TraceEvent::Clwb { line },
            Op::CounterCacheWriteback(line) => TraceEvent::CounterCacheWriteback { line },
            Op::PersistBarrier => TraceEvent::PersistBarrier,
            Op::Compute(duration) => TraceEvent::Compute { duration },
            Op::TxCommit(id) => TraceEvent::TxCommit { id },
            Op::WaitUntil(at) => TraceEvent::WaitUntil { at },
        }
    }
}

/// A complete program-order trace for one core.
///
/// A recorded trace is a shared immutable value: its storage lives
/// behind an [`Arc`], so `clone()` is O(1) and every replay of one
/// recording reads the same storage. Appending goes through
/// [`Arc::make_mut`], which copies only when the storage is shared, so
/// building a trace never copies and a clone that is extended leaves the
/// original as it was. Events are stored compactly (see the module
/// docs) and decoded on read by [`Trace::iter`] and [`Trace::get`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Arc<Events>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if the trace already holds 2^32 `Write` events.
    pub fn push(&mut self, ev: TraceEvent) {
        Arc::make_mut(&mut self.events).push(ev);
    }

    /// The recorded events in program order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = TraceEvent> + ExactSizeIterator + '_ {
        self.events.ops.iter().map(|&op| self.events.decode(op))
    }

    /// The event at index `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<TraceEvent> {
        self.events.ops.get(i).map(|&op| self.events.decode(op))
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.ops.is_empty()
    }

    /// Number of `Write` events.
    pub fn write_count(&self) -> u64 {
        self.events.payloads.len() as u64
    }

    /// Number of committed transactions recorded.
    pub fn tx_count(&self) -> u64 {
        self.events
            .ops
            .iter()
            .filter(|op| matches!(op, Op::TxCommit(_)))
            .count() as u64
    }
}

/// Prints the decoded events, as a `Vec<TraceEvent>` field would.
impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let events: Vec<TraceEvent> = self.iter().collect();
        f.debug_struct("Trace").field("events", &events).finish()
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<T: IntoIterator<Item = TraceEvent>>(&mut self, iter: T) {
        let events = Arc::make_mut(&mut self.events);
        for ev in iter {
            events.push(ev);
        }
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEvent>>(iter: T) -> Self {
        let mut trace = Self::new();
        trace.extend(iter);
        trace
    }
}

/// A pull-based event source for one core: either a fully materialized
/// [`Trace`] or a generator invoked on demand, so service-scale traces
/// (10^7+ operations) replay in O(1) memory.
///
/// The stream keeps a one-event lookahead so [`TraceStream::peek`] and
/// [`TraceStream::is_done`] work through `&self`-style scheduling: the
/// replay engine must know whether a core has work before choosing
/// which core to advance.
pub struct TraceStream {
    /// Next event, pre-pulled; `None` once the source is exhausted.
    next: Option<TraceEvent>,
    source: StreamSource,
}

enum StreamSource {
    /// A recorded trace, read up to event `end` (exclusive).
    Materialized {
        trace: Trace,
        cursor: usize,
        end: usize,
    },
    Generator(Box<dyn FnMut() -> Option<TraceEvent> + Send>),
}

impl std::fmt::Debug for TraceStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.source {
            StreamSource::Materialized { trace, cursor, .. } => {
                format!("materialized {}/{}", cursor, trace.len())
            }
            StreamSource::Generator(_) => "generator".to_string(),
        };
        f.debug_struct("TraceStream")
            .field("source", &kind)
            .field("next", &self.next)
            .finish()
    }
}

impl TraceStream {
    /// Streams a materialized trace (the closed-loop path).
    pub fn from_trace(trace: Trace) -> Self {
        let end = trace.len();
        Self::from_trace_prefix(trace, end)
    }

    /// Streams the first `end` events of `trace` (all of them when `end`
    /// exceeds its length); [`TraceStream::raise_end`] streams more.
    pub(crate) fn from_trace_prefix(trace: Trace, end: usize) -> Self {
        let end = end.min(trace.len());
        let mut s = Self {
            next: None,
            source: StreamSource::Materialized {
                trace,
                cursor: 0,
                end,
            },
        };
        s.advance();
        s
    }

    /// Lets a stream from [`TraceStream::from_trace_prefix`] run on to
    /// its trace's first `end` events, resuming where it stopped; an
    /// `end` below the current one changes nothing. A generator stream
    /// is left as it is.
    pub(crate) fn raise_end(&mut self, end: usize) {
        if let StreamSource::Materialized {
            trace, end: old, ..
        } = &mut self.source
        {
            *old = end.clamp(*old, trace.len());
            if self.next.is_none() {
                self.advance();
            }
        }
    }

    /// Streams events pulled from `gen` until it returns `None`. The
    /// generator is invoked lazily — one event of lookahead — so the
    /// full event sequence never materializes.
    pub fn from_generator(gen: impl FnMut() -> Option<TraceEvent> + Send + 'static) -> Self {
        let mut s = Self {
            next: None,
            source: StreamSource::Generator(Box::new(gen)),
        };
        s.advance();
        s
    }

    fn advance(&mut self) {
        self.next = match &mut self.source {
            StreamSource::Materialized { trace, cursor, end } => {
                if *cursor < *end {
                    *cursor += 1;
                    trace.get(*cursor - 1)
                } else {
                    None
                }
            }
            StreamSource::Generator(gen) => gen(),
        };
    }

    /// The next event, without consuming it.
    pub fn peek(&self) -> Option<&TraceEvent> {
        self.next.as_ref()
    }

    /// Consumes and returns the next event.
    pub fn pull(&mut self) -> Option<TraceEvent> {
        let ev = self.next.take();
        if ev.is_some() {
            self.advance();
        }
        ev
    }

    /// Whether the stream is exhausted.
    pub fn is_done(&self) -> bool {
        self.next.is_none()
    }
}

impl From<Trace> for TraceStream {
    fn from(trace: Trace) -> Self {
        Self::from_trace(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::array::uniform8;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn write(line: u64) -> TraceEvent {
        TraceEvent::Write {
            line: LineAddr(line),
            data: [0; 64],
            counter_atomic: false,
        }
    }

    #[test]
    fn push_and_counts() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(TraceEvent::Read { line: LineAddr(1) });
        t.push(write(2));
        t.push(TraceEvent::TxCommit { id: 0 });
        assert_eq!(t.len(), 3);
        assert_eq!(t.write_count(), 1);
        assert_eq!(t.tx_count(), 1);
    }

    #[test]
    fn clones_share_storage_until_pushed() {
        let mut original: Trace = (0..4).map(write).collect();
        let mut copy = original.clone();
        assert!(
            Arc::ptr_eq(&original.events, &copy.events),
            "a clone must share the recorded events"
        );
        copy.push(TraceEvent::PersistBarrier);
        assert!(!Arc::ptr_eq(&original.events, &copy.events));
        assert_eq!(original.len(), 4, "pushing to a clone leaves the original");
        assert_eq!(copy.len(), 5);
        assert!(copy.iter().take(4).eq(original.iter()));
        original.extend([write(9)]);
        assert_eq!(original.len(), 5);
        assert_eq!(original.write_count(), 5);
        assert_eq!(copy.write_count(), 4);
        assert_eq!(copy.get(4), Some(TraceEvent::PersistBarrier));
        assert_eq!(original.get(4), Some(write(9)));
    }

    #[test]
    fn collect_from_iterator() {
        let t: Trace = (0..5).map(write).collect();
        assert_eq!(t.write_count(), 5);
    }

    #[test]
    fn stream_replays_materialized_trace_in_order() {
        let t: Trace = (0..6).map(write).collect();
        let mut s = TraceStream::from_trace(t.clone());
        let mut seen = Vec::new();
        while let Some(ev) = s.pull() {
            seen.push(ev);
        }
        assert!(seen.into_iter().eq(t.iter()));
        assert!(s.is_done());
        assert_eq!(s.pull(), None);
    }

    #[test]
    fn stream_pulls_generator_lazily() {
        let mut produced = 0u64;
        let mut s = TraceStream::from_generator(move || {
            if produced < 5 {
                produced += 1;
                Some(write(produced))
            } else {
                None
            }
        });
        assert!(!s.is_done());
        assert_eq!(s.peek(), Some(&write(1)));
        let mut n = 0;
        while s.pull().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert!(s.is_done());
    }

    #[test]
    fn empty_generator_is_done_immediately() {
        let s = TraceStream::from_generator(|| None);
        assert!(s.is_done());
    }

    #[test]
    fn prefix_stream_resumes_when_its_end_is_raised() {
        let t: Trace = (0..6).map(write).collect();
        let mut s = TraceStream::from_trace_prefix(t.clone(), 2);
        let mut seen = Vec::new();
        for end in [2, 1, 5, 9] {
            s.raise_end(end);
            while let Some(ev) = s.pull() {
                seen.push(ev);
            }
            assert_eq!(
                seen.len(),
                end.clamp(2, 6),
                "after raising the end to {end}"
            );
        }
        assert!(seen.into_iter().eq(t.iter()));
    }

    /// Any event: every variant, operands across the whole `u64` range,
    /// any line image and either annotation.
    fn any_event() -> impl Strategy<Value = TraceEvent> {
        let operand = prop_oneof![Just(0), Just(u64::MAX), any::<u64>()];
        (0u8..8, operand, uniform8(any::<u64>()), any::<bool>()).prop_map(
            |(tag, x, words, counter_atomic)| {
                let mut data = [0; 64];
                for (chunk, w) in data.chunks_exact_mut(8).zip(words) {
                    chunk.copy_from_slice(&w.to_le_bytes());
                }
                match tag {
                    0 => TraceEvent::Read { line: LineAddr(x) },
                    1 => TraceEvent::Write {
                        line: LineAddr(x),
                        data,
                        counter_atomic,
                    },
                    2 => TraceEvent::Clwb { line: LineAddr(x) },
                    3 => TraceEvent::CounterCacheWriteback { line: LineAddr(x) },
                    4 => TraceEvent::PersistBarrier,
                    5 => TraceEvent::Compute { duration: Time(x) },
                    6 => TraceEvent::TxCommit { id: x },
                    _ => TraceEvent::WaitUntil { at: Time(x) },
                }
            },
        )
    }

    proptest! {
        /// A trace reads back exactly the events pushed into it, through
        /// every reader, and compares and prints as its events.
        fn trace_reads_back_every_event(events in vec(any_event(), 0..48)) {
            let t: Trace = events.iter().cloned().collect();
            prop_assert_eq!(t.len(), events.len());
            prop_assert_eq!(t.is_empty(), events.is_empty());
            prop_assert!(t.iter().eq(events.iter().cloned()));
            prop_assert!(t.iter().rev().eq(events.iter().rev().cloned()));
            for (i, ev) in events.iter().enumerate() {
                prop_assert_eq!(t.get(i), Some(ev.clone()));
            }
            prop_assert_eq!(t.get(events.len()), None);
            let mut s = TraceStream::from_trace(t.clone());
            let mut pulled = Vec::new();
            while let Some(ev) = s.pull() {
                pulled.push(ev);
            }
            prop_assert_eq!(&pulled, &events);
            let writes = events.iter().filter(|e| matches!(e, TraceEvent::Write { .. }));
            prop_assert_eq!(t.write_count(), writes.count() as u64);
            let commits = events.iter().filter(|e| matches!(e, TraceEvent::TxCommit { .. }));
            prop_assert_eq!(t.tx_count(), commits.count() as u64);
            let mut pushed = Trace::new();
            for ev in &events {
                pushed.push(ev.clone());
            }
            prop_assert!(pushed == t);
            let mut longer = t.clone();
            longer.push(TraceEvent::PersistBarrier);
            prop_assert!(longer != t);
            prop_assert_eq!(format!("{t:?}"), format!("Trace {{ events: {events:?} }}"));
        }
    }
}
