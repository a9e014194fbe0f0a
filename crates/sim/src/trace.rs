//! Traces: the interface between functional workload execution and the
//! timing simulator.
//!
//! A workload runs once *functionally* (in `nvmm-core`), producing one
//! [`Trace`] per core. The timing layer then replays the traces through
//! the cache hierarchy and memory controller under a particular design.
//! Write events carry the full post-write line image so that writebacks,
//! encryption, and post-crash recovery all operate on real bytes.

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

/// A complete program-order trace for one core.
///
/// A recorded trace is a shared immutable value: the events live behind
/// an [`Arc`], so `clone()` is O(1) and every replay of one recording
/// reads the same storage. Appending goes through [`Arc::make_mut`],
/// which copies only when the storage is shared, so building a trace
/// never copies and a clone that is extended leaves the original as it
/// was.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Arc<Vec<TraceEvent>>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, ev: TraceEvent) {
        Arc::make_mut(&mut self.events).push(ev);
    }

    /// The recorded events in program order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of `Write` events.
    pub fn write_count(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Write { .. }))
            .count() as u64
    }

    /// Number of committed transactions recorded.
    pub fn tx_count(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::TxCommit { .. }))
            .count() as u64
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<T: IntoIterator<Item = TraceEvent>>(&mut self, iter: T) {
        Arc::make_mut(&mut self.events).extend(iter);
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEvent>>(iter: T) -> Self {
        Self {
            events: Arc::new(iter.into_iter().collect()),
        }
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
    Materialized { trace: Trace, cursor: usize },
    Generator(Box<dyn FnMut() -> Option<TraceEvent> + Send>),
}

impl std::fmt::Debug for TraceStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.source {
            StreamSource::Materialized { trace, cursor } => {
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
        let mut s = Self {
            next: None,
            source: StreamSource::Materialized { trace, cursor: 0 },
        };
        s.advance();
        s
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
            StreamSource::Materialized { trace, cursor } => {
                let ev = trace.events().get(*cursor).cloned();
                *cursor += 1;
                ev
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
            std::ptr::eq(original.events(), copy.events()),
            "a clone must share the recorded events"
        );
        copy.push(TraceEvent::PersistBarrier);
        assert_eq!(original.len(), 4, "pushing to a clone leaves the original");
        assert_eq!(copy.len(), 5);
        assert_eq!(copy.events()[..4], *original.events());
        original.extend([write(9)]);
        assert_eq!(original.len(), 5);
        assert_eq!(copy.events()[4], TraceEvent::PersistBarrier);
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
        assert_eq!(seen, t.events());
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
}
