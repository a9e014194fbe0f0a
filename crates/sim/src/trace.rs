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
//! inline, so every event is 80 bytes. A recorded [`Trace`] stores it in
//! three parts and decodes on read ([`Trace::iter`] walks the events,
//! [`Trace::get`] fetches one in O(1)):
//!
//! * **One 8-byte op per event**: a 4-bit tag and a 60-bit operand. A
//!   line, a duration, an instant or a commit id is the operand itself.
//!   A `Write` packs its line (30 bits), its `CounterAtomic` annotation
//!   (1 bit) and the index of its line image (29 bits).
//! * **A side table of 16-byte ops** for the events whose operands do not
//!   fit: the op's tag says "wide" and its operand indexes the table, so
//!   any `u64` operand still round-trips. Workload traces never need it:
//!   core `c`'s region starts at line `c * 2^26`, so the lines of up to
//!   16 cores fit in 30 bits, and a trace holds far fewer than 2^29
//!   distinct images.
//! * **Each distinct post-store line image once.** A store usually
//!   rewrites a line to a value the trace already holds (a log entry's
//!   valid flag, a counter, a node a transaction rewrites), so
//!   [`Trace::push`] looks the image up by a 64-bit hash of its bytes and
//!   reuses the earlier index only when all 64 bytes match. On a hash
//!   collision it stores a second copy, which keeps the lookup to one
//!   entry per hash and never conflates two images.
//!
//! A trace of `n` events whose writes leave `d` distinct images takes
//! `8n + 64d` bytes, plus the hash index of its images. A generator-fed
//! [`TraceStream`] never stores events, so it decodes nothing.

use crate::addr::LineAddr;
use crate::time::Time;
use fxhash::{FxHashMap, FxHasher};
use nvmm_crypto::LineData;
use std::collections::hash_map::Entry;
use std::hash::Hasher;
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

/// One event with a write's line image replaced by its index into the
/// trace's images: the form of the side table, and the unpacked form of
/// a [`PackedOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read(LineAddr),
    Write {
        line: LineAddr,
        image: u32,
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

/// An [`Op`] in one word: its tag in the top four bits and a 60-bit
/// operand below, or the `WIDE` tag and the op's index in the side
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedOp(u64);

const _: () = assert!(std::mem::size_of::<PackedOp>() == 8);

const OPERAND_BITS: u32 = 60;
const OPERAND_MAX: u64 = (1 << OPERAND_BITS) - 1;
/// A `Write` operand: the line above the annotation bit above the image.
const WRITE_IMAGE_BITS: u32 = 29;
const WRITE_LINE_BITS: u32 = OPERAND_BITS - 1 - WRITE_IMAGE_BITS;

const READ: u64 = 0;
const WRITE: u64 = 1;
const CLWB: u64 = 2;
const COUNTER_CACHE_WRITEBACK: u64 = 3;
const PERSIST_BARRIER: u64 = 4;
const COMPUTE: u64 = 5;
const TX_COMMIT: u64 = 6;
const WAIT_UNTIL: u64 = 7;
const WIDE: u64 = 8;

impl PackedOp {
    fn new(tag: u64, operand: u64) -> Option<Self> {
        (operand <= OPERAND_MAX).then_some(Self(tag << OPERAND_BITS | operand))
    }

    /// `op` in one word, or `None` if its operands do not fit.
    fn pack(op: Op) -> Option<Self> {
        match op {
            Op::Read(line) => Self::new(READ, line.0),
            Op::Write {
                line,
                image,
                counter_atomic,
            } => (line.0 >> WRITE_LINE_BITS == 0 && image >> WRITE_IMAGE_BITS == 0).then(|| {
                let operand = line.0 << (WRITE_IMAGE_BITS + 1)
                    | u64::from(counter_atomic) << WRITE_IMAGE_BITS
                    | u64::from(image);
                Self(WRITE << OPERAND_BITS | operand)
            }),
            Op::Clwb(line) => Self::new(CLWB, line.0),
            Op::CounterCacheWriteback(line) => Self::new(COUNTER_CACHE_WRITEBACK, line.0),
            Op::PersistBarrier => Self::new(PERSIST_BARRIER, 0),
            Op::Compute(duration) => Self::new(COMPUTE, duration.0),
            Op::TxCommit(id) => Self::new(TX_COMMIT, id),
            Op::WaitUntil(at) => Self::new(WAIT_UNTIL, at.0),
        }
    }

    fn tag(self) -> u64 {
        self.0 >> OPERAND_BITS
    }

    fn operand(self) -> u64 {
        self.0 & OPERAND_MAX
    }

    /// The op this word holds, reading a wide op from `wide`.
    fn unpack(self, wide: &[Op]) -> Op {
        let x = self.operand();
        match self.tag() {
            READ => Op::Read(LineAddr(x)),
            WRITE => Op::Write {
                line: LineAddr(x >> (WRITE_IMAGE_BITS + 1)),
                image: (x & ((1 << WRITE_IMAGE_BITS) - 1)) as u32,
                counter_atomic: x >> WRITE_IMAGE_BITS & 1 == 1,
            },
            CLWB => Op::Clwb(LineAddr(x)),
            COUNTER_CACHE_WRITEBACK => Op::CounterCacheWriteback(LineAddr(x)),
            PERSIST_BARRIER => Op::PersistBarrier,
            COMPUTE => Op::Compute(Time(x)),
            TX_COMMIT => Op::TxCommit(x),
            WAIT_UNTIL => Op::WaitUntil(Time(x)),
            _ => wide[x as usize],
        }
    }
}

/// A trace's storage: one [`PackedOp`] per event, the side table of ops
/// too wide to pack, and each distinct line image once (see the module
/// docs). Every field is a function of the events pushed, in order, so
/// two traces are equal exactly when their events are.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Events {
    ops: Vec<PackedOp>,
    wide: Vec<Op>,
    images: Vec<LineData>,
    /// The index of the first image stored under each image hash.
    by_hash: FxHashMap<u64, u32>,
    writes: u64,
}

/// The 64-bit hash [`Events::intern`] looks images up by: the Fx fold of
/// its eight words, with the high half folded into the low half, which
/// the hash map's bucket index reads.
fn image_hash(data: &LineData) -> u64 {
    let mut h = FxHasher::default();
    h.write(data);
    let h = h.finish();
    h ^ h >> 32
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
                self.writes += 1;
                Op::Write {
                    line,
                    image: self.intern(image_hash(&data), data),
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
        let packed = PackedOp::pack(op).unwrap_or_else(|| {
            self.wide.push(op);
            PackedOp(WIDE << OPERAND_BITS | (self.wide.len() - 1) as u64)
        });
        self.ops.push(packed);
    }

    /// The index of `data`, whose hash is `hash`: the image stored first
    /// under that hash if its bytes equal `data`, else a new copy.
    fn intern(&mut self, hash: u64, data: LineData) -> u32 {
        let next = u32::try_from(self.images.len())
            .expect("a trace holds at most 2^32 distinct line images");
        match self.by_hash.entry(hash) {
            Entry::Occupied(first) if self.images[*first.get() as usize] == data => {
                return *first.get()
            }
            Entry::Occupied(_) => {}
            Entry::Vacant(slot) => {
                slot.insert(next);
            }
        }
        self.images.push(data);
        next
    }

    fn decode(&self, op: PackedOp) -> TraceEvent {
        match op.unpack(&self.wide) {
            Op::Read(line) => TraceEvent::Read { line },
            Op::Write {
                line,
                image,
                counter_atomic,
            } => TraceEvent::Write {
                line,
                data: self.images[image as usize],
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
    /// Panics if the trace already holds 2^32 distinct line images.
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
        self.events.writes
    }

    /// Number of committed transactions recorded.
    pub fn tx_count(&self) -> u64 {
        let wide = &self.events.wide;
        self.events
            .ops
            .iter()
            .filter(|op| match op.tag() {
                TX_COMMIT => true,
                WIDE => matches!(op.unpack(wide), Op::TxCommit(_)),
                _ => false,
            })
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
    fn repeated_images_are_stored_once() {
        let image = |fill| TraceEvent::Write {
            line: LineAddr(3),
            data: [fill; 64],
            counter_atomic: fill == 2,
        };
        let events = [image(1), image(2), image(1), image(1), image(2), image(3)];
        let t: Trace = events.iter().cloned().collect();
        assert_eq!(t.events.images.len(), 3, "one copy per distinct image");
        assert_eq!(t.write_count(), 6, "every write counts");
        assert!(t.iter().eq(events));
    }

    #[test]
    fn a_hash_collision_stores_a_second_copy() {
        let mut events = Events::default();
        let (a, b) = ([1; 64], [2; 64]);
        assert_eq!(events.intern(7, a), 0);
        assert_eq!(events.intern(7, b), 1, "same hash, other bytes");
        assert_eq!(events.intern(7, a), 0, "the first image keeps the hash");
        assert_eq!(events.intern(7, b), 2, "a colliding image is never reused");
        assert_eq!(events.intern(8, b), 3);
        assert_eq!(events.intern(8, b), 3);
        assert_eq!(events.images, [a, b, b, b]);
    }

    #[test]
    fn ops_pack_inline_up_to_their_limits() {
        let write = |line, image| Op::Write {
            line: LineAddr(line),
            image,
            counter_atomic: true,
        };
        let line_max = (1 << WRITE_LINE_BITS) - 1;
        let image_max = (1 << WRITE_IMAGE_BITS) - 1;
        for op in [
            write(line_max, image_max),
            write(0, 0),
            Op::Read(LineAddr(OPERAND_MAX)),
            Op::TxCommit(OPERAND_MAX),
            Op::PersistBarrier,
        ] {
            let packed = PackedOp::pack(op).expect("fits inline");
            assert_eq!(packed.unpack(&[]), op);
        }
        for op in [
            write(line_max + 1, 0),
            write(0, image_max + 1),
            Op::Clwb(LineAddr(OPERAND_MAX + 1)),
            Op::WaitUntil(Time(u64::MAX)),
        ] {
            assert_eq!(PackedOp::pack(op), None, "{op:?} needs the side table");
        }
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

    /// Any event: every variant, operands across the whole `u64` range
    /// and at and around each inline limit, line images that are random
    /// or repeat a few fixed ones, and either annotation.
    fn any_event() -> impl Strategy<Value = TraceEvent> {
        let operand = prop_oneof![
            Just(0),
            Just((1 << 30) - 1),
            Just(1 << 30),
            Just((1 << 60) - 1),
            Just(1 << 60),
            Just(u64::MAX),
            any::<u64>(),
            0u64..64,
        ];
        let words = prop_oneof![
            uniform8(any::<u64>()),
            Just([0; 8]),
            Just([u64::MAX; 8]),
            (0u64..4).prop_map(|w| [w, 0, 0, 0, 0, 0, 0, w << 56]),
        ];
        (0u8..8, operand, words, any::<bool>()).prop_map(|(tag, x, words, counter_atomic)| {
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
        })
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
            let writes: Vec<LineData> = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Write { data, .. } => Some(*data),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(t.write_count(), writes.len() as u64);
            let mut distinct = writes.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(t.events.images.len(), distinct.len());
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
