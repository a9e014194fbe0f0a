//! The multi-core replay engine.
//!
//! Each core replays its program-order [`Trace`] (or a streamed
//! [`TraceStream`], for service-scale runs that never materialize their
//! events) through a private L1 and L2 slice; LLC misses and
//! write-backs reach the shared [`ShardedController`] complex, which
//! routes each line to its owning channel shard (one controller at the
//! default `shards = 1`). The scheduler always advances the core with
//! the smallest local clock, so controller resources are reserved in
//! nondecreasing event-start order and the simulation is deterministic.
//!
//! # Intra-run parallel shard execution
//!
//! With `NVMM_SHARD_THREADS > 1` (or [`System::with_shard_threads`])
//! the shard controllers are detached onto worker threads for the
//! duration of the replay. The front end — scheduler, caches, trace
//! decode — still runs exactly the sequential event order, but its
//! controller calls become messages over bounded per-worker channels
//! (the private `ControllerPort` seam):
//!
//! * demand reads block for their reply (replay decisions depend on
//!   them),
//! * write-backs are fire-and-forget; the ADR guarantee instants of
//!   `clwb`/counter-writeback flushes flow back asynchronously and are
//!   folded into a per-core running maximum that is fully resolved
//!   before any [`TraceEvent::PersistBarrier`] consumes it,
//! * telemetry epoch boundaries and journal compaction are
//!   epoch-barrier sync points: every worker finishes its queued
//!   requests and reports its statistics snapshot / queue depths /
//!   journal prefix, which merge into exactly the sequential values.
//!
//! Because each shard still sees its own request subsequence in the
//! same order with the same timestamps, and every merged quantity
//! (statistics, journals, wear, telemetry) is a sum or an
//! order-insensitive maximum, the results are **bit-identical** to the
//! sequential path at any thread count — the same determinism contract
//! `NVMM_THREADS`/`NVMM_MC_THREADS`/`NVMM_SHARDS` carry. See
//! `docs/ARCHITECTURE.md` for the full argument.
//!
//! Crash injection ([`CrashSpec`]) stops replay at an event count or a
//! wall-clock instant; the post-crash NVMM image is then exactly what ADR
//! would leave behind (ready write-queue entries included, everything
//! else lost).
//!
//! # Crash sweeps
//!
//! [`System::run_crash_sweep`] serves many [`CrashSpec::AtTime`]
//! instants from one replay. It pauses the event loop at each instant
//! in ascending order and records each shard's journal length there;
//! [`CrashSweep::crash_set`] later cuts that instant's crash set from
//! the merged journal prefixes. This is exact, not an approximation:
//!
//! * the `AtTime` check in the replay loop has no side effects, so
//!   pausing and resuming replays the same event sequence as an
//!   uninterrupted run;
//! * the scheduler steps the core with the smallest clock, and that
//!   minimum never decreases between scheduling points, so the first
//!   point at or after a later instant is never before the point where
//!   an earlier instant paused;
//! * each shard's journal is append-only while a crash is possible
//!   (compaction is refused), so the prefix recorded at a pause is
//!   exactly the journal a separate crash run would end with.
//!
//! The sweep always replays on the direct (sequential) port; results
//! are bit-identical at any shard worker count anyway.

use crate::addr::LineAddr;
use crate::cache::SetAssocCache;
use crate::config::SimConfig;
use crate::controller::{JournalRecord, MemoryController};
use crate::crashmc::{CrashCursor, CrashSet};
use crate::device::WearReport;
use crate::nvmm::NvmmImage;
use crate::shard::ShardedController;
use crate::stats::{LatencyHist, Stats};
use crate::telemetry::{EpochSampler, Timeline};
use crate::time::Time;
use crate::trace::{Trace, TraceEvent, TraceStream};
use nvmm_crypto::LineData;
use std::sync::mpsc;

/// When (if ever) to inject a power failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSpec {
    /// Run every trace to completion.
    None,
    /// Crash immediately after the `n`-th event (0-based) in global
    /// replay order has been processed.
    AfterEvent(u64),
    /// Crash at the first scheduling point at or after this instant.
    AtTime(Time),
}

/// Result of a replay.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Aggregated statistics (runtime, traffic, stalls, ...).
    pub stats: Stats,
    /// The persistent NVMM image at end of run / crash.
    pub image: NvmmImage,
    /// The instant the crash took effect, if one was injected.
    pub crash_time: Option<Time>,
    /// The full adversarial crash state at `crash_time`: guaranteed
    /// writes plus the in-flight choice groups whose landing ADR leaves
    /// undefined. `image` is its all-miss baseline; the
    /// [`crate::crashmc`] model checker enumerates the rest. `None`
    /// when the run completed without a crash.
    pub crash_set: Option<CrashSet>,
    /// The `(submitted_at, guaranteed_at)` in-flight window of every
    /// write whose ADR guarantee arrived strictly after its submission,
    /// in submission order. A [`CrashSpec::AtTime`] instant inside one
    /// of these windows observes that write in flight; instants outside
    /// all of them see a fully determined image. Event-aligned crash
    /// points ([`CrashSpec::AfterEvent`]) usually skip the windows
    /// entirely, so adversarial crash-image exploration starts here.
    pub persist_windows: Vec<(Time, Time)>,
    /// Number of trace events processed before stopping.
    pub events_processed: u64,
    /// Per-epoch telemetry, present iff
    /// [`SimConfig::telemetry_epoch`] was set.
    pub timeline: Option<Timeline>,
    /// Arrival-to-commit latency histogram (nanoseconds), present iff
    /// at least one core executed a [`TraceEvent::WaitUntil`] arrival
    /// gate and then committed a transaction (open-loop replay).
    pub latency: Option<LatencyHist>,
    /// Per-line wear/endurance report over all shards, at the
    /// configured [`SimConfig::cell_endurance`].
    pub wear: WearReport,
}

/// The crash states of many [`CrashSpec::AtTime`] instants, taken from
/// one paused replay ([`System::run_crash_sweep`]; see the module docs
/// for why this equals one crash run per instant).
#[derive(Debug)]
pub struct CrashSweep {
    /// The requested instants, in the caller's order.
    instants: Vec<Time>,
    /// Per requested instant: each shard's journal length when replay
    /// paused there, or `None` when every trace completed first.
    cuts: Vec<Option<Vec<usize>>>,
    /// Every shard's journal, in shard order, as far as replay ran.
    journals: Vec<Vec<JournalRecord>>,
    /// The completion image, present iff some instant lies after the
    /// run completed.
    completed: Option<NvmmImage>,
}

impl CrashSweep {
    /// Number of requested instants.
    pub fn len(&self) -> usize {
        self.instants.len()
    }

    /// Whether no instant was requested.
    pub fn is_empty(&self) -> bool {
        self.instants.is_empty()
    }

    /// The crash state a separate crash run at the `i`-th requested
    /// instant reports as [`RunOutcome::crash_set`]: built from the
    /// journal prefixes recorded at that instant, or `None` when the
    /// run completed before it (see [`CrashSweep::completed_image`]).
    /// A fresh [`SweepCursor`] advanced once; to visit many instants,
    /// advance one cursor through them in ascending order instead.
    pub fn crash_set(&self, i: usize) -> Option<CrashSet> {
        self.cursor().crash_set(i)
    }

    /// A cursor before the first instant, carrying one guaranteed base
    /// image across the instants it visits.
    pub fn cursor(&self) -> SweepCursor<'_> {
        SweepCursor {
            sweep: self,
            cursor: CrashCursor::new(self.journals.iter().map(Vec::as_slice).collect()),
        }
    }

    /// The completed run's image — what a separate crash run at an
    /// instant after completion reports as [`RunOutcome::image`].
    /// `None` when every instant paused the replay before completion.
    pub fn completed_image(&self) -> Option<&NvmmImage> {
        self.completed.as_ref()
    }
}

/// Builds a [`CrashSweep`]'s crash sets in ascending instant order,
/// carrying one guaranteed base image from each instant to the next: a
/// step costs the journal records new since the previous instant, its
/// in-flight set, and one clone of the base image — not a replay of the
/// whole journal prefix.
pub struct SweepCursor<'a> {
    sweep: &'a CrashSweep,
    cursor: CrashCursor<'a>,
}

impl SweepCursor<'_> {
    /// [`CrashSweep::crash_set`] for the `i`-th requested instant,
    /// advancing the cursor there. Instants after completion return
    /// `None` and leave the cursor where it was.
    ///
    /// # Panics
    ///
    /// Panics if the `i`-th instant precedes an instant this cursor
    /// already advanced to.
    pub fn crash_set(&mut self, i: usize) -> Option<CrashSet> {
        let cut = self.sweep.cuts[i].as_ref()?;
        Some(self.cursor.advance(self.sweep.instants[i], cut))
    }
}

/// A [`CrashSweep`] is shared by reference across the model checker's
/// workers, each advancing its own cursor over its instants.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<CrashSweep>()
};

/// A cached data line: payload plus the counter-atomic annotation of the
/// store that most recently dirtied it.
#[derive(Debug, Clone, Copy)]
struct CachedLine {
    data: LineData,
    counter_atomic: bool,
}

struct Core {
    source: TraceStream,
    now: Time,
    l1: SetAssocCache<LineAddr, CachedLine>,
    l2: SetAssocCache<LineAddr, CachedLine>,
    /// Set once the core executes a `WaitUntil` arrival gate; from then
    /// on every `TxCommit` reports arrival-to-commit latency.
    open_loop: bool,
}

impl Core {
    fn new(cfg: &SimConfig, source: TraceStream) -> Self {
        Self {
            source,
            now: Time::ZERO,
            l1: SetAssocCache::new(cfg.l1.sets(), cfg.l1.ways),
            l2: SetAssocCache::new(cfg.l2.sets(), cfg.l2.ways),
            open_loop: false,
        }
    }

    fn done(&self) -> bool {
        self.source.is_done()
    }
}

/// How the replay front end reaches the shard controllers. The direct
/// implementation is today's synchronous call path; the channel
/// implementation routes the same calls to per-shard worker threads.
/// The front end is written once against this trait, so the two paths
/// cannot drift: every replay decision flows through the same code.
///
/// The port also owns the per-core "latest ADR guarantee" maxima that
/// [`TraceEvent::PersistBarrier`] consumes — in the parallel path the
/// underlying guarantee instants arrive asynchronously, and the port
/// resolves them before the barrier reads the maximum.
trait ControllerPort {
    /// Demand read: blocks until the owning shard answers.
    fn read(&mut self, line: LineAddr, t: Time, stats: &mut Stats) -> (Time, LineData);

    /// Write-back of a dirty line. With `guarantee_for = Some(core)`
    /// the ADR guarantee instant is (eventually) folded into that
    /// core's persist maximum; with `None` nobody will consume it
    /// (cache-eviction traffic) and no reply is needed.
    fn writeback(
        &mut self,
        line: LineAddr,
        data: LineData,
        counter_atomic: bool,
        t: Time,
        stats: &mut Stats,
        guarantee_for: Option<usize>,
    );

    /// Explicit counter-cache write-back on behalf of `core`.
    fn counter_writeback(&mut self, line: LineAddr, t: Time, stats: &mut Stats, core: usize);

    /// The latest guarantee instant of every persist `core` issued,
    /// with all in-flight guarantee replies resolved — what
    /// `PersistBarrier` waits for.
    fn persists_resolved(&mut self, core: usize) -> Time;

    /// Opportunistically drains any pending asynchronous replies;
    /// called once per replay step to bound reply-queue growth.
    fn poll(&mut self) {}

    /// Advances the telemetry sampler to `now`, closing any elapsed
    /// epochs from state equivalent to the sequential interleaving.
    fn observe(&mut self, sampler: &mut EpochSampler, now: Time, stats: &Stats);

    /// Folds journal records submitted strictly before `watermark`
    /// into the compaction base (batched-journal completion runs).
    fn compact(&mut self, watermark: Time);
}

/// The synchronous single-threaded port: plain method calls on the
/// [`ShardedController`] — byte-for-byte the pre-refactor execution
/// path.
struct DirectPort<'a> {
    controller: &'a mut ShardedController,
    /// Per-core running maximum of issued persist guarantees.
    guar: Vec<Time>,
}

impl<'a> DirectPort<'a> {
    fn new(controller: &'a mut ShardedController, cores: usize) -> Self {
        Self {
            controller,
            guar: vec![Time::ZERO; cores],
        }
    }
}

impl ControllerPort for DirectPort<'_> {
    fn read(&mut self, line: LineAddr, t: Time, stats: &mut Stats) -> (Time, LineData) {
        self.controller.read(line, t, stats)
    }

    fn writeback(
        &mut self,
        line: LineAddr,
        data: LineData,
        counter_atomic: bool,
        t: Time,
        stats: &mut Stats,
        guarantee_for: Option<usize>,
    ) {
        let guaranteed = self
            .controller
            .writeback(line, data, counter_atomic, t, stats);
        if let Some(core) = guarantee_for {
            self.guar[core] = self.guar[core].max(guaranteed);
        }
    }

    fn counter_writeback(&mut self, line: LineAddr, t: Time, stats: &mut Stats, core: usize) {
        let guaranteed = self.controller.counter_writeback(line, t, stats);
        self.guar[core] = self.guar[core].max(guaranteed);
    }

    fn persists_resolved(&mut self, core: usize) -> Time {
        self.guar[core]
    }

    fn observe(&mut self, sampler: &mut EpochSampler, now: Time, stats: &Stats) {
        sampler.observe(now, stats, self.controller);
    }

    fn compact(&mut self, watermark: Time) {
        self.controller.compact_through(watermark);
    }
}

/// Bounded in-flight window per shard worker: the front end blocks on a
/// full request channel, so a worker can fall at most this many
/// requests behind before backpressure pauses the replay.
const INFLIGHT_WINDOW: usize = 1024;

/// A controller call routed to a shard worker thread.
enum ShardRequest {
    Read {
        shard: usize,
        line: LineAddr,
        t: Time,
    },
    Writeback {
        shard: usize,
        line: LineAddr,
        data: LineData,
        counter_atomic: bool,
        t: Time,
        guarantee_for: Option<usize>,
    },
    CounterWriteback {
        shard: usize,
        line: LineAddr,
        t: Time,
        core: usize,
    },
    /// Epoch-barrier sync: report the cumulative statistics snapshot
    /// and the summed write-queue depths at each boundary instant.
    Sync { ends: Vec<Time> },
    /// Ship back each owned shard's compactable journal prefix at the
    /// watermark (parallel batched-journal compaction).
    Compact { watermark: Time },
}

/// A shard worker's answer. Requests are processed in order over SPSC
/// channels, so replies from one worker arrive in request order.
enum ShardReply {
    ReadDone {
        t: Time,
        data: LineData,
    },
    Guarantee {
        core: usize,
        t: Time,
    },
    Synced {
        stats: Box<Stats>,
        depths: Vec<(usize, usize)>,
    },
    /// One journal prefix per owned shard, in the worker's shard order.
    Compacted {
        prefixes: Vec<Vec<JournalRecord>>,
    },
}

/// The worker loop: owns every shard controller with
/// `shard % threads == worker`, processes requests in order against its
/// own statistics accumulator, and hands both back when the request
/// channel closes.
fn shard_worker(
    mut shards: Vec<MemoryController>,
    rx: mpsc::Receiver<ShardRequest>,
    tx: mpsc::Sender<ShardReply>,
    threads: usize,
    cores: usize,
) -> (Vec<MemoryController>, Stats) {
    let mut stats = Stats::new(cores);
    while let Ok(req) = rx.recv() {
        match req {
            ShardRequest::Read { shard, line, t } => {
                let (done, data) = shards[shard / threads].read(line, t, &mut stats);
                let _ = tx.send(ShardReply::ReadDone { t: done, data });
            }
            ShardRequest::Writeback {
                shard,
                line,
                data,
                counter_atomic,
                t,
                guarantee_for,
            } => {
                let g =
                    shards[shard / threads].writeback(line, data, counter_atomic, t, &mut stats);
                if let Some(core) = guarantee_for {
                    let _ = tx.send(ShardReply::Guarantee { core, t: g });
                }
            }
            ShardRequest::CounterWriteback {
                shard,
                line,
                t,
                core,
            } => {
                let g = shards[shard / threads].counter_writeback(line, t, &mut stats);
                let _ = tx.send(ShardReply::Guarantee { core, t: g });
            }
            ShardRequest::Sync { ends } => {
                let depths = ends
                    .iter()
                    .map(|&end| {
                        shards.iter().fold((0, 0), |(d, c), ctl| {
                            let (dd, cc) = ctl.write_queue_depths(end);
                            (d + dd, c + cc)
                        })
                    })
                    .collect();
                let _ = tx.send(ShardReply::Synced {
                    stats: Box::new(stats.clone()),
                    depths,
                });
            }
            ShardRequest::Compact { watermark } => {
                let prefixes = shards
                    .iter_mut()
                    .map(|ctl| ctl.take_journal_prefix(watermark))
                    .collect();
                let _ = tx.send(ShardReply::Compacted { prefixes });
            }
        }
    }
    (shards, stats)
}

/// The message-passing port: routes each controller call to the worker
/// owning the target shard (`shard % threads`), tracks how many
/// guarantee replies each worker still owes each core, and performs the
/// epoch-barrier syncs that keep telemetry and compaction bit-identical
/// to the sequential path.
struct ChannelPort<'a> {
    /// The detached [`ShardedController`] husk: map + compaction base.
    controller: &'a mut ShardedController,
    txs: Vec<mpsc::SyncSender<ShardRequest>>,
    rxs: Vec<mpsc::Receiver<ShardReply>>,
    /// `owed[worker][core]`: guarantee replies sent for but not yet
    /// drained.
    owed: Vec<Vec<u64>>,
    /// Per-core running maximum of resolved persist guarantees.
    guar: Vec<Time>,
    threads: usize,
}

impl ChannelPort<'_> {
    fn worker_of(&self, line: LineAddr) -> (usize, usize) {
        let shard = self.controller.map().shard_of(line);
        (shard, shard % self.threads)
    }

    /// Applies a guarantee reply; passes anything else back to the
    /// caller that awaited it.
    fn apply(&mut self, worker: usize, reply: ShardReply) -> Option<ShardReply> {
        match reply {
            ShardReply::Guarantee { core, t } => {
                self.guar[core] = self.guar[core].max(t);
                self.owed[worker][core] -= 1;
                None
            }
            other => Some(other),
        }
    }

    /// Blocking receive of the next payload (non-guarantee) reply from
    /// `worker`, applying any guarantee replies queued ahead of it.
    fn recv_payload(&mut self, worker: usize) -> ShardReply {
        loop {
            let reply = self.rxs[worker].recv().expect("shard worker hung up");
            if let Some(payload) = self.apply(worker, reply) {
                return payload;
            }
        }
    }

    /// Epoch-barrier sync: every worker drains its request queue, then
    /// reports its statistics snapshot and queue depths at each
    /// boundary. Returns the merged cumulative statistics (front end +
    /// all workers — exactly the sequential value at this point of the
    /// event order) and the summed depths per boundary.
    fn sync(&mut self, front_stats: &Stats, ends: &[Time]) -> (Stats, Vec<(usize, usize)>) {
        for tx in &self.txs {
            tx.send(ShardRequest::Sync {
                ends: ends.to_vec(),
            })
            .expect("shard worker hung up");
        }
        let mut merged = front_stats.clone();
        let mut depths = vec![(0usize, 0usize); ends.len()];
        for worker in 0..self.threads {
            match self.recv_payload(worker) {
                ShardReply::Synced { stats, depths: d } => {
                    merged.absorb(&stats);
                    for (acc, dd) in depths.iter_mut().zip(d) {
                        acc.0 += dd.0;
                        acc.1 += dd.1;
                    }
                }
                _ => unreachable!("expected a sync reply"),
            }
        }
        (merged, depths)
    }
}

impl ControllerPort for ChannelPort<'_> {
    fn read(&mut self, line: LineAddr, t: Time, _stats: &mut Stats) -> (Time, LineData) {
        let (shard, worker) = self.worker_of(line);
        self.txs[worker]
            .send(ShardRequest::Read { shard, line, t })
            .expect("shard worker hung up");
        match self.recv_payload(worker) {
            ShardReply::ReadDone { t, data } => (t, data),
            _ => unreachable!("expected a read reply"),
        }
    }

    fn writeback(
        &mut self,
        line: LineAddr,
        data: LineData,
        counter_atomic: bool,
        t: Time,
        _stats: &mut Stats,
        guarantee_for: Option<usize>,
    ) {
        let (shard, worker) = self.worker_of(line);
        if let Some(core) = guarantee_for {
            self.owed[worker][core] += 1;
        }
        self.txs[worker]
            .send(ShardRequest::Writeback {
                shard,
                line,
                data,
                counter_atomic,
                t,
                guarantee_for,
            })
            .expect("shard worker hung up");
    }

    fn counter_writeback(&mut self, line: LineAddr, t: Time, _stats: &mut Stats, core: usize) {
        let (shard, worker) = self.worker_of(line);
        self.owed[worker][core] += 1;
        self.txs[worker]
            .send(ShardRequest::CounterWriteback {
                shard,
                line,
                t,
                core,
            })
            .expect("shard worker hung up");
    }

    fn persists_resolved(&mut self, core: usize) -> Time {
        for worker in 0..self.threads {
            while self.owed[worker][core] > 0 {
                let reply = self.rxs[worker].recv().expect("shard worker hung up");
                if self.apply(worker, reply).is_some() {
                    unreachable!("unsolicited payload reply while resolving persists");
                }
            }
        }
        self.guar[core]
    }

    fn poll(&mut self) {
        for worker in 0..self.threads {
            while let Ok(reply) = self.rxs[worker].try_recv() {
                if self.apply(worker, reply).is_some() {
                    unreachable!("unsolicited payload reply");
                }
            }
        }
    }

    fn observe(&mut self, sampler: &mut EpochSampler, now: Time, stats: &Stats) {
        // Fast path: between boundaries the sequential sampler observes
        // nothing, so no sync is needed.
        if now < sampler.next_boundary() {
            return;
        }
        let ends = sampler.boundaries_through(now);
        let (merged, depths) = self.sync(stats, &ends);
        sampler.observe_with(now, &merged, &|t| {
            let i = ends
                .iter()
                .position(|&e| e == t)
                .expect("depths were synced for every closed boundary");
            depths[i]
        });
    }

    fn compact(&mut self, watermark: Time) {
        for tx in &self.txs {
            tx.send(ShardRequest::Compact { watermark })
                .expect("shard worker hung up");
        }
        // Worker `w` owns shards `w, w + threads, ...` in that order.
        let mut shipped: Vec<Vec<JournalRecord>> = vec![Vec::new(); self.controller.map().shards()];
        for worker in 0..self.threads {
            match self.recv_payload(worker) {
                ShardReply::Compacted { prefixes } => {
                    for (i, prefix) in prefixes.into_iter().enumerate() {
                        shipped[worker + i * self.threads] = prefix;
                    }
                }
                _ => unreachable!("expected a compaction reply"),
            }
        }
        self.controller.fold_prefixes(shipped);
    }
}

/// The replay front end: cores, caches, statistics, telemetry — every
/// piece of the simulation that is *not* the controller complex. Its
/// event loop is written once against [`ControllerPort`], so the
/// sequential and parallel paths replay literally the same logic.
struct FrontEnd {
    cores: Vec<Core>,
    stats: Stats,
    events_processed: u64,
    sampler: Option<EpochSampler>,
    latency: LatencyHist,
    /// Fold completed journal records into the base image every this
    /// many events (completion-only runs; see
    /// [`System::with_journal_batch`]).
    journal_batch: Option<u64>,
}

impl FrontEnd {
    /// Replays all traces through `port`, returning the crash instant
    /// if one was injected.
    fn replay(
        &mut self,
        cfg: &SimConfig,
        port: &mut impl ControllerPort,
        crash: CrashSpec,
    ) -> Option<Time> {
        let mut crash_time = None;
        // Each iteration picks the core with the smallest clock that
        // still has work.
        while let Some(ci) = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.done())
            .min_by_key(|(i, c)| (c.now, *i))
            .map(|(i, _)| i)
        {
            if let CrashSpec::AtTime(t) = crash {
                if self.cores[ci].now >= t {
                    crash_time = Some(t);
                    break;
                }
            }
            port.poll();
            self.step_core(cfg, port, ci);
            self.events_processed += 1;
            if let Some(sampler) = self.sampler.as_mut() {
                port.observe(sampler, self.cores[ci].now, &self.stats);
            }
            if let CrashSpec::AfterEvent(n) = crash {
                if self.events_processed > n {
                    crash_time = Some(self.cores[ci].now);
                    break;
                }
            }
            if let Some(batch) = self.journal_batch {
                if self.events_processed.is_multiple_of(batch) {
                    if let Some(watermark) =
                        self.cores.iter().filter(|c| !c.done()).map(|c| c.now).min()
                    {
                        port.compact(watermark);
                    }
                }
            }
        }
        crash_time
    }

    /// Fetches `line` into the core's hierarchy, returning (completion
    /// time, payload). Handles L1/L2 fills and dirty evictions.
    fn fetch_line(
        &mut self,
        cfg: &SimConfig,
        port: &mut impl ControllerPort,
        ci: usize,
        line: LineAddr,
    ) -> (Time, CachedLine) {
        let l1_latency = cfg.l1.latency;
        let l2_latency = cfg.l2.latency;

        let core = &mut self.cores[ci];
        let t = core.now + l1_latency;
        if let Some(&cached) = core.l1.get(&line) {
            self.stats.l1_hits += 1;
            return (t, cached);
        }
        self.stats.l1_misses += 1;
        let t = t + l2_latency;

        let (t_fill, payload) = if let Some(&cached) = core.l2.get(&line) {
            self.stats.l2_hits += 1;
            (t, cached)
        } else {
            self.stats.l2_misses += 1;
            let (done, data) = port.read(line, t, &mut self.stats);
            let cached = CachedLine {
                data,
                counter_atomic: false,
            };
            // Fill L2.
            let core = &mut self.cores[ci];
            if let Some(ev) = core.l2.insert(line, cached, false) {
                if ev.dirty {
                    port.writeback(
                        ev.key,
                        ev.value.data,
                        ev.value.counter_atomic,
                        done,
                        &mut self.stats,
                        None,
                    );
                }
            }
            (done, cached)
        };

        // Fill L1; victims spill to L2, L2 victims spill to memory.
        let core = &mut self.cores[ci];
        if let Some(ev1) = core.l1.insert(line, payload, false) {
            if ev1.dirty {
                if let Some(ev2) = core.l2.insert(ev1.key, ev1.value, true) {
                    if ev2.dirty {
                        port.writeback(
                            ev2.key,
                            ev2.value.data,
                            ev2.value.counter_atomic,
                            t_fill,
                            &mut self.stats,
                            None,
                        );
                    }
                }
            }
        }
        (t_fill, payload)
    }

    fn step_core(&mut self, cfg: &SimConfig, port: &mut impl ControllerPort, ci: usize) {
        let ev = self.cores[ci]
            .source
            .pull()
            .expect("scheduler only steps cores with work");
        match ev {
            TraceEvent::Compute { duration } => {
                self.cores[ci].now += duration;
            }
            TraceEvent::Read { line } => {
                let (done, _) = self.fetch_line(cfg, port, ci, line);
                self.cores[ci].now = done;
            }
            TraceEvent::Write {
                line,
                data,
                counter_atomic,
            } => {
                // Write-allocate: ensure residency, then update in L1.
                let in_l1 = self.cores[ci].l1.peek(&line).is_some();
                let done = if in_l1 {
                    self.cores[ci].now + cfg.l1.latency
                } else {
                    self.fetch_line(cfg, port, ci, line).0
                };
                let core = &mut self.cores[ci];
                let cached = CachedLine {
                    data,
                    counter_atomic,
                };
                if let Some(existing) = core.l1.get_mut(&line, true) {
                    existing.data = data;
                    existing.counter_atomic |= counter_atomic;
                } else if let Some(ev1) = core.l1.insert(line, cached, true) {
                    if ev1.dirty {
                        if let Some(ev2) = core.l2.insert(ev1.key, ev1.value, true) {
                            if ev2.dirty {
                                port.writeback(
                                    ev2.key,
                                    ev2.value.data,
                                    ev2.value.counter_atomic,
                                    done,
                                    &mut self.stats,
                                    None,
                                );
                            }
                        }
                    }
                }
                self.cores[ci].now = done;
            }
            TraceEvent::Clwb { line } => {
                let issue = self.cores[ci].now + cfg.l1.latency;
                let core = &mut self.cores[ci];
                // Take the newest copy: L1 first, then L2.
                let newest = core
                    .l1
                    .peek(&line)
                    .copied()
                    .map(|c| (c, core.l1.is_dirty(&line)))
                    .or_else(|| {
                        core.l2
                            .peek(&line)
                            .copied()
                            .map(|c| (c, core.l2.is_dirty(&line)))
                    });
                if let Some((cached, dirty)) = newest {
                    if dirty {
                        core.l1.clean(&line);
                        core.l2.clean(&line);
                        port.writeback(
                            line,
                            cached.data,
                            cached.counter_atomic,
                            issue + cfg.controller_overhead,
                            &mut self.stats,
                            Some(ci),
                        );
                    }
                }
                self.cores[ci].now = issue;
            }
            TraceEvent::CounterCacheWriteback { line } => {
                let issue = self.cores[ci].now + cfg.l1.latency;
                port.counter_writeback(line, issue + cfg.controller_overhead, &mut self.stats, ci);
                self.cores[ci].now = issue;
            }
            TraceEvent::PersistBarrier => {
                let guaranteed = port.persists_resolved(ci);
                let core = &mut self.cores[ci];
                if guaranteed > core.now {
                    self.stats.barrier_stall += guaranteed - core.now;
                    core.now = guaranteed;
                }
            }
            TraceEvent::TxCommit { id } => {
                self.stats.transactions_committed += 1;
                if self.cores[ci].open_loop {
                    // Open-loop trace: the id is the arrival instant's
                    // raw tick count; report arrival-to-commit latency
                    // in nanoseconds.
                    let arrival = Time(id);
                    let waited = self.cores[ci].now.0.saturating_sub(arrival.0);
                    self.latency.record(Time(waited).as_ns_f64().round() as u64);
                }
            }
            TraceEvent::WaitUntil { at } => {
                let core = &mut self.cores[ci];
                core.now = core.now.max(at);
                core.open_loop = true;
            }
        }
    }
}

/// The simulated system: cores, caches, sharded controller complex,
/// devices.
pub struct System {
    cfg: SimConfig,
    front: FrontEnd,
    controller: ShardedController,
    /// Host worker threads for intra-run shard execution (1 = the
    /// sequential path). Results are bit-identical at any value.
    shard_threads: usize,
}

impl System {
    /// Builds a system replaying one trace per core.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != config.cores`.
    pub fn new(config: SimConfig, traces: Vec<Trace>) -> Self {
        let sources = traces.into_iter().map(TraceStream::from_trace).collect();
        Self::with_sources(config, sources)
    }

    /// Builds a system pulling events from one [`TraceStream`] per core
    /// — the service-scale ingest path: generator-backed streams replay
    /// 10^7+ operations without ever materializing them.
    ///
    /// The intra-run shard worker count defaults to the
    /// `NVMM_SHARD_THREADS` environment knob
    /// ([`crate::parallel::shard_threads`], default 1 = sequential);
    /// [`System::with_shard_threads`] pins it programmatically.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len() != config.cores`.
    pub fn with_sources(config: SimConfig, sources: Vec<TraceStream>) -> Self {
        assert_eq!(
            sources.len(),
            config.cores,
            "need exactly one trace source per core ({} cores, {} sources)",
            config.cores,
            sources.len()
        );
        let cores = sources.into_iter().map(|t| Core::new(&config, t)).collect();
        let controller = ShardedController::new(&config);
        let stats = Stats::new(config.cores);
        let sampler = config.telemetry_epoch.map(EpochSampler::new);
        Self {
            front: FrontEnd {
                cores,
                stats,
                events_processed: 0,
                sampler,
                latency: LatencyHist::new(),
                journal_batch: None,
            },
            controller,
            shard_threads: crate::parallel::shard_threads(),
            cfg: config,
        }
    }

    /// Enables batched-journal compaction: every `events` processed
    /// events, journal records submitted strictly before the slowest
    /// live core's clock are folded into a base image and dropped,
    /// bounding journal memory on streamed service-scale runs.
    ///
    /// Only valid for completion runs — [`System::run`] panics if a
    /// crash is also requested, because compaction erases the in-flight
    /// windows crash analysis needs.
    pub fn with_journal_batch(mut self, events: u64) -> Self {
        assert!(events > 0, "journal batch must be positive");
        self.front.journal_batch = Some(events);
        self
    }

    /// Pins the intra-run shard worker count, overriding the
    /// `NVMM_SHARD_THREADS` environment default. The effective count is
    /// clamped to the shard count; 1 selects the sequential path.
    /// Results are bit-identical at any value — `fig_scale` sweeps this
    /// knob and asserts exactly that.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_shard_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "shard worker count must be at least 1");
        self.shard_threads = threads;
        self
    }

    /// Replays all traces, optionally crashing per `crash`.
    ///
    /// # Panics
    ///
    /// Panics if journal batching ([`System::with_journal_batch`]) is
    /// combined with a crash spec other than [`CrashSpec::None`].
    pub fn run(self, crash: CrashSpec) -> RunOutcome {
        self.run_inner(crash).0
    }

    /// Like [`System::run`], but additionally reports the single-shard
    /// parity probe: `Some(true)` when the merged-journal image and
    /// persist windows are bit-identical to the inner controller's
    /// pre-sharding direct paths (`None` when the probe does not apply:
    /// several shards, or compaction). `fig_service` asserts this on
    /// its shards=1 cells.
    pub fn run_with_parity_check(self, crash: CrashSpec) -> (RunOutcome, Option<bool>) {
        let (outcome, controller) = self.run_inner(crash);
        let parity = controller.merged_matches_single();
        (outcome, parity)
    }

    /// Serves one [`CrashSpec::AtTime`] crash per entry of `instants`
    /// from a single replay: the loop pauses at each instant in
    /// ascending order (duplicates allowed) and records every shard's
    /// journal length, and stops after the last instant — or at
    /// completion, if an instant lies beyond it. Results are indexed in
    /// the caller's order, and each equals a separate crash run at that
    /// instant (see the module docs). Always replays on the direct
    /// port, whatever [`System::with_shard_threads`] says.
    ///
    /// # Panics
    ///
    /// Panics if journal batching ([`System::with_journal_batch`]) is
    /// enabled: compaction erases the journal prefixes a sweep cuts.
    pub fn run_crash_sweep(mut self, instants: &[Time]) -> CrashSweep {
        assert!(
            self.front.journal_batch.is_none(),
            "journal batching is completion-only: crash analysis needs the full journal"
        );
        let mut order: Vec<usize> = (0..instants.len()).collect();
        order.sort_by_key(|&i| instants[i]);
        let mut cuts = vec![None; instants.len()];
        let mut completed = false;
        let mut port = DirectPort::new(&mut self.controller, self.cfg.cores);
        for i in order {
            let crash = CrashSpec::AtTime(instants[i]);
            if self.front.replay(&self.cfg, &mut port, crash).is_none() {
                completed = true;
                break;
            }
            cuts[i] = Some(port.controller.journal_lens());
        }
        let completed = completed.then(|| self.controller.build_image(None));
        CrashSweep {
            instants: instants.to_vec(),
            cuts,
            journals: self.controller.take_journals(),
            completed,
        }
    }

    fn run_inner(mut self, crash: CrashSpec) -> (RunOutcome, ShardedController) {
        assert!(
            self.front.journal_batch.is_none() || crash == CrashSpec::None,
            "journal batching is completion-only: crash analysis needs the full journal"
        );
        let threads = self.shard_threads.min(self.controller.shards());
        let crash_time = if threads <= 1 {
            let mut port = DirectPort::new(&mut self.controller, self.cfg.cores);
            self.front.replay(&self.cfg, &mut port, crash)
        } else {
            self.run_parallel(threads, crash)
        };

        let front = &mut self.front;
        for (i, core) in front.cores.iter().enumerate() {
            front.stats.core_runtimes[i] = core.now;
        }
        front.stats.runtime = front
            .cores
            .iter()
            .map(|c| c.now)
            .max()
            .unwrap_or(Time::ZERO);
        let wear = self.controller.wear_report(self.cfg.cell_endurance);
        front.stats.distinct_lines_written = wear.distinct_lines;
        front.stats.max_line_writes = wear.max_line_writes;
        // A crash image is its crash set's all-miss baseline, which the
        // set already holds; only a completed run replays the journal.
        let crash_set = crash_time.map(|t| self.controller.crash_set(t));
        let image = match &crash_set {
            Some(set) => set.baseline(),
            None => self.controller.build_image(None),
        };
        let persist_windows = self.controller.persist_windows();
        let timeline = front
            .sampler
            .take()
            .map(|s| s.finish(front.stats.runtime, &front.stats, &self.controller));
        let latency = (front.latency.count() > 0).then_some(std::mem::take(&mut front.latency));
        let outcome = RunOutcome {
            stats: std::mem::take(&mut front.stats),
            image,
            crash_time,
            crash_set,
            persist_windows,
            events_processed: front.events_processed,
            timeline,
            latency,
            wear,
        };
        (outcome, self.controller)
    }

    /// The parallel replay path: detaches the shard controllers onto
    /// `threads` scoped workers, replays the identical front-end event
    /// loop through a [`ChannelPort`], then reattaches the controllers
    /// and merges the per-worker statistics — deterministically, in
    /// shard order.
    fn run_parallel(&mut self, threads: usize, crash: CrashSpec) -> Option<Time> {
        let cores = self.cfg.cores;
        let taken = self.controller.take_shards();
        let shard_count = taken.len();
        // Round-robin ownership: worker w owns shards s with
        // s % threads == w, at local index s / threads.
        let mut per_worker: Vec<Vec<MemoryController>> = (0..threads).map(|_| Vec::new()).collect();
        for (s, ctl) in taken.into_iter().enumerate() {
            per_worker[s % threads].push(ctl);
        }
        let (crash_time, results) = std::thread::scope(|scope| {
            let mut txs = Vec::with_capacity(threads);
            let mut rxs = Vec::with_capacity(threads);
            let mut handles = Vec::with_capacity(threads);
            for ctls in per_worker {
                let (req_tx, req_rx) = mpsc::sync_channel::<ShardRequest>(INFLIGHT_WINDOW);
                let (rep_tx, rep_rx) = mpsc::channel::<ShardReply>();
                handles
                    .push(scope.spawn(move || shard_worker(ctls, req_rx, rep_tx, threads, cores)));
                txs.push(req_tx);
                rxs.push(rep_rx);
            }
            let mut port = ChannelPort {
                controller: &mut self.controller,
                txs,
                rxs,
                owed: vec![vec![0; cores]; threads],
                guar: vec![Time::ZERO; cores],
                threads,
            };
            let crash_time = self.front.replay(&self.cfg, &mut port, crash);
            // Dropping the port closes the request channels; workers
            // finish their remaining queue and hand everything back.
            drop(port);
            let results: Vec<(Vec<MemoryController>, Stats)> = handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect();
            (crash_time, results)
        });
        let mut slots: Vec<Option<MemoryController>> = (0..shard_count).map(|_| None).collect();
        for (w, (ctls, worker_stats)) in results.into_iter().enumerate() {
            self.front.stats.absorb(&worker_stats);
            for (k, ctl) in ctls.into_iter().enumerate() {
                slots[w + k * threads] = Some(ctl);
            }
        }
        self.controller.restore_shards(
            slots
                .into_iter()
                .map(|c| c.expect("every shard is returned by exactly one worker"))
                .collect(),
        );
        crash_time
    }
}

/// Convenience: replay `traces` under `config` with no crash.
pub fn run_to_completion(config: SimConfig, traces: Vec<Trace>) -> RunOutcome {
    System::new(config, traces).run(CrashSpec::None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use crate::nvmm::LineRead;

    fn write_ev(line: u64, fill: u8, ca: bool) -> TraceEvent {
        TraceEvent::Write {
            line: LineAddr(line),
            data: [fill; 64],
            counter_atomic: ca,
        }
    }

    fn basic_trace() -> Trace {
        let mut t = Trace::new();
        t.push(write_ev(1, 0xaa, false));
        t.push(TraceEvent::Clwb { line: LineAddr(1) });
        t.push(TraceEvent::CounterCacheWriteback { line: LineAddr(1) });
        t.push(TraceEvent::PersistBarrier);
        t.push(TraceEvent::TxCommit { id: 0 });
        t
    }

    #[test]
    fn single_core_runs_to_completion() {
        let out = run_to_completion(SimConfig::single_core(Design::Sca), vec![basic_trace()]);
        assert!(out.crash_time.is_none());
        assert_eq!(out.events_processed, 5);
        assert_eq!(out.stats.transactions_committed, 1);
        assert!(out.stats.runtime > Time::ZERO);
    }

    #[test]
    fn persisted_line_recoverable_after_completion() {
        let cfg = SimConfig::single_core(Design::Sca);
        let key = cfg.key;
        let out = run_to_completion(cfg, vec![basic_trace()]);
        let engine = nvmm_crypto::EncryptionEngine::new(key);
        assert_eq!(
            out.image.read_line(LineAddr(1), &engine),
            LineRead::Clean([0xaa; 64])
        );
    }

    #[test]
    fn crash_before_anything_persists_leaves_fresh_nvmm() {
        let cfg = SimConfig::single_core(Design::Sca);
        let key = cfg.key;
        let out = System::new(cfg, vec![basic_trace()]).run(CrashSpec::AfterEvent(0));
        let engine = nvmm_crypto::EncryptionEngine::new(key);
        // Only the store to L1 happened: nothing reached NVMM.
        assert_eq!(
            out.image.read_line(LineAddr(1), &engine),
            LineRead::Unwritten
        );
    }

    #[test]
    fn sca_crash_between_clwb_and_ccwb_garbles_line() {
        // Data persisted (clwb accepted long before the crash), counter
        // still dirty on chip: the paper's Fig. 3(a) failure, end to end.
        let mut trace = Trace::new();
        trace.push(write_ev(1, 0xaa, false));
        trace.push(TraceEvent::Clwb { line: LineAddr(1) });
        trace.push(TraceEvent::Compute {
            duration: Time::from_ns(10_000),
        });
        trace.push(TraceEvent::CounterCacheWriteback { line: LineAddr(1) });
        trace.push(TraceEvent::PersistBarrier);
        let cfg = SimConfig::single_core(Design::Sca);
        let key = cfg.key;
        // Crash after the Compute event: clwb accepted, ccwb never ran.
        let out = System::new(cfg, vec![trace]).run(CrashSpec::AfterEvent(2));
        let engine = nvmm_crypto::EncryptionEngine::new(key);
        let r = out.image.read_line(LineAddr(1), &engine);
        assert!(
            !r.is_clean(),
            "counter never persisted; decryption must garble"
        );
    }

    #[test]
    fn fca_crash_anywhere_never_garbles() {
        let key;
        {
            let cfg = SimConfig::single_core(Design::Fca);
            key = cfg.key;
        }
        for k in 0..5 {
            let cfg = SimConfig::single_core(Design::Fca);
            let out = System::new(cfg, vec![basic_trace()]).run(CrashSpec::AfterEvent(k));
            let engine = nvmm_crypto::EncryptionEngine::new(key);
            let r = out.image.read_line(LineAddr(1), &engine);
            assert!(
                r.is_clean(),
                "FCA must never expose a half pair (crash after event {k})"
            );
        }
    }

    #[test]
    fn read_after_write_returns_written_data() {
        let mut t = Trace::new();
        t.push(write_ev(5, 0x5c, false));
        t.push(TraceEvent::Read { line: LineAddr(5) });
        let out = run_to_completion(SimConfig::single_core(Design::Sca), vec![t]);
        assert_eq!(out.stats.l1_hits, 1, "read after write should hit L1");
    }

    #[test]
    fn multi_core_uses_all_traces() {
        let cfg = SimConfig::table2(Design::Sca, 2);
        let out = run_to_completion(cfg, vec![basic_trace(), basic_trace()]);
        assert_eq!(out.stats.transactions_committed, 2);
        assert_eq!(out.stats.core_runtimes.len(), 2);
        assert!(out.stats.core_runtimes.iter().all(|&t| t > Time::ZERO));
    }

    #[test]
    #[should_panic]
    fn trace_count_mismatch_panics() {
        let cfg = SimConfig::table2(Design::Sca, 2);
        let _ = System::new(cfg, vec![basic_trace()]);
    }

    #[test]
    fn barrier_waits_for_persists() {
        let mut t = Trace::new();
        t.push(write_ev(1, 1, false));
        t.push(TraceEvent::Clwb { line: LineAddr(1) });
        t.push(TraceEvent::PersistBarrier);
        let out = run_to_completion(SimConfig::single_core(Design::Fca), vec![t]);
        // FCA pairs must be ready before the barrier releases; some stall
        // is expected relative to the bare L1-latency cost.
        assert!(
            out.stats.runtime >= Time::from_ns(40),
            "encrypt + pairing must cost time"
        );
    }

    #[test]
    fn compute_advances_clock() {
        let mut t = Trace::new();
        t.push(TraceEvent::Compute {
            duration: Time::from_ns(123),
        });
        let out = run_to_completion(SimConfig::single_core(Design::NoEncryption), vec![t]);
        assert_eq!(out.stats.runtime, Time::from_ns(123));
    }

    #[test]
    fn crash_at_time_stops_replay() {
        let mut t = Trace::new();
        for i in 0..100 {
            t.push(TraceEvent::Compute {
                duration: Time::from_ns(10),
            });
            t.push(write_ev(i, i as u8, false));
        }
        let cfg = SimConfig::single_core(Design::Sca);
        let out = System::new(cfg, vec![t]).run(CrashSpec::AtTime(Time::from_ns(100)));
        assert!(out.crash_time.is_some());
        assert!(out.events_processed < 200);
    }

    #[test]
    fn eviction_pressure_writes_back_to_nvmm() {
        // Touch far more lines than L1+L2 hold: evictions must reach NVMM.
        let mut t = Trace::new();
        let l2_lines = 2 * 1024 * 1024 / 64;
        for i in 0..(l2_lines as u64 * 2) {
            t.push(write_ev(i, 1, false));
        }
        let out = run_to_completion(SimConfig::single_core(Design::NoEncryption), vec![t]);
        assert!(
            out.stats.nvmm_data_writes > 0,
            "cache pressure must cause write-backs"
        );
    }

    /// A trace that exercises every parallel-relevant event kind:
    /// reads (blocking round trips), writes with eviction pressure
    /// (fire-and-forget write-backs), clwb/ccwb (asynchronous
    /// guarantees), barriers (resolution points), compute gaps and
    /// commits.
    fn busy_mixed_trace(seed: u64, lines: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..lines {
            let line = (seed + i * 37) % 512;
            t.push(write_ev(line, (i % 251) as u8, i % 2 == 0));
            t.push(TraceEvent::Clwb {
                line: LineAddr(line),
            });
            if i % 3 == 0 {
                t.push(TraceEvent::Read {
                    line: LineAddr((line + 63) % 512),
                });
            }
            if i % 4 == 0 {
                t.push(TraceEvent::CounterCacheWriteback {
                    line: LineAddr(line),
                });
            }
            if i % 5 == 4 {
                t.push(TraceEvent::PersistBarrier);
                t.push(TraceEvent::TxCommit { id: i });
            }
            if i % 7 == 0 {
                t.push(TraceEvent::Compute {
                    duration: Time::from_ns(35),
                });
            }
        }
        t.push(TraceEvent::PersistBarrier);
        t
    }

    fn outcome_fingerprint(out: &RunOutcome) -> (Stats, u128, Vec<(Time, Time)>, u64) {
        (
            out.stats.clone(),
            out.image.fingerprint(),
            out.persist_windows.clone(),
            out.events_processed,
        )
    }

    /// The tentpole contract: parallel shard execution is bit-identical
    /// to sequential execution — stats, image, persist windows,
    /// telemetry, wear — at every thread count, including more threads
    /// than shards.
    #[test]
    fn parallel_shard_execution_matches_sequential() {
        for design in [Design::Sca, Design::Fca] {
            let cfg = SimConfig::table2(design, 2)
                .with_shards(4)
                .with_telemetry_epoch(Time::from_ns(400));
            let traces = vec![busy_mixed_trace(3, 60), busy_mixed_trace(11, 60)];
            let base = System::new(cfg.clone(), traces.clone())
                .with_shard_threads(1)
                .run(CrashSpec::None);
            for threads in [2, 3, 4, 8] {
                let par = System::new(cfg.clone(), traces.clone())
                    .with_shard_threads(threads)
                    .run(CrashSpec::None);
                assert_eq!(
                    outcome_fingerprint(&par),
                    outcome_fingerprint(&base),
                    "{design:?} threads={threads} diverged from sequential"
                );
                assert_eq!(par.timeline, base.timeline, "{design:?} threads={threads}");
                assert_eq!(par.wear, base.wear, "{design:?} threads={threads}");
                assert_eq!(par.latency, base.latency, "{design:?} threads={threads}");
            }
        }
    }

    /// Crash injection under parallel execution: the same crash spec
    /// yields the same crash time, image and crash set as sequential.
    #[test]
    fn parallel_crash_runs_match_sequential() {
        let cfg = SimConfig::table2(Design::Sca, 2).with_shards(4);
        let traces = vec![busy_mixed_trace(5, 40), busy_mixed_trace(17, 40)];
        for crash in [
            CrashSpec::AfterEvent(33),
            CrashSpec::AtTime(Time::from_ns(900)),
        ] {
            let base = System::new(cfg.clone(), traces.clone())
                .with_shard_threads(1)
                .run(crash);
            let par = System::new(cfg.clone(), traces.clone())
                .with_shard_threads(4)
                .run(crash);
            assert_eq!(par.crash_time, base.crash_time);
            assert_eq!(par.image.fingerprint(), base.image.fingerprint());
            assert_eq!(par.stats, base.stats);
            assert_eq!(
                par.crash_set.is_some(),
                base.crash_set.is_some(),
                "crash analysis must survive the parallel path"
            );
        }
    }

    /// Batched-journal compaction under parallel execution: workers
    /// ship journal prefixes back to the front end, and the folded
    /// completion image equals both the parallel-unbatched and the
    /// sequential-batched runs.
    #[test]
    fn parallel_compaction_matches_sequential() {
        let cfg = SimConfig::table2(Design::Sca, 2).with_shards(3);
        let traces = vec![busy_mixed_trace(7, 50), busy_mixed_trace(23, 50)];
        let seq = System::new(cfg.clone(), traces.clone())
            .with_shard_threads(1)
            .with_journal_batch(16)
            .run(CrashSpec::None);
        let par = System::new(cfg.clone(), traces.clone())
            .with_shard_threads(3)
            .with_journal_batch(16)
            .run(CrashSpec::None);
        let unbatched = System::new(cfg, traces)
            .with_shard_threads(3)
            .run(CrashSpec::None);
        assert_eq!(par.image.fingerprint(), seq.image.fingerprint());
        assert_eq!(par.stats, seq.stats);
        assert_eq!(par.image.fingerprint(), unbatched.image.fingerprint());
    }

    /// One paused replay answers every instant exactly as a separate
    /// crash run does — unsorted and duplicated instants, one before the
    /// first event and one after completion included.
    #[test]
    fn crash_sweep_matches_per_instant_runs() {
        let cfg = SimConfig::table2(Design::Sca, 2).with_shards(4);
        let traces = vec![busy_mixed_trace(5, 40), busy_mixed_trace(17, 40)];
        let end = run_to_completion(cfg.clone(), traces.clone());
        let mut instants: Vec<Time> = [900, 0, 2_500, 900, 1_700, 400]
            .into_iter()
            .map(Time::from_ns)
            .collect();
        instants.insert(1, end.stats.runtime + Time::from_ns(1));
        let sweep = System::new(cfg.clone(), traces.clone()).run_crash_sweep(&instants);
        assert_eq!(sweep.len(), instants.len());
        let opts = crate::crashmc::EnumOpts::default();
        for (i, &t) in instants.iter().enumerate() {
            let run = System::new(cfg.clone(), traces.clone()).run(CrashSpec::AtTime(t));
            let swept = sweep.crash_set(i);
            assert_eq!(swept.is_some(), run.crash_set.is_some(), "at {t}");
            match (swept, run.crash_set) {
                (Some(a), Some(b)) => {
                    let (ea, eb) = (a.enumerate(opts), b.enumerate(opts));
                    assert_eq!(ea.stats, eb.stats, "at {t}");
                    let fp = |e: &crate::crashmc::Enumeration| -> Vec<u128> {
                        e.images.iter().map(|(_, img)| img.fingerprint()).collect()
                    };
                    assert_eq!(fp(&ea), fp(&eb), "at {t}");
                }
                _ => assert_eq!(
                    sweep.completed_image().map(NvmmImage::fingerprint),
                    Some(run.image.fingerprint()),
                    "at {t}"
                ),
            }
        }
        assert_eq!(
            sweep.completed_image().map(NvmmImage::fingerprint),
            Some(end.image.fingerprint())
        );
    }

    #[test]
    #[should_panic]
    fn zero_shard_threads_rejected() {
        let _ = System::new(SimConfig::single_core(Design::Sca), vec![basic_trace()])
            .with_shard_threads(0);
    }
}
