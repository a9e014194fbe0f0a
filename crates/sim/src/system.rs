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

use crate::addr::LineAddr;
use crate::cache::SetAssocCache;
use crate::config::{Fault, SimConfig};
use crate::controller::JournalRecord;
use crate::crashmc::{CrashCursor, CrashSet};
use crate::device::WearReport;
use crate::nvmm::NvmmImage;
use crate::shard::ShardedController;
use crate::stats::{LatencyHist, Stats};
use crate::telemetry::{EpochSampler, Timeline};
use crate::time::Time;
use crate::trace::{Trace, TraceEvent, TraceStream};
use nvmm_crypto::LineData;

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
    /// Per-line wear/endurance report over all shards.
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
/// step costs the journal records new since the previous instant, one
/// write per base cell they changed, its in-flight set, and one clone
/// of the base image — not a replay of the whole journal prefix.
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
    /// The latest ADR guarantee instant of every persist (`clwb` or
    /// counter-cache write-back) this core issued — what a
    /// [`TraceEvent::PersistBarrier`] waits for.
    persisted: Time,
}

impl Core {
    fn new(cfg: &SimConfig, source: TraceStream) -> Self {
        Self {
            source,
            now: Time::ZERO,
            l1: SetAssocCache::new(cfg.l1.sets(), cfg.l1.ways),
            l2: SetAssocCache::new(cfg.l2.sets(), cfg.l2.ways),
            open_loop: false,
            persisted: Time::ZERO,
        }
    }

    fn done(&self) -> bool {
        self.source.is_done()
    }
}

/// The replay front end: cores, caches, statistics, telemetry — every
/// piece of the simulation that is *not* the controller complex.
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
    /// Replays all traces against `controller`, returning the crash
    /// instant if one was injected.
    fn replay(
        &mut self,
        cfg: &SimConfig,
        controller: &mut ShardedController,
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
            self.step_core(cfg, controller, ci);
            self.events_processed += 1;
            if let Some(sampler) = self.sampler.as_mut() {
                sampler.observe(self.cores[ci].now, &self.stats, controller);
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
                        controller.compact_through(watermark);
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
        controller: &mut ShardedController,
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
            let (done, data) = controller.read(line, t, &mut self.stats);
            let cached = CachedLine {
                data,
                counter_atomic: false,
            };
            // Fill L2.
            let core = &mut self.cores[ci];
            if let Some(ev) = core.l2.insert(line, cached, false) {
                if ev.dirty {
                    controller.writeback(
                        ev.key,
                        ev.value.data,
                        ev.value.counter_atomic,
                        done,
                        &mut self.stats,
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
                        controller.writeback(
                            ev2.key,
                            ev2.value.data,
                            ev2.value.counter_atomic,
                            t_fill,
                            &mut self.stats,
                        );
                    }
                }
            }
        }
        (t_fill, payload)
    }

    fn step_core(&mut self, cfg: &SimConfig, controller: &mut ShardedController, ci: usize) {
        let ev = self.cores[ci]
            .source
            .pull()
            .expect("scheduler only steps cores with work");
        match ev {
            TraceEvent::Compute { duration } => {
                self.cores[ci].now += duration;
            }
            TraceEvent::Read { line } => {
                let (done, _) = self.fetch_line(cfg, controller, ci, line);
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
                    self.fetch_line(cfg, controller, ci, line).0
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
                                controller.writeback(
                                    ev2.key,
                                    ev2.value.data,
                                    ev2.value.counter_atomic,
                                    done,
                                    &mut self.stats,
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
                        let guaranteed = controller.writeback(
                            line,
                            cached.data,
                            cached.counter_atomic,
                            issue + cfg.controller_overhead,
                            &mut self.stats,
                        );
                        core.persisted = core.persisted.max(guaranteed);
                    }
                }
                self.cores[ci].now = issue;
            }
            // The forgotten write-back runs nothing, but it still counts
            // as an event, so `CrashSpec::AfterEvent(k)` indexes the
            // program as written.
            TraceEvent::CounterCacheWriteback { .. }
                if cfg.fault == Some(Fault::MissingCounterWritebacks) => {}
            TraceEvent::CounterCacheWriteback { line } => {
                let core = &mut self.cores[ci];
                let issue = core.now + cfg.l1.latency;
                let guaranteed = controller.counter_writeback(
                    line,
                    issue + cfg.controller_overhead,
                    &mut self.stats,
                );
                core.persisted = core.persisted.max(guaranteed);
                core.now = issue;
            }
            TraceEvent::PersistBarrier => {
                let core = &mut self.cores[ci];
                if core.persisted > core.now {
                    self.stats.barrier_stall += core.persisted - core.now;
                    core.now = core.persisted;
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
            cfg: config,
        }
    }

    /// Enables batched-journal compaction: every `events` processed
    /// events, journal records submitted strictly before the slowest
    /// live core's clock are folded into a base image and dropped,
    /// bounding journal memory on streamed service-scale runs. The fold
    /// runs on a compaction worker thread beside replay, started at the
    /// first batch boundary; the same boundary retires the write queues'
    /// coalescing entries that no later write can merge into.
    ///
    /// Only valid for completion runs — [`System::run`] panics if a
    /// crash is also requested, because compaction erases the in-flight
    /// windows crash analysis needs.
    pub fn with_journal_batch(mut self, events: u64) -> Self {
        assert!(events > 0, "journal batch must be positive");
        self.front.journal_batch = Some(events);
        self
    }

    /// Accepts a shard worker count of 1 and changes nothing: replay
    /// always runs the shard controllers on the calling thread. The
    /// method exists only so callers that pinned the sequential path
    /// still build.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is not 1.
    pub fn with_shard_threads(self, threads: usize) -> Self {
        assert_eq!(
            threads, 1,
            "replay runs on one thread; 1 is the only shard worker count"
        );
        self
    }

    /// Replays all traces, optionally crashing per `crash`.
    ///
    /// # Panics
    ///
    /// Panics if journal batching ([`System::with_journal_batch`]) is
    /// combined with a crash spec other than [`CrashSpec::None`].
    pub fn run(mut self, crash: CrashSpec) -> RunOutcome {
        assert!(
            self.front.journal_batch.is_none() || crash == CrashSpec::None,
            "journal batching is completion-only: crash analysis needs the full journal"
        );
        let crash_time = self.front.replay(&self.cfg, &mut self.controller, crash);

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
        // A crash image is its crash set's all-miss baseline, which the
        // set already holds; only a completed run replays the journal,
        // onto the compaction base itself.
        let (wear, crash_set, image) = match crash_time {
            Some(t) => {
                let wear = self.controller.wear_report();
                let set = self.controller.crash_set(t);
                let image = set.baseline();
                (wear, Some(set), image)
            }
            None => {
                let (image, wear) = self.controller.take_completion();
                (wear, None, image)
            }
        };
        front.stats.distinct_lines_written = wear.distinct_lines;
        front.stats.max_line_writes = wear.max_line_writes;
        let persist_windows = self.controller.persist_windows();
        let timeline = front
            .sampler
            .take()
            .map(|s| s.finish(front.stats.runtime, &front.stats, &self.controller));
        let latency = (front.latency.count() > 0).then_some(std::mem::take(&mut front.latency));
        RunOutcome {
            stats: std::mem::take(&mut front.stats),
            image,
            crash_time,
            crash_set,
            persist_windows,
            events_processed: front.events_processed,
            timeline,
            latency,
            wear,
        }
    }

    /// Serves one [`CrashSpec::AtTime`] crash per entry of `instants`
    /// from a single replay: the loop pauses at each instant in
    /// ascending order (duplicates allowed) and records every shard's
    /// journal length, and stops after the last instant — or at
    /// completion, if an instant lies beyond it. Results are indexed in
    /// the caller's order, and each equals a separate crash run at that
    /// instant (see the module docs).
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
        for i in order {
            let crash = CrashSpec::AtTime(instants[i]);
            if self
                .front
                .replay(&self.cfg, &mut self.controller, crash)
                .is_none()
            {
                completed = true;
                break;
            }
            cuts[i] = Some(self.controller.journal_lens());
        }
        let completed = completed.then(|| self.controller.build_image());
        CrashSweep {
            instants: instants.to_vec(),
            cuts,
            journals: self.controller.take_journals(),
            completed,
        }
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
    fn barrier_waits_for_counter_writebacks() {
        // The first barrier drains the clwb; the counter line it
        // dirtied persists only at the ccwb, whose guarantee the second
        // barrier must wait for on its own.
        let mut t = Trace::new();
        t.push(write_ev(1, 1, false));
        t.push(TraceEvent::Clwb { line: LineAddr(1) });
        t.push(TraceEvent::PersistBarrier);
        let drained = run_to_completion(SimConfig::single_core(Design::Sca), vec![t.clone()]);
        t.push(TraceEvent::CounterCacheWriteback { line: LineAddr(1) });
        t.push(TraceEvent::PersistBarrier);
        let out = run_to_completion(SimConfig::single_core(Design::Sca), vec![t]);
        assert_eq!(
            out.stats.nvmm_counter_writes, 1,
            "the ccwb persists the counter"
        );
        assert!(
            out.stats.barrier_stall > drained.stats.barrier_stall,
            "the barrier after a ccwb must wait for its guarantee"
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

    /// A trace that exercises every controller-facing event kind:
    /// reads, writes with eviction pressure, clwb/ccwb, barriers,
    /// compute gaps and commits.
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
}
