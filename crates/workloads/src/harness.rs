//! The workload harness: functional execution, trace generation, and the
//! crash-consistency checking protocol used by the test suite and the
//! paper-reproduction experiments.
//!
//! ## Crash checking
//!
//! [`crash_check`] is the executable form of the paper's correctness
//! claim. For a given design and crash point it:
//!
//! 1. executes the workload functionally and replays its trace through
//!    the timing simulator, injecting the crash;
//! 2. runs undo-log recovery over the surviving NVMM image, asserting
//!    that recovery never reads a line whose counter and ciphertext are
//!    out of sync (Eq. 4);
//! 3. reads the durable operation counter `k` and checks the workload's
//!    structural invariants on the recovered state;
//! 4. re-executes the first `k` operations functionally and requires the
//!    recovered bytes to equal that ground truth on every line the
//!    `k`-op run wrote (excluding the undo log itself, whose lifecycle
//!    differs) — recovery must land on *exactly* the state after the
//!    last durably committed transaction.

use crate::spec::{WorkloadKind, WorkloadSpec};
use crate::util::{ensure, ConsistencyError};
use crate::{array_swap, btree, hash_table, queue, rbtree};
use nvmm_core::pmem::Pmem;
use nvmm_core::recovery::RecoveredMemory;
use nvmm_core::undo::UndoLog;
use nvmm_crypto::mac::MacEngine;
use nvmm_crypto::{EncryptionEngine, LineData};
use nvmm_sim::addr::{ByteAddr, LineAddr};
use nvmm_sim::config::{Design, SimConfig};
use nvmm_sim::integrity::IntegritySpec;
use nvmm_sim::parallel::{chunk_ranges, mc_threads, run_parallel};
use nvmm_sim::system::{CrashSpec, RunOutcome, System};
use nvmm_sim::time::Time;
use nvmm_sim::trace::Trace;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A functionally executed workload instance for one core.
pub struct Executed {
    /// The persistent-memory context (holds the trace and final image).
    pub pm: Pmem,
    /// The undo log used by the workload's transactions.
    pub log: UndoLog,
    /// Durable operation counter address.
    pub ops_cell: ByteAddr,
    /// Number of leading trace events that belong to setup (structure
    /// initialization, persisted before the measured operations). Crash
    /// sweeps start after this boundary: a crash inside setup models a
    /// failure before the structure exists, which the workload checkers
    /// deliberately do not cover.
    pub setup_events: usize,
    layout: Layout,
    spec: WorkloadSpec,
    core: usize,
}

enum Layout {
    Array(array_swap::ArrayLayout),
    Queue(queue::QueueLayout),
    Hash(hash_table::HashLayout),
    BTree(btree::BTreeLayout),
    Rb(rbtree::RbLayout),
}

/// Executes `ops` operations of `spec` for `core`, functionally.
pub fn execute(spec: &WorkloadSpec, core: usize, ops: usize) -> Executed {
    let (pm, log, ops_cell, layout, setup_events) = match spec.kind {
        WorkloadKind::ArraySwap => {
            let (pm, log, ops_cell, l, s) = array_swap::execute(spec, core, ops);
            (pm, log, ops_cell, Layout::Array(l), s)
        }
        WorkloadKind::Queue => {
            let (pm, log, ops_cell, l, s) = queue::execute(spec, core, ops);
            (pm, log, ops_cell, Layout::Queue(l), s)
        }
        WorkloadKind::HashTable => {
            let (pm, log, ops_cell, l, s) = hash_table::execute(spec, core, ops);
            (pm, log, ops_cell, Layout::Hash(l), s)
        }
        WorkloadKind::BTree => {
            let (pm, log, ops_cell, l, s) = btree::execute(spec, core, ops);
            (pm, log, ops_cell, Layout::BTree(l), s)
        }
        WorkloadKind::RbTree => {
            let (pm, log, ops_cell, l, s) = rbtree::execute(spec, core, ops);
            (pm, log, ops_cell, Layout::Rb(l), s)
        }
    };
    Executed {
        pm,
        log,
        ops_cell,
        setup_events,
        layout,
        spec: *spec,
        core,
    }
}

impl Executed {
    /// Structural invariant check against a recovered memory, given the
    /// recovered durable op count.
    pub fn check_structure(
        &self,
        mem: &mut RecoveredMemory,
        committed: u64,
    ) -> Result<(), ConsistencyError> {
        match &self.layout {
            Layout::Array(l) => array_swap::check(l, &self.spec, self.core, committed, mem),
            Layout::Queue(l) => queue::check(l, &self.spec, self.core, committed, mem),
            Layout::Hash(l) => hash_table::check(l, &self.spec, self.core, committed, mem),
            Layout::BTree(l) => btree::check(l, &self.spec, self.core, committed, mem),
            Layout::Rb(l) => rbtree::check(l, &self.spec, self.core, committed, mem),
        }
    }
}

/// Generates one trace per core for a timing run (each core executes the
/// full `spec.ops` operations on its own region, as in §6.3.2).
pub fn traces_for_cores(spec: &WorkloadSpec, cores: usize) -> Vec<Trace> {
    (0..cores)
        .map(|core| {
            let ex = execute(spec, core, spec.ops);
            ex.pm.into_parts().0
        })
        .collect()
}

/// Convenience: run `spec` on `cores` cores under `design` with no
/// crash and return the timing outcome.
pub fn run_timed(spec: &WorkloadSpec, design: Design, cores: usize) -> RunOutcome {
    let traces = traces_for_cores(spec, cores);
    System::new(SimConfig::table2(design, cores), traces).run(CrashSpec::None)
}

/// Result of a successful crash-consistency check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashCheckOutcome {
    /// Durably committed transactions at the crash point.
    pub committed: u64,
    /// Whether recovery rolled an in-flight transaction back.
    pub rolled_back: bool,
    /// Total trace events (useful for sweeping crash points).
    pub trace_events: u64,
}

/// Runs the full crash-consistency protocol for one crash point.
///
/// # Errors
///
/// Returns a [`ConsistencyError`] when recovery reads a garbled line,
/// a structural invariant is violated, or the recovered state deviates
/// from the ground-truth state after the last committed transaction —
/// i.e. exactly when the design under test fails the paper's
/// counter-atomicity requirement.
pub fn crash_check(
    spec: &WorkloadSpec,
    design: Design,
    crash: CrashSpec,
) -> Result<CrashCheckOutcome, ConsistencyError> {
    crash_check_cfg(spec, SimConfig::single_core(design), crash, 0)
}

/// [`crash_check`] with a caller-supplied configuration and an
/// Osiris-style counter-recovery window (0 = disabled). Use a window
/// matching `config.stop_loss` to validate stop-loss recovery.
pub fn crash_check_cfg(
    spec: &WorkloadSpec,
    config: SimConfig,
    crash: CrashSpec,
    recovery_window: u64,
) -> Result<CrashCheckOutcome, ConsistencyError> {
    let design = config.design;
    let integrity = IntegritySpec::from_config(&config);
    let ex = execute(spec, 0, spec.ops);
    let trace = ex.pm.trace().clone();
    let key = config.key;
    let out = System::new(config, vec![trace]).run(crash);
    check_recovered_image(spec, &ex, &out, key, design, integrity, recovery_window)
}

/// The checking half of [`crash_check_cfg`]: given an already-executed
/// workload and an already-simulated (possibly crashed) run, replays
/// recovery over the surviving image and verifies consistency.
///
/// Splitting this from the simulation lets a sweep generate many crash
/// images in parallel and replay the recovery checks over them
/// afterwards (see the `recovery_cost` and `table1` binaries).
///
/// # Errors
///
/// Returns a [`ConsistencyError`] exactly as [`crash_check_cfg`] does:
/// when recovery reads a garbled line, a structural invariant fails, or
/// the recovered bytes deviate from the replayed ground truth.
#[allow(clippy::too_many_arguments)]
pub fn check_recovered_image(
    spec: &WorkloadSpec,
    ex: &Executed,
    out: &RunOutcome,
    key: [u8; 16],
    design: Design,
    integrity: IntegritySpec,
    recovery_window: u64,
) -> Result<CrashCheckOutcome, ConsistencyError> {
    check_image(
        spec,
        ex,
        &out.image,
        key,
        design,
        integrity,
        recovery_window,
    )
}

/// The image-level core of [`check_recovered_image`]: runs the full
/// recovery protocol against *one* NVMM image, wherever it came from —
/// a simulated run's single filtered journal, or one member of the
/// adversarial crash-image set the [`model_check`] enumerator explores.
///
/// # Errors
///
/// Returns a [`ConsistencyError`] exactly as [`check_recovered_image`].
#[allow(clippy::too_many_arguments)]
pub fn check_image(
    spec: &WorkloadSpec,
    ex: &Executed,
    image: &nvmm_sim::NvmmImage,
    key: [u8; 16],
    design: Design,
    integrity: IntegritySpec,
    recovery_window: u64,
) -> Result<CrashCheckOutcome, ConsistencyError> {
    check_image_inner(
        spec,
        ex,
        image,
        None,
        &Checker::new(key),
        design,
        integrity,
        recovery_window,
    )
}

/// [`check_image`] with caller-supplied engines. The model checker
/// verifies every enumerated image of a crash set against the same key;
/// sharing one warmed [`EncryptionEngine`] (whose OTP pad memo persists
/// across candidate images) avoids re-deriving the AES key schedule and
/// re-computing identical pads per image.
#[allow(clippy::too_many_arguments)]
pub fn check_image_with(
    spec: &WorkloadSpec,
    ex: &Executed,
    image: &nvmm_sim::NvmmImage,
    engine: &EncryptionEngine,
    mac_engine: &MacEngine,
    design: Design,
    integrity: IntegritySpec,
    recovery_window: u64,
) -> Result<CrashCheckOutcome, ConsistencyError> {
    let checker = Checker {
        engine: engine.clone(),
        mac_engine: mac_engine.clone(),
        truth: GroundTruth::default(),
    };
    check_image_inner(
        spec,
        ex,
        image,
        None,
        &checker,
        design,
        integrity,
        recovery_window,
    )
}

/// The recovery oracle's ground truth by durably committed op count:
/// the image `execute(spec, 0, committed)` leaves. It is a pure function
/// of `(spec, committed)`, and the images of one model check recover to
/// few distinct counts, so each is computed once per memo.
#[derive(Default)]
struct GroundTruth(Mutex<HashMap<u64, Arc<LineImage>>>);

/// A functional memory image, as [`Pmem`] leaves it.
type LineImage = HashMap<LineAddr, LineData>;

impl GroundTruth {
    fn after(&self, spec: &WorkloadSpec, committed: u64) -> Arc<LineImage> {
        if let Some(image) = self.lock().get(&committed) {
            return Arc::clone(image);
        }
        let image = Arc::new(execute(spec, 0, committed as usize).pm.into_parts().1);
        Arc::clone(self.lock().entry(committed).or_insert(image))
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Arc<LineImage>>> {
        self.0.lock().expect("ground-truth memo poisoned")
    }
}

/// What one model-check worker reuses across every image it judges: one
/// warmed engine pair (clones share the OTP-pad and MAC memos) and the
/// ground-truth memo.
struct Checker {
    engine: EncryptionEngine,
    mac_engine: MacEngine,
    truth: GroundTruth,
}

impl Checker {
    fn new(key: [u8; 16]) -> Self {
        Self {
            engine: EncryptionEngine::new(key),
            mac_engine: MacEngine::new(key),
            truth: GroundTruth::default(),
        }
    }
}

/// The shared body of [`check_image_with`]: when the model checker's
/// delta-verified walk already judged the image with a warm
/// [`nvmm_sim::DeltaVerifier`], its verdict arrives as `precomputed`
/// and the full-pass oracle is skipped — the verdict (and so the
/// wrapped error string) is bit-identical by the differential suite's
/// guarantee, so reports cannot depend on which path ran.
#[allow(clippy::too_many_arguments)]
fn check_image_inner(
    spec: &WorkloadSpec,
    ex: &Executed,
    image: &nvmm_sim::NvmmImage,
    precomputed: Option<&Result<(), String>>,
    checker: &Checker,
    design: Design,
    integrity: IntegritySpec,
    recovery_window: u64,
) -> Result<CrashCheckOutcome, ConsistencyError> {
    let Checker {
        engine,
        mac_engine,
        truth,
    } = checker;
    // Integrity oracle first: before recovery touches anything, every
    // cleanly-decrypting line must authenticate against its persisted
    // MAC, and (under strict) every persisted tree node against its
    // persisted children.
    let oracle = match precomputed {
        Some(v) => v.clone(),
        None => nvmm_sim::verify_image_with(image, integrity, engine, mac_engine),
    };
    if let Err(err) = oracle {
        ensure!(
            false,
            "integrity oracle rejected the image under {design}: {err}"
        );
    }
    let trace_events = ex.pm.trace().len() as u64;
    let mut mem = RecoveredMemory::with_engine(image.clone(), engine.clone())
        .with_recovery_window(recovery_window);
    let report = spec.mechanism.recover(&mut mem, &ex.log);
    ensure!(
        report.reads_clean,
        "recovery read garbled lines {:?} under {design}",
        mem.garbled_lines()
    );

    let committed = mem.read_u64(ex.ops_cell);
    ensure!(
        committed <= spec.ops as u64,
        "recovered op counter {committed} exceeds issued ops {}",
        spec.ops
    );

    ex.check_structure(&mut mem, committed)?;

    // Replay equality: recovered bytes must match the ground-truth state
    // after exactly `committed` operations, on every line that state
    // defines (the undo log region excepted — its lifecycle differs).
    let expected = truth.after(spec, committed);
    let log_start = ex.log.valid_addr().line().0;
    let log_end = ex.log.end().line().0;
    for (line, want) in expected.iter() {
        if (log_start..log_end).contains(&line.0) {
            continue;
        }
        let mut got = [0u8; 64];
        mem.read(line.byte_addr(), &mut got);
        ensure!(
            got == *want,
            "line {line} deviates from the state after {committed} committed ops"
        );
    }
    ensure!(
        mem.all_reads_clean(),
        "checker reads hit garbled lines {:?}",
        mem.garbled_lines()
    );
    Ok(CrashCheckOutcome {
        committed,
        rolled_back: report.rolled_back,
        trace_events,
    })
}

/// Sweeps `points` evenly spaced crash points across the post-setup
/// portion of the trace, returning the first failure (if any) with its
/// crash point.
pub fn crash_sweep(
    spec: &WorkloadSpec,
    design: Design,
    points: u64,
) -> Result<Vec<CrashCheckOutcome>, (u64, ConsistencyError)> {
    let ex = execute(spec, 0, spec.ops);
    let total = ex.pm.trace().len() as u64;
    let start = ex.setup_events as u64;
    let step = ((total - start) / points.max(1)).max(1);
    let mut outcomes = Vec::new();
    let mut k = start;
    while k < total {
        match crash_check(spec, design, CrashSpec::AfterEvent(k)) {
            Ok(o) => outcomes.push(o),
            Err(e) => return Err((k, e)),
        }
        k += step;
    }
    Ok(outcomes)
}

/// Bounds and switches for one adversarial model-check run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCheckOpts {
    /// Landing masks to materialize per crash instant (full `2^k`
    /// enumeration when it fits, deterministic seeded sampling beyond).
    pub max_images: usize,
    /// Seed for the sampling stream.
    pub seed: u64,
    /// Osiris-style counter-recovery window (0 = disabled), as in
    /// [`crash_check_cfg`].
    pub recovery_window: u64,
    /// Drop every `counter_cache_writeback()` from the trace before
    /// simulation — the positive-control bug: an SCA program that
    /// forgets the flush must yield at least one violating image.
    pub strip_counter_writebacks: bool,
    /// Run the integrity oracle through the fused delta-verified walk
    /// ([`nvmm_sim::CrashSet::enumerate_verified`]) instead of
    /// re-verifying each enumerated image from scratch. Verdicts are
    /// bit-identical either way; the switch exists so the differential
    /// suite can hold the two paths against each other.
    pub delta_verify: bool,
}

impl Default for ModelCheckOpts {
    fn default() -> Self {
        Self {
            max_images: 128,
            seed: 0xadc0_ffee,
            recovery_window: 0,
            strip_counter_writebacks: false,
            delta_verify: true,
        }
    }
}

/// The workload trace as one model-check run will replay it (with the
/// counter-cache write-backs stripped when the positive-control switch
/// is on).
fn prepared_trace(ex: &Executed, opts: &ModelCheckOpts) -> Trace {
    let trace = ex.pm.trace().clone();
    if !opts.strip_counter_writebacks {
        return trace;
    }
    trace
        .events()
        .iter()
        .filter(|e| !matches!(e, nvmm_sim::TraceEvent::CounterCacheWriteback { .. }))
        .cloned()
        .collect()
}

/// Crash instants at which at least one write is observably in flight,
/// harvested from a completed (crash-free) run's persist windows: the
/// midpoint of each post-setup window, deduplicated and evenly thinned
/// to at most `limit`. Event-aligned crash points almost always fall
/// outside the in-flight windows (the core clock trails the controller
/// pipeline), so these are the instants where adversarial enumeration
/// actually has choices to explore; feed them to [`model_check`] as
/// [`CrashSpec::AtTime`]. Instants inside the setup phase are excluded
/// for the same reason crash sweeps skip it: the checkers deliberately
/// do not model a crash before the structure exists.
pub fn crash_instants(
    spec: &WorkloadSpec,
    design: Design,
    opts: &ModelCheckOpts,
    limit: usize,
) -> Vec<Time> {
    crash_instants_cfg(spec, SimConfig::single_core(design), opts, limit)
}

/// [`crash_instants`] with a caller-supplied configuration.
pub fn crash_instants_cfg(
    spec: &WorkloadSpec,
    config: SimConfig,
    opts: &ModelCheckOpts,
    limit: usize,
) -> Vec<Time> {
    let ex = execute(spec, 0, spec.ops);
    let trace = prepared_trace(&ex, opts);
    // The setup boundary as an instant: the core clock right after the
    // last setup event of the prepared trace (stripping ccwb events
    // shifts the boundary index).
    let setup_events = if opts.strip_counter_writebacks {
        ex.pm.trace().events()[..ex.setup_events]
            .iter()
            .filter(|e| !matches!(e, nvmm_sim::TraceEvent::CounterCacheWriteback { .. }))
            .count()
    } else {
        ex.setup_events
    };
    let setup_end = if setup_events == 0 {
        Time::ZERO
    } else {
        System::new(config.clone(), vec![trace.clone()])
            .run(CrashSpec::AfterEvent(setup_events as u64 - 1))
            .crash_time
            .unwrap_or(Time::ZERO)
    };
    let out = System::new(config, vec![trace]).run(CrashSpec::None);
    let mut mids: Vec<Time> = out
        .persist_windows
        .iter()
        .map(|&(s, g)| Time::from_ps(s.0 + (g.0 - s.0) / 2))
        .filter(|&m| m >= setup_end)
        .collect();
    mids.sort_unstable();
    mids.dedup();
    if limit == 0 || mids.len() <= limit {
        return mids;
    }
    // Even stride over the sorted midpoints keeps coverage spread across
    // the whole run rather than clustered at its start.
    (0..limit).map(|i| mids[i * mids.len() / limit]).collect()
}

/// The smallest failing landing-set found for a violating crash state,
/// plus the error it produces — the model checker's stand-in for
/// proptest shrinking (the vendored `proptest` does not shrink).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimalViolation {
    /// Choice groups that land in the minimal failing image (empty when
    /// the ADR-pessimistic baseline itself fails).
    pub landed: Vec<usize>,
    /// The consistency error that image produces.
    pub error: ConsistencyError,
}

/// Outcome of model-checking every enumerated crash image at one crash
/// instant.
#[derive(Debug, Clone)]
pub struct ModelCheckReport {
    /// Enumeration accounting (groups, pruning, masks, dedupe).
    pub stats: nvmm_sim::EnumStats,
    /// Line-level-distinct images fed through the recovery oracle.
    pub images_checked: usize,
    /// Images on which the recovery protocol failed.
    pub violations: usize,
    /// Whether the all-miss baseline (the image [`crash_check`] would
    /// test) is itself a violation.
    pub baseline_violation: bool,
    /// Greedily minimized failing landing-set, when any image violated.
    pub minimal: Option<MinimalViolation>,
    /// Wall-clock nanoseconds spent checking this crash instant: the
    /// crash cursor's advance to it (the journal records new since the
    /// worker's previous instant, the in-flight set, one clone of the
    /// base image), enumeration, and recovery verification.
    /// The shared simulation is not included — it is
    /// [`ModelCheckReport::sweep_wall_ns`] — except on the
    /// [`CrashSpec::None`] / [`CrashSpec::AfterEvent`] path of
    /// [`model_check_cfg`], which simulates for this report alone.
    /// Telemetry only: it is deliberately ignored by `PartialEq`, so
    /// determinism assertions comparing two reports still hold.
    pub mc_wall_ns: u64,
    /// Wall-clock nanoseconds of the one execution + crash-sweep
    /// simulation that every report of one [`model_check_instants_cfg`]
    /// call shares (the same value on each); 0 when no sweep ran.
    /// Telemetry only, ignored by `PartialEq`.
    pub sweep_wall_ns: u64,
    /// Wall-clock nanoseconds of the enumeration phase (the schedule
    /// walk, net of the fused walk's self-reported oracle share when
    /// [`ModelCheckOpts::delta_verify`] is on). Telemetry only, ignored
    /// by `PartialEq` like [`ModelCheckReport::mc_wall_ns`].
    pub enumerate_wall_ns: u64,
    /// Nanoseconds of the verification phase: recovery protocol replay
    /// plus the integrity oracle — the fused walk's measured verify
    /// share when the delta walk is on, the full-pass re-verification
    /// otherwise. Telemetry only, ignored by `PartialEq`.
    pub verify_wall_ns: u64,
}

impl PartialEq for ModelCheckReport {
    fn eq(&self, other: &Self) -> bool {
        // The `*_wall_ns` fields are wall-clock telemetry; every
        // semantic field participates.
        self.stats == other.stats
            && self.images_checked == other.images_checked
            && self.violations == other.violations
            && self.baseline_violation == other.baseline_violation
            && self.minimal == other.minimal
    }
}

impl Eq for ModelCheckReport {}

impl ModelCheckReport {
    /// `true` when every enumerated image recovered cleanly.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

/// Model-checks one crash instant: enumerates every ADR-legal post-crash
/// image within `opts`' bounds and runs the full recovery protocol
/// ([`check_image`]) over each. Where [`crash_check`] samples the single
/// pessimistic image, this is the paper's universal claim made
/// executable: *no* legal image may fail recovery.
pub fn model_check(
    spec: &WorkloadSpec,
    design: Design,
    crash: CrashSpec,
    opts: &ModelCheckOpts,
) -> ModelCheckReport {
    model_check_cfg(spec, SimConfig::single_core(design), crash, opts)
}

/// [`model_check`] with a caller-supplied configuration. The image
/// enumeration and recovery checks within the crash set run on
/// [`mc_threads`] workers; the report is bit-identical to a
/// single-threaded run for any worker count. A
/// [`CrashSpec::AtTime`] crash is the one-instant case of
/// [`model_check_instants_cfg`].
pub fn model_check_cfg(
    spec: &WorkloadSpec,
    config: SimConfig,
    crash: CrashSpec,
    opts: &ModelCheckOpts,
) -> ModelCheckReport {
    if let CrashSpec::AtTime(t) = crash {
        return sweep_check(spec, config, &[t], opts, 1, mc_threads())
            .pop()
            .expect("one report per instant");
    }
    let started = Instant::now();
    let design = config.design;
    let integrity = IntegritySpec::from_config(&config);
    let key = config.key;
    let ex = execute(spec, 0, spec.ops);
    let trace = prepared_trace(&ex, opts);
    let out = System::new(config, vec![trace]).run(crash);
    let mut report = match out.crash_set {
        Some(set) => check_crash_set(spec, &ex, &set, key, design, integrity, opts),
        None => completed_report(check_image(
            spec,
            &ex,
            &out.image,
            key,
            design,
            integrity,
            opts.recovery_window,
        )),
    };
    report.mc_wall_ns = started.elapsed().as_nanos() as u64;
    report
}

/// The report for a run that completed before its crash: exactly one
/// legal image, judged by `verdict`.
fn completed_report(verdict: Result<CrashCheckOutcome, ConsistencyError>) -> ModelCheckReport {
    let failed = verdict.is_err();
    ModelCheckReport {
        stats: nvmm_sim::EnumStats {
            groups: 0,
            groups_pruned: 0,
            domains: 0,
            masks_explored: 1,
            images_unique: 1,
            images_deduped: 0,
            exhaustive: true,
        },
        images_checked: 1,
        violations: failed as usize,
        baseline_violation: failed,
        minimal: verdict.err().map(|error| MinimalViolation {
            landed: Vec::new(),
            error,
        }),
        mc_wall_ns: 0,
        sweep_wall_ns: 0,
        enumerate_wall_ns: 0,
        verify_wall_ns: 0,
    }
}

/// Model-checks `spec` at every crash instant in `instants` with one
/// simulation: the workload executes once, one
/// [`System::run_crash_sweep`] replay pauses at every instant, and the
/// sorted instants split into contiguous runs over [`mc_threads`]
/// scoped workers, each advancing one crash cursor through its run and
/// checking each crash set sequentially (inner enumeration worker count
/// pinned to 1). The reports come back in instant order and are
/// bit-identical to simulating and checking the instants one by one —
/// whatever `NVMM_MC_THREADS` says.
pub fn model_check_instants(
    spec: &WorkloadSpec,
    design: Design,
    instants: &[Time],
    opts: &ModelCheckOpts,
) -> Vec<ModelCheckReport> {
    model_check_instants_cfg(spec, SimConfig::single_core(design), instants, opts)
}

/// [`model_check_instants`] with a caller-supplied configuration.
pub fn model_check_instants_cfg(
    spec: &WorkloadSpec,
    config: SimConfig,
    instants: &[Time],
    opts: &ModelCheckOpts,
) -> Vec<ModelCheckReport> {
    sweep_check(spec, config, instants, opts, mc_threads(), 1)
}

/// The shared body of [`model_check_instants_cfg`] and the
/// [`CrashSpec::AtTime`] case of [`model_check_cfg`]: one execution,
/// one crash sweep, then the instants, sorted, in up to `outer`
/// contiguous runs on as many workers, with `inner` workers inside each
/// crash set. A worker advances one [`nvmm_sim::SweepCursor`] through
/// its run, so each crash set costs the journal records new since the
/// previous instant rather than the whole prefix, and it judges every
/// image with one [`Checker`]. At most `outer` crash sets are alive at
/// once; reports come back in the caller's order.
fn sweep_check(
    spec: &WorkloadSpec,
    config: SimConfig,
    instants: &[Time],
    opts: &ModelCheckOpts,
    outer: usize,
    inner: usize,
) -> Vec<ModelCheckReport> {
    let started = Instant::now();
    let design = config.design;
    let integrity = IntegritySpec::from_config(&config);
    let key = config.key;
    let ex = execute(spec, 0, spec.ops);
    let trace = prepared_trace(&ex, opts);
    let sweep = System::new(config, vec![trace]).run_crash_sweep(instants);
    let sweep_wall_ns = started.elapsed().as_nanos() as u64;
    let mut order: Vec<usize> = (0..instants.len()).collect();
    order.sort_by_key(|&i| instants[i]);
    let runs = chunk_ranges(order.len(), outer);
    let checked = run_parallel(outer, &runs, |&(start, end)| {
        let mut cursor = sweep.cursor();
        let checker = Checker::new(key);
        order[start..end]
            .iter()
            .map(|&i| {
                let started = Instant::now();
                let mut report = match cursor.crash_set(i) {
                    Some(set) => check_crash_set_threads(
                        spec, &ex, &set, &checker, design, integrity, opts, inner,
                    ),
                    None => completed_report(check_image_inner(
                        spec,
                        &ex,
                        sweep
                            .completed_image()
                            .expect("an instant without a crash set lies after completion"),
                        None,
                        &checker,
                        design,
                        integrity,
                        opts.recovery_window,
                    )),
                };
                report.mc_wall_ns = started.elapsed().as_nanos() as u64;
                report.sweep_wall_ns = sweep_wall_ns;
                (i, report)
            })
            .collect::<Vec<_>>()
    });
    let mut reports: Vec<Option<ModelCheckReport>> = vec![None; instants.len()];
    for (i, report) in checked.into_iter().flatten() {
        reports[i] = Some(report);
    }
    reports
        .into_iter()
        .map(|r| r.expect("every instant is checked once"))
        .collect()
}

/// The checking half of [`model_check_cfg`]: verifies an
/// already-captured crash state against an already-executed workload.
/// Split out so a sweep can simulate many crash cells in parallel and
/// replay the enumerated checks afterwards (see the `crash_matrix`
/// binary).
#[allow(clippy::too_many_arguments)]
pub fn check_crash_set(
    spec: &WorkloadSpec,
    ex: &Executed,
    set: &nvmm_sim::CrashSet,
    key: [u8; 16],
    design: Design,
    integrity: IntegritySpec,
    opts: &ModelCheckOpts,
) -> ModelCheckReport {
    let checker = Checker::new(key);
    check_crash_set_threads(
        spec,
        ex,
        set,
        &checker,
        design,
        integrity,
        opts,
        mc_threads(),
    )
}

/// [`check_crash_set`] with a caller-owned [`Checker`] and an explicit
/// worker count for enumeration and image verification.
#[allow(clippy::too_many_arguments)]
fn check_crash_set_threads(
    spec: &WorkloadSpec,
    ex: &Executed,
    set: &nvmm_sim::CrashSet,
    checker: &Checker,
    design: Design,
    integrity: IntegritySpec,
    opts: &ModelCheckOpts,
    threads: usize,
) -> ModelCheckReport {
    let started = Instant::now();
    let eopts = nvmm_sim::EnumOpts {
        max_images: opts.max_images,
        seed: opts.seed,
    };
    let (engine, mac_engine) = (&checker.engine, &checker.mac_engine);
    // The fused delta-verified walk re-judges each image from what its
    // schedule step dirtied; the opts switch falls back to full-pass
    // verification per image. Verdicts are bit-identical either way.
    let (en, oracle_verdicts, fused_verify_ns) = if opts.delta_verify {
        let (en, v, vns) =
            set.enumerate_verified_timed(eopts, threads, integrity, engine, mac_engine);
        (en, Some(v), vns)
    } else {
        (set.enumerate_parallel(eopts, threads), None, 0)
    };
    // The fused walk interleaves oracle work with enumeration; its
    // self-reported verify share moves to the verify bucket so the
    // split means the same thing on both paths.
    let enumerate_wall_ns = (started.elapsed().as_nanos() as u64).saturating_sub(fused_verify_ns);
    let verify_started = Instant::now();
    let jobs: Vec<usize> = (0..en.images.len()).collect();
    let verdicts = run_parallel(threads, &jobs, |&i| {
        check_image_inner(
            spec,
            ex,
            &en.images[i].1,
            oracle_verdicts.as_ref().map(|v| &v[i]),
            checker,
            design,
            integrity,
            opts.recovery_window,
        )
    });
    let verify_wall_ns = verify_started.elapsed().as_nanos() as u64 + fused_verify_ns;
    let mut violations = 0usize;
    let mut baseline_violation = false;
    let mut first_fail: Option<(nvmm_sim::LandMask, ConsistencyError)> = None;
    for (i, verdict) in verdicts.into_iter().enumerate() {
        if let Err(error) = verdict {
            violations += 1;
            // `images[0]` is always the all-miss baseline.
            baseline_violation |= i == 0;
            if first_fail.is_none() {
                first_fail = Some((en.images[i].0.clone(), error));
            }
        }
    }
    let minimal = first_fail.map(|(mask, error)| {
        minimize_violation(
            spec,
            ex,
            set,
            checker,
            design,
            integrity,
            opts.recovery_window,
            mask,
            error,
        )
    });
    ModelCheckReport {
        stats: en.stats,
        images_checked: en.images.len(),
        violations,
        baseline_violation,
        minimal,
        mc_wall_ns: started.elapsed().as_nanos() as u64,
        sweep_wall_ns: 0,
        enumerate_wall_ns,
        verify_wall_ns,
    }
}

/// Greedy mask minimization: repeatedly step to a smaller *legal* mask
/// (each candidate drops the last landed group of one serialization
/// domain) while the image keeps failing, until no step fails.
#[allow(clippy::too_many_arguments)]
fn minimize_violation(
    spec: &WorkloadSpec,
    ex: &Executed,
    set: &nvmm_sim::CrashSet,
    checker: &Checker,
    design: Design,
    integrity: IntegritySpec,
    recovery_window: u64,
    mut mask: nvmm_sim::LandMask,
    mut error: ConsistencyError,
) -> MinimalViolation {
    let mut candidates = Vec::new();
    loop {
        let mut improved = false;
        set.shrink_candidates_into(&mask, &mut candidates);
        for cand in candidates.drain(..) {
            if let Err(e) = check_image_inner(
                spec,
                ex,
                &set.image(&cand),
                None,
                checker,
                design,
                integrity,
                recovery_window,
            ) {
                mask = cand;
                error = e;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    MinimalViolation {
        landed: mask.landed(),
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_dispatches_all_kinds() {
        for kind in WorkloadKind::ALL {
            let spec = WorkloadSpec::smoke(kind).with_ops(5);
            let ex = execute(&spec, 0, 5);
            assert_eq!(ex.pm.trace().tx_count(), 5, "{kind}");
        }
    }

    #[test]
    fn traces_differ_across_cores() {
        let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(5);
        let ts = traces_for_cores(&spec, 2);
        assert_eq!(ts.len(), 2);
        assert_ne!(ts[0], ts[1], "cores must work on disjoint regions/streams");
    }

    #[test]
    fn no_crash_check_passes_for_all_kinds_under_sca() {
        for kind in WorkloadKind::ALL {
            let spec = WorkloadSpec::smoke(kind).with_ops(6);
            let o = crash_check(&spec, Design::Sca, CrashSpec::None)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(o.committed, 6);
            assert!(!o.rolled_back);
        }
    }

    /// Splitting the sorted instants into cursor runs is invisible in
    /// the reports: `sweep_check` at 1, 2, 3 and 5 runs over unsorted,
    /// duplicated instants (one at time zero, one after completion)
    /// equals simulating and checking every instant on its own, under
    /// SCA+strict with and without the injected tree bug.
    #[test]
    fn sweep_check_runs_match_per_instant_checks() {
        use nvmm_sim::IntegrityPolicy;
        let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(3);
        let opts = ModelCheckOpts {
            max_images: 16,
            ..ModelCheckOpts::default()
        };
        let strict = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
        let mut witnesses = 0;
        for cfg in [strict.clone(), strict.with_tree_bug()] {
            let integrity = IntegritySpec::from_config(&cfg);
            let mut instants = crash_instants_cfg(&spec, cfg.clone(), &opts, 6);
            assert!(instants.len() >= 3, "too few in-flight instants");
            instants.reverse();
            instants.push(instants[1]);
            instants.insert(2, Time::from_ns(1_000_000_000));
            instants.push(Time::ZERO);
            let ex = execute(&spec, 0, spec.ops);
            let oracle: Vec<ModelCheckReport> = instants
                .iter()
                .map(|&t| {
                    let out = System::new(cfg.clone(), vec![ex.pm.trace().clone()])
                        .run(CrashSpec::AtTime(t));
                    match out.crash_set {
                        Some(set) => {
                            check_crash_set(&spec, &ex, &set, cfg.key, cfg.design, integrity, &opts)
                        }
                        None => completed_report(check_image(
                            &spec,
                            &ex,
                            &out.image,
                            cfg.key,
                            cfg.design,
                            integrity,
                            opts.recovery_window,
                        )),
                    }
                })
                .collect();
            for outer in [1, 2, 3, 5] {
                let reports = sweep_check(&spec, cfg.clone(), &instants, &opts, outer, 1);
                assert_eq!(reports, oracle, "{outer} runs");
            }
            witnesses += oracle.iter().filter(|r| r.minimal.is_some()).count();
        }
        assert!(witnesses > 0, "the tree bug never produced a witness");
    }

    #[test]
    fn run_timed_produces_stats() {
        let spec = WorkloadSpec::smoke(WorkloadKind::Queue);
        let out = run_timed(&spec, Design::Sca, 1);
        assert_eq!(out.stats.transactions_committed, spec.ops as u64);
        assert!(out.stats.nvmm_data_writes > 0);
    }
}
