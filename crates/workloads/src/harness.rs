//! The workload harness: functional execution, trace generation, and the
//! crash-consistency checking protocol used by the test suite and the
//! paper-reproduction experiments.
//!
//! ## Crash checking
//!
//! [`crash_check_cfg`] is the executable form of the paper's correctness
//! claim. For a given configuration and crash point it:
//!
//! 1. executes the workload functionally and replays its trace through
//!    the timing simulator, injecting the crash;
//! 2. runs undo-log recovery over the surviving NVMM image, asserting
//!    that recovery never reads a line whose counter and ciphertext are
//!    out of sync (Eq. 4);
//! 3. reads the durable operation counter `k` and checks the workload's
//!    structural invariants on the recovered state;
//! 4. requires the recovered bytes to equal the functional state after
//!    the first `k` operations — the last writer of each line among the
//!    execution's own writes before op `k + 1` starts — on every line
//!    that state defines (excluding the undo log itself, whose lifecycle
//!    differs): recovery must land on *exactly* the state after the last
//!    durably committed transaction.
//!
//! A check names a garbled read before its symptoms: an op counter that
//! decrypts garbled, or a structure check that fails after reading
//! garbled lines, reports those lines rather than the count or the
//! broken invariant they produce.
//!
//! ## Crash points
//!
//! A crash is an instant ([`CrashSpec::AtTime`]). A run's crash set
//! changes only at its *breakpoints*, where a journal record is
//! submitted or guaranteed, so [`model_check_breakpoints`] judges every
//! legal image of every post-setup crash state of a run. A crash right
//! after a chosen event is the instant
//! [`instant_after_events`](nvmm_sim::system::instant_after_events)
//! names. [`crash_instants_cfg`] samples the instants where a write is
//! in flight, for [`model_check_instants_cfg`]. Each of these executes
//! the workload once and replays it once ([`CrashSweep::one_core`]).
//! [`model_check_chosen`], behind [`model_check_breakpoints`], picks its
//! instants from the same sweep it cuts the crash sets from, so a check
//! whose instants depend on the run costs one execution and one replay
//! too.
//!
//! ## Delta recovery judging
//!
//! Every verdict goes through one `Checker`, which owns what a verdict
//! reads besides the image: the execution, a warmed engine pair, the
//! design, the integrity spec and the recovery window. One checker
//! serves a lone image, each image of the fused walk and each witness
//! minimization candidate.
//!
//! The images of one crash set differ only in their in-flight cells, so
//! step 4 is judged per set, not per image (`SetJudge`): the set's base
//! image is compared against the ground truth once per committed count,
//! and each image then reads only the lines its set can change
//! ([`nvmm_sim::CrashSet::in_flight_lines`]) plus the lines its recovery
//! restored. Every other line reads as in the base, so its verdict is
//! the base's. A lone image is the one-image set whose base is itself.
//!
//! The model checker judges each image inside the fused walk
//! ([`nvmm_sim::CrashSet::walk_verified`]), on the walk's own overlay
//! image and with the walk's integrity verdict, so no image is copied
//! to be judged. A crash set is walked and judged on one thread; a
//! model check's workers split its crash instants. Only witness
//! minimization materializes images, one per candidate mask.

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
use nvmm_sim::nvmm::NvmmImage;
use nvmm_sim::parallel::{chunk_ranges, mc_threads, run_parallel};
use nvmm_sim::system::{CrashSpec, CrashSweep, RunOutcome, System};
use nvmm_sim::time::Time;
use nvmm_sim::trace::{Trace, TraceEvent};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
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
    /// Trace length at the start of each executed operation: op `k`'s
    /// transaction begins after `op_starts[k]` events. One entry per
    /// operation executed, so the first is `setup_events`.
    pub op_starts: Vec<usize>,
    layout: Layout,
    spec: WorkloadSpec,
    core: usize,
    truth: GroundTruth,
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
    let (pm, log, ops_cell, layout, op_starts) = match spec.kind {
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
    let setup_events = op_starts.first().copied().unwrap_or(pm.trace().len());
    Executed {
        pm,
        log,
        ops_cell,
        setup_events,
        op_starts,
        layout,
        spec: *spec,
        core,
        truth: GroundTruth::default(),
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

    /// Number of operations executed.
    fn ops(&self) -> usize {
        self.op_starts.len()
    }

    /// The undo log's lines, which the replay-equality check skips.
    fn log_lines(&self) -> Range<u64> {
        self.log.valid_addr().line().0..self.log.end().line().0
    }

    /// The functional memory after the first `committed` operations,
    /// sorted by line: the last writer of each line among the trace's
    /// writes before op `committed + 1` starts (the whole trace once
    /// every executed op committed). That is exactly the memory
    /// `execute(spec, core, committed)` leaves, because that run's trace
    /// is this trace's prefix. Memoized by `committed`.
    ///
    /// # Errors
    ///
    /// `committed` is read from a crash image, which a crash controls; a
    /// count above the ops executed is a [`ConsistencyError`].
    fn state_after(&self, committed: u64) -> Result<Arc<LineImage>, ConsistencyError> {
        let ops = self.ops() as u64;
        ensure!(
            committed <= ops,
            "recovered op counter {committed} exceeds issued ops {ops}"
        );
        Ok(self.truth.after(self, committed))
    }
}

/// A functional memory image, sorted by line.
type LineImage = Vec<(LineAddr, LineData)>;

/// The recovery oracle's ground truth for one [`Executed`]: its states
/// after each committed count, folded from its own trace and memoized.
#[derive(Default)]
struct GroundTruth {
    /// Every `Write` of the trace as `(line, event index)`, sorted — each
    /// line's writes in trace order. Built on first use, so executions
    /// that are never judged do not pay for it.
    writes: OnceLock<Vec<(LineAddr, usize)>>,
    after: Mutex<BTreeMap<u64, Arc<LineImage>>>,
}

impl GroundTruth {
    /// [`Executed::state_after`] for a count within the ops executed.
    fn after(&self, ex: &Executed, committed: u64) -> Arc<LineImage> {
        if let Some(image) = self.lock().get(&committed) {
            return Arc::clone(image);
        }
        let trace = ex.pm.trace();
        let end = ex
            .op_starts
            .get(committed as usize)
            .copied()
            .unwrap_or(trace.len());
        let writes = self.writes.get_or_init(|| {
            let mut writes: Vec<(LineAddr, usize)> = trace
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match e {
                    TraceEvent::Write { line, .. } => Some((line, i)),
                    _ => None,
                })
                .collect();
            writes.sort_unstable();
            writes
        });
        let image: LineImage = writes
            .chunk_by(|a, b| a.0 == b.0)
            .filter_map(|run| {
                let before = run.partition_point(|&(_, i)| i < end);
                let &(line, i) = run[..before].last()?;
                match trace.get(i) {
                    Some(TraceEvent::Write { data, .. }) => Some((line, data)),
                    _ => unreachable!("the write index holds only writes"),
                }
            })
            .collect();
        Arc::clone(self.lock().entry(committed).or_insert(Arc::new(image)))
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, Arc<LineImage>>> {
        self.after.lock().expect("ground-truth memo poisoned")
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
}

/// Runs the full crash-consistency protocol for one crash point under
/// `config`, with an Osiris-style counter-recovery window (0 =
/// disabled). Use a window matching `config.stop_loss` to validate
/// stop-loss recovery.
///
/// # Errors
///
/// Returns a [`ConsistencyError`] when recovery reads a garbled line,
/// a structural invariant is violated, or the recovered state deviates
/// from the ground-truth state after the last committed transaction —
/// i.e. exactly when the design under test fails the paper's
/// counter-atomicity requirement.
pub fn crash_check_cfg(
    spec: &WorkloadSpec,
    config: SimConfig,
    crash: CrashSpec,
    recovery_window: u64,
) -> Result<CrashCheckOutcome, ConsistencyError> {
    let ex = execute(spec, 0, spec.ops);
    let out = System::new(config.clone(), vec![ex.pm.trace().clone()]).run(crash);
    check_image(&ex, &out.image, &config, recovery_window)
}

/// The checking half of [`crash_check_cfg`]: runs the full recovery
/// protocol, integrity oracle included, against *one* NVMM image left
/// by a run under `config` — a simulated run's single filtered journal
/// or a hand-forged image — for an already-executed workload, recovering
/// with the logging mechanism `ex` was executed under.
///
/// Splitting this from the simulation lets a caller judge images it
/// simulated or forged itself against one execution.
///
/// # Errors
///
/// Returns a [`ConsistencyError`] exactly as [`crash_check_cfg`] does:
/// when recovery reads a garbled line, a structural invariant fails, or
/// the recovered bytes deviate from the ground truth folded from `ex`.
pub fn check_image(
    ex: &Executed,
    image: &NvmmImage,
    config: &SimConfig,
    recovery_window: u64,
) -> Result<CrashCheckOutcome, ConsistencyError> {
    Checker::of(ex, config, recovery_window).check(image, &SetJudge::lone(image), None)
}

/// [`check_image`] over a crash sweep's images (as
/// [`nvmm_sim::breakpoint_images`] returns them), by one checker for the
/// whole sweep, so its engine memos stay warm from image to image.
/// Returns every crash instant's outcome, in order, or the first
/// failing instant and its error.
pub fn check_images(
    ex: &Executed,
    images: &[(Time, NvmmImage)],
    config: &SimConfig,
    recovery_window: u64,
) -> Result<Vec<(Time, CrashCheckOutcome)>, (Time, ConsistencyError)> {
    let checker = Checker::of(ex, config, recovery_window);
    images
        .iter()
        .map(|(t, image)| {
            let verdict = checker.check(image, &SetJudge::lone(image), None);
            verdict.map(|o| (*t, o)).map_err(|e| (*t, e))
        })
        .collect()
}

/// Everything a verdict reads besides the image: the execution it is
/// judged against, one warmed engine pair (clones share the OTP-pad and
/// MAC memos), the design named in errors, the integrity spec of the
/// full-pass oracle and the recovery window. Every image the harness
/// judges goes through [`Checker::check`]; a model-check worker keeps
/// one checker for every image it judges.
struct Checker<'e> {
    ex: &'e Executed,
    engine: EncryptionEngine,
    mac_engine: MacEngine,
    design: Design,
    integrity: IntegritySpec,
    recovery_window: u64,
}

impl<'e> Checker<'e> {
    fn new(
        ex: &'e Executed,
        key: [u8; 16],
        design: Design,
        integrity: IntegritySpec,
        recovery_window: u64,
    ) -> Self {
        Self {
            ex,
            engine: EncryptionEngine::new(key),
            mac_engine: MacEngine::new(key),
            design,
            integrity,
            recovery_window,
        }
    }

    /// The checker of the images a run under `config` leaves.
    fn of(ex: &'e Executed, config: &SimConfig, recovery_window: u64) -> Self {
        let integrity = IntegritySpec::from_config(config);
        Self::new(ex, config.key, config.design, integrity, recovery_window)
    }

    /// A recovery view of `image` under this checker's engine and window.
    fn recovered<'i>(&self, image: &'i NvmmImage) -> RecoveredMemory<'i> {
        RecoveredMemory::over(image, self.engine.clone()).with_recovery_window(self.recovery_window)
    }

    /// Judges `image`, an image of the crash set `judge` judges: the
    /// integrity oracle, recovery, the structure check, then replay
    /// equality. When the fused walk already judged integrity with a
    /// warm `DeltaVerifier`, its verdict arrives as `precomputed` and
    /// the full pass is skipped — the verdict (and so the wrapped error
    /// string) is bit-identical by the differential suite's guarantee.
    /// Lone images and minimization candidates pass `None`.
    fn check(
        &self,
        image: &NvmmImage,
        judge: &SetJudge,
        precomputed: Option<&Result<(), String>>,
    ) -> Result<CrashCheckOutcome, ConsistencyError> {
        let (ex, design) = (self.ex, self.design);
        // Integrity oracle first: before recovery touches anything, every
        // cleanly-decrypting line must authenticate against its persisted
        // MAC, and (under strict) every persisted tree node against its
        // persisted children.
        let full;
        let oracle = match precomputed {
            Some(v) => v,
            None => {
                full =
                    nvmm_sim::verify_image(image, self.integrity, &self.engine, &self.mac_engine);
                &full
            }
        };
        if let Err(err) = oracle {
            ensure!(
                false,
                "integrity oracle rejected the image under {design}: {err}"
            );
        }
        let mut mem = self.recovered(image);
        let report = ex.spec.mechanism.recover(&mut mem, &ex.log);
        ensure!(
            report.reads_clean,
            "recovery read garbled lines {:?} under {design}",
            mem.garbled_lines()
        );

        // A garbled read is named before its symptoms: the op counter
        // right after it is read, and the structure check's reads before
        // its own error.
        let committed = mem.read_u64(ex.ops_cell);
        ensure_clean_reads(&mem)?;
        let expected = ex.state_after(committed)?;
        if let Err(e) = ex.check_structure(&mut mem, committed) {
            ensure_clean_reads(&mem)?;
            return Err(e);
        }

        // Replay equality: recovered bytes must match the ground-truth state
        // after exactly `committed` operations, on every line that state
        // defines (the undo log region excepted — its lifecycle differs).
        judge.judge(self, &mut mem, committed, &expected)?;
        Ok(CrashCheckOutcome {
            committed,
            rolled_back: report.rolled_back,
        })
    }

    /// Model-checks `set` within `opts`' bounds on the calling thread:
    /// the fused walk enumerates its legal images and judges each one it
    /// retains in place, with the walk's integrity verdict and the set's
    /// one judge; a violation is then minimized.
    fn check_set(&self, set: &nvmm_sim::CrashSet, opts: &ModelCheckOpts) -> ModelCheckReport {
        let started = Instant::now();
        let eopts = nvmm_sim::EnumOpts {
            max_images: opts.max_images,
            seed: opts.seed,
        };
        let judge = SetJudge::new(set);
        // Each retained image is judged where the walk leaves it, with the
        // walk's integrity verdict; only a failing image's mask is kept.
        let mut judge_ns = 0u64;
        let (stats, judged, walk_verify_ns) = set.walk_verified(
            eopts,
            self.integrity,
            &self.engine,
            &self.mac_engine,
            |mask, image, oracle| {
                let t0 = Instant::now();
                let failure = self
                    .check(image, &judge, Some(oracle))
                    .err()
                    .map(|error| (mask.clone(), error));
                judge_ns += t0.elapsed().as_nanos() as u64;
                failure
            },
        );
        // Both oracles ran inside the walk; their shares make up the
        // verify term.
        let verify_wall_ns = walk_verify_ns + judge_ns;
        let enumerate_wall_ns =
            (started.elapsed().as_nanos() as u64).saturating_sub(verify_wall_ns);
        let images_checked = judged.len();
        // Result 0 is always the all-miss baseline.
        let baseline_violation = judged.first().is_some_and(Option::is_some);
        let mut violations = 0usize;
        let mut first_fail: Option<(nvmm_sim::LandMask, ConsistencyError)> = None;
        for failure in judged.into_iter().flatten() {
            violations += 1;
            first_fail.get_or_insert(failure);
        }
        let minimal = first_fail.map(|(mask, error)| self.minimize(set, &judge, mask, error));
        ModelCheckReport {
            stats,
            images_checked,
            violations,
            baseline_violation,
            minimal,
            mc_wall_ns: started.elapsed().as_nanos() as u64,
            sweep_wall_ns: 0,
            enumerate_wall_ns,
            verify_wall_ns,
        }
    }

    /// Greedy mask minimization: repeatedly step to a smaller *legal*
    /// mask (each candidate drops the last landed group of one
    /// serialization domain) while the image keeps failing, until no step
    /// fails. Every candidate is an image of `set`, so `judge` (the
    /// set's) serves them.
    fn minimize(
        &self,
        set: &nvmm_sim::CrashSet,
        judge: &SetJudge,
        mut mask: nvmm_sim::LandMask,
        mut error: ConsistencyError,
    ) -> MinimalViolation {
        let mut candidates = Vec::new();
        loop {
            set.shrink_candidates_into(&mask, &mut candidates);
            let failing = candidates.drain(..).find_map(|cand| {
                let verdict = self.check(&set.image(&cand), judge, None);
                verdict.err().map(|e| (cand, e))
            });
            let Some((cand, e)) = failing else { break };
            (mask, error) = (cand, e);
        }
        MinimalViolation {
            landed: mask.landed(),
            error,
        }
    }
}

/// Fails with the lines `mem`'s reads found garbled, if any.
fn ensure_clean_reads(mem: &RecoveredMemory) -> Result<(), ConsistencyError> {
    ensure!(
        mem.all_reads_clean(),
        "checker reads hit garbled lines {:?}",
        mem.garbled_lines()
    );
    Ok(())
}

/// The replay-equality judge for the images of one crash set.
///
/// Every image of a set is its base image with some in-flight cells
/// rewritten, and a line's decrypted read depends only on its own data,
/// co-located counter and counter-line cells. So a line outside
/// [`nvmm_sim::CrashSet::in_flight_lines`] reads in every image as it
/// reads in the base — unless the image's recovery restored it, when it
/// reads the restored bytes. The judge compares the base against the
/// ground truth once per committed count ([`BaseVerdict`]) and each image
/// only on its in-flight and restored lines; the verdict and its error
/// string equal those of a full compare in ascending line order. Its memo
/// is keyed by the committed count alone, so one judge serves one
/// [`Checker`], on the one thread that walks its set.
struct SetJudge<'s> {
    base: &'s NvmmImage,
    /// Sorted lines whose read can differ between the set's images.
    in_flight: Vec<LineAddr>,
    verdicts: RefCell<BTreeMap<u64, Rc<BaseVerdict>>>,
}

/// How the base image reads the ground truth after one committed count,
/// on the lines outside the log range and the in-flight lines.
struct BaseVerdict {
    /// Lines whose bytes differ from the ground truth, ascending.
    deviating: Vec<LineAddr>,
    /// Lines that decrypt garbled, ascending.
    garbled: Vec<LineAddr>,
}

impl<'s> SetJudge<'s> {
    /// The judge of `set`'s images.
    fn new(set: &'s nvmm_sim::CrashSet) -> Self {
        Self::with_lines(set.base(), set.in_flight_lines())
    }

    /// The judge of a lone image: the one-image set whose base it is.
    fn lone(image: &'s NvmmImage) -> Self {
        Self::with_lines(image, Vec::new())
    }

    fn with_lines(base: &'s NvmmImage, in_flight: Vec<LineAddr>) -> Self {
        Self {
            base,
            in_flight,
            verdicts: RefCell::new(BTreeMap::new()),
        }
    }

    /// The base image's [`BaseVerdict`] against `expected`, the state
    /// after `committed` ops, memoized by `committed`.
    fn base_verdict(
        &self,
        checker: &Checker,
        committed: u64,
        expected: &LineImage,
    ) -> Rc<BaseVerdict> {
        if let Some(v) = self.verdicts.borrow().get(&committed) {
            return Rc::clone(v);
        }
        let log = checker.ex.log_lines();
        let mut mem = checker.recovered(self.base);
        let mut deviating = Vec::new();
        let mut got = [0u8; 64];
        for (line, want) in expected {
            if log.contains(&line.0) || self.in_flight.binary_search(line).is_ok() {
                continue;
            }
            mem.read(line.byte_addr(), &mut got);
            if got != *want {
                deviating.push(*line);
            }
        }
        let verdict = Rc::new(BaseVerdict {
            deviating,
            garbled: mem.garbled_lines().iter().copied().collect(),
        });
        self.verdicts
            .borrow_mut()
            .insert(committed, Rc::clone(&verdict));
        verdict
    }

    /// Replay equality for one recovered image of the set: `mem` must
    /// read `expected`, the state after `committed` ops, on every line
    /// it defines outside the log. The first deviating line named is the
    /// smallest; with none, the garbled lines read are reported.
    fn judge(
        &self,
        checker: &Checker,
        mem: &mut RecoveredMemory,
        committed: u64,
        expected: &LineImage,
    ) -> Result<(), ConsistencyError> {
        let base = self.base_verdict(checker, committed, expected);
        let restored: Vec<LineAddr> = mem.restored_lines().collect();
        let unrestored = |l: &&LineAddr| restored.binary_search(l).is_err();
        let mut deviation = base.deviating.iter().find(unrestored).copied();
        // The lines this image may read unlike the base, ascending.
        let mut own: Vec<LineAddr> = self.in_flight.iter().chain(&restored).copied().collect();
        own.sort_unstable();
        own.dedup();
        let log = checker.ex.log_lines();
        let mut got = [0u8; 64];
        for line in own {
            if deviation.is_some_and(|d| d < line) {
                break;
            }
            if log.contains(&line.0) {
                continue;
            }
            let Ok(i) = expected.binary_search_by_key(&line, |&(l, _)| l) else {
                continue;
            };
            mem.read(line.byte_addr(), &mut got);
            if got != expected[i].1 {
                deviation = Some(line);
                break;
            }
        }
        if let Some(line) = deviation {
            ensure!(
                false,
                "line {line} deviates from the state after {committed} committed ops"
            );
        }
        let mut garbled: BTreeSet<LineAddr> = mem.garbled_lines().clone();
        garbled.extend(base.garbled.iter().filter(unrestored));
        ensure!(
            garbled.is_empty(),
            "checker reads hit garbled lines {:?}",
            garbled
        );
        Ok(())
    }
}

/// Bounds for one adversarial model-check run. An injected
/// positive-control bug belongs to the configuration
/// ([`SimConfig::fault`]), not to these options.
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
}

impl Default for ModelCheckOpts {
    fn default() -> Self {
        Self {
            max_images: 128,
            seed: 0xadc0_ffee,
            recovery_window: 0,
        }
    }
}

/// `spec` executed once on core 0, and its run under `config` replayed
/// once ([`CrashSweep::one_core`]): what every crash-instant discovery
/// and model check of the run reads.
struct Swept {
    ex: Executed,
    /// The instant after the setup events. Crash sweeps start there: the
    /// checkers deliberately do not model a crash before the structure
    /// exists.
    setup_end: Time,
    sweep: CrashSweep,
    /// Wall-clock nanoseconds of the execution and the replay.
    wall_ns: u64,
}

impl Swept {
    fn new(spec: &WorkloadSpec, config: &SimConfig) -> Self {
        let started = Instant::now();
        let ex = execute(spec, 0, spec.ops);
        let (setup_end, sweep) = CrashSweep::one_core(config, ex.pm.trace(), ex.setup_events);
        Self {
            ex,
            setup_end,
            sweep,
            wall_ns: started.elapsed().as_nanos() as u64,
        }
    }
}

/// Crash instants at which at least one write is observably in flight,
/// harvested from the persist windows (journal records guaranteed after
/// their submission) of one replay under `config`: the midpoint of each
/// post-setup window, deduplicated and evenly thinned to at most `limit`
/// ([`CrashSweep::window_midpoints`]). Event-aligned crash points almost
/// always fall outside the in-flight windows (the core clock trails the
/// controller pipeline), so these are the instants where adversarial
/// enumeration actually has choices to explore; feed them to
/// [`model_check_instants_cfg`]. A design whose writes never wait in
/// flight yields none; [`model_check_breakpoints`] covers every crash
/// state regardless. `_opts` is unused (an injected bug is
/// `config.fault`); it stays while the benchmark passes it.
pub fn crash_instants_cfg(
    spec: &WorkloadSpec,
    config: SimConfig,
    _opts: &ModelCheckOpts,
    limit: usize,
) -> Vec<Time> {
    let swept = Swept::new(spec, &config);
    swept.sweep.window_midpoints(swept.setup_end, limit)
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
    /// Whether the all-miss baseline (the image [`crash_check_cfg`]
    /// would test) is itself a violation.
    pub baseline_violation: bool,
    /// Greedily minimized failing landing-set, when any image violated.
    pub minimal: Option<MinimalViolation>,
    /// Wall-clock nanoseconds spent checking this crash instant: the
    /// crash cursor's advance to it (the journal records new since the
    /// worker's previous instant, one write per base cell they changed,
    /// the in-flight set, one clone of the base image), the fused walk
    /// with both oracles inside it, and witness minimization.
    /// The shared simulation is not included — it is
    /// [`ModelCheckReport::sweep_wall_ns`].
    /// Telemetry only: it is deliberately ignored by `PartialEq`, so
    /// determinism assertions comparing two reports still hold.
    pub mc_wall_ns: u64,
    /// Wall-clock nanoseconds of the one execution + crash-sweep
    /// simulation that every report of one [`model_check_instants_cfg`]
    /// or [`model_check_breakpoints`] call shares (the same value on
    /// each); 0 when no sweep ran.
    /// Telemetry only, ignored by `PartialEq`.
    pub sweep_wall_ns: u64,
    /// Wall-clock nanoseconds of the enumeration phase: the fused walk
    /// (schedule decode, overlay moves, fingerprint dedupe) and its
    /// judge's set-up, net of [`ModelCheckReport::verify_wall_ns`] — the
    /// walk minus its oracles. Telemetry only, ignored by `PartialEq`
    /// like [`ModelCheckReport::mc_wall_ns`].
    pub enumerate_wall_ns: u64,
    /// Wall-clock nanoseconds of the verification phase: the two oracles
    /// the fused walk runs on each retained image, the delta integrity
    /// verifier and the recovery judge (recovery replay, structure check
    /// and replay equality), each timed inside the walk. Witness
    /// minimization is not included. Telemetry only, ignored by
    /// `PartialEq`.
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

/// Model-checks one crash point under `config`: enumerates every
/// ADR-legal post-crash image within `opts`' bounds and runs the full
/// recovery protocol over each. Where [`crash_check_cfg`] samples the
/// single pessimistic image, this is the paper's universal claim made
/// executable: *no* legal image may fail recovery. It is the
/// one-instant [`model_check_instants_cfg`], so its crash set is walked
/// and judged on the calling thread; [`CrashSpec::None`] is an instant
/// after completion, whose one image is the completed run's.
pub fn model_check_cfg(
    spec: &WorkloadSpec,
    config: SimConfig,
    crash: CrashSpec,
    opts: &ModelCheckOpts,
) -> ModelCheckReport {
    let t = match crash {
        CrashSpec::AtTime(t) => t,
        CrashSpec::None => Time(u64::MAX),
    };
    model_check_instants_cfg(spec, config, &[t], opts)
        .pop()
        .expect("one report per instant")
}

/// Model-checks `spec` under `config` at every crash instant in
/// `instants` with one simulation: the workload executes once, one
/// un-paused replay keeps the run's journals ([`CrashSweep::one_core`]),
/// and the sorted instants split into contiguous runs over
/// [`mc_threads`] scoped workers, each advancing one crash cursor
/// through its run and walking and judging each crash set on its own
/// thread. The reports come back in instant order and are bit-identical
/// to simulating and checking the instants one by one — whatever
/// `NVMM_MC_THREADS` says.
pub fn model_check_instants_cfg(
    spec: &WorkloadSpec,
    config: SimConfig,
    instants: &[Time],
    opts: &ModelCheckOpts,
) -> Vec<ModelCheckReport> {
    let swept = Swept::new(spec, &config);
    sweep_check(&swept, &config, instants, opts, mc_threads())
}

/// Model-checks every post-setup crash state of `spec` under `config`:
/// [`model_check_chosen`] at each breakpoint of the run from its setup
/// boundary on ([`CrashSweep::breakpoints`]), in time order.
pub fn model_check_breakpoints(
    spec: &WorkloadSpec,
    config: SimConfig,
    opts: &ModelCheckOpts,
) -> Vec<(Time, ModelCheckReport)> {
    model_check_chosen(spec, config, opts, CrashSweep::breakpoints)
}

/// [`model_check_instants_cfg`] at the instants `choose` picks from the
/// run's own sweep and the instant after its setup events (say,
/// [`CrashSweep::window_midpoints`] or [`CrashSweep::breakpoints`] from
/// there), each report paired with its instant, in `choose`'s order.
/// The instants and every crash set come from one execution and one
/// replay.
pub fn model_check_chosen(
    spec: &WorkloadSpec,
    config: SimConfig,
    opts: &ModelCheckOpts,
    choose: impl FnOnce(&CrashSweep, Time) -> Vec<Time>,
) -> Vec<(Time, ModelCheckReport)> {
    let swept = Swept::new(spec, &config);
    let instants = choose(&swept.sweep, swept.setup_end);
    let reports = sweep_check(&swept, &config, &instants, opts, mc_threads());
    instants.into_iter().zip(reports).collect()
}

/// The body of the model checks: `swept`'s crash sets at `instants`,
/// sorted, in up to `workers` contiguous runs on as many threads. A
/// worker advances one [`nvmm_sim::SweepCursor`] through its run, so
/// each crash set costs the journal records new since the previous
/// instant rather than the whole journal before it, and it judges every
/// image with one [`Checker`]. At most `workers` crash sets are alive at
/// once; reports come back in the caller's order.
fn sweep_check(
    swept: &Swept,
    config: &SimConfig,
    instants: &[Time],
    opts: &ModelCheckOpts,
    workers: usize,
) -> Vec<ModelCheckReport> {
    let mut order: Vec<usize> = (0..instants.len()).collect();
    order.sort_by_key(|&i| instants[i]);
    let runs = chunk_ranges(order.len(), workers);
    let checked = run_parallel(workers, &runs, |&(start, end)| {
        let mut cursor = swept.sweep.cursor();
        let checker = Checker::of(&swept.ex, config, opts.recovery_window);
        order[start..end]
            .iter()
            .map(|&i| {
                let started = Instant::now();
                let set = cursor.crash_set(instants[i]);
                let mut report = checker.check_set(&set, opts);
                report.mc_wall_ns = started.elapsed().as_nanos() as u64;
                report.sweep_wall_ns = swept.wall_ns;
                (i, report)
            })
            .collect::<Vec<_>>()
    });
    // Each instant is checked once: its index restores the caller's order.
    let mut checked: Vec<_> = checked.into_iter().flatten().collect();
    checked.sort_unstable_by_key(|&(i, _)| i);
    checked.into_iter().map(|(_, report)| report).collect()
}

/// The checking half of [`model_check_cfg`]: verifies an
/// already-captured crash state against an already-executed workload.
/// Split out so a caller holding a crash set it captured itself — from
/// a crash run or a [`nvmm_sim::SweepCursor`] step — can judge it
/// against one execution. The fused walk and the judge of every image
/// it retains run on the calling thread. `ex` must be the execution of
/// `spec`: recovery runs its logging mechanism.
pub fn check_crash_set(
    spec: &WorkloadSpec,
    ex: &Executed,
    set: &nvmm_sim::CrashSet,
    key: [u8; 16],
    design: Design,
    integrity: IntegritySpec,
    opts: &ModelCheckOpts,
) -> ModelCheckReport {
    debug_assert_eq!(*spec, ex.spec, "`ex` was executed from another spec");
    let checker = Checker::new(ex, key, design, integrity, opts.recovery_window);
    checker.check_set(set, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm_sim::system::instant_after_events;

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
            let o = crash_check_cfg(
                &spec,
                SimConfig::single_core(Design::Sca),
                CrashSpec::None,
                0,
            )
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(o.committed, 6);
            assert!(!o.rolled_back);
        }
    }

    /// The report of a run that completed before its crash, as the
    /// checker judged it before such instants went through
    /// `Checker::check_set`: exactly one legal image, judged alone by
    /// `check_image`.
    fn completed_report(
        ex: &Executed,
        cfg: &SimConfig,
        image: &NvmmImage,
        opts: &ModelCheckOpts,
    ) -> ModelCheckReport {
        let verdict = check_image(ex, image, cfg, opts.recovery_window);
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

    /// Splitting the sorted instants into cursor runs is invisible in
    /// the reports: `sweep_check` at 1, 2, 3 and 5 runs over unsorted,
    /// duplicated instants (one at time zero, one after completion)
    /// equals simulating and checking every instant on its own, under
    /// SCA+strict with and without the injected tree bug. And
    /// `model_check_breakpoints` equals `model_check_instants_cfg` over
    /// the breakpoints of the same execution's sweep
    /// (`CrashSweep::one_core`), each report paired with its instant.
    #[test]
    fn sweep_check_runs_match_per_instant_checks() {
        use nvmm_sim::{Fault, IntegrityPolicy};
        let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(3);
        let opts = ModelCheckOpts {
            max_images: 16,
            ..ModelCheckOpts::default()
        };
        let strict = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
        let mut witnesses = 0;
        for cfg in [strict.clone(), strict.with_fault(Fault::TreeParentFirst)] {
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
                        None => completed_report(&ex, &cfg, &out.image, &opts),
                    }
                })
                .collect();
            let swept = Swept::new(&spec, &cfg);
            for workers in [1, 2, 3, 5] {
                let reports = sweep_check(&swept, &cfg, &instants, &opts, workers);
                assert_eq!(reports, oracle, "{workers} runs");
            }
            witnesses += oracle.iter().filter(|r| r.minimal.is_some()).count();
            let (from, sweep) = CrashSweep::one_core(&cfg, ex.pm.trace(), ex.setup_events);
            let points = sweep.breakpoints(from);
            let reports = model_check_instants_cfg(&spec, cfg.clone(), &points, &opts);
            let paired: Vec<(Time, ModelCheckReport)> = points.into_iter().zip(reports).collect();
            assert_eq!(model_check_breakpoints(&spec, cfg, &opts), paired);
        }
        assert!(witnesses > 0, "the tree bug never produced a witness");
    }

    /// The judge runs inside the fused walk: under SCA + strict, with
    /// and without the injected tree bug, `Checker::check_set`'s image,
    /// violation and baseline counts equal a per-image `check_image`
    /// recount over the reference `CrashSet::enumerate`. A 16-mask
    /// sample of a large legal space repeats fingerprints, so the walk
    /// meets images it already judged.
    #[test]
    fn in_walk_judge_matches_per_image_recount() {
        use nvmm_sim::{Fault, IntegrityPolicy};
        let spec = WorkloadSpec::smoke(WorkloadKind::HashTable)
            .with_ops(8)
            .with_payload_lines(24);
        let opts = ModelCheckOpts {
            max_images: 16,
            ..ModelCheckOpts::default()
        };
        let eopts = nvmm_sim::EnumOpts {
            max_images: opts.max_images,
            seed: opts.seed,
        };
        let ex = execute(&spec, 0, spec.ops);
        let strict = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
        let (mut sets, mut deduped, mut witnesses) = (0, 0, 0);
        for cfg in [strict.clone(), strict.with_fault(Fault::TreeParentFirst)] {
            let checker = Checker::of(&ex, &cfg, opts.recovery_window);
            let instants = crash_instants_cfg(&spec, cfg.clone(), &opts, 12);
            let sweep = System::new(cfg.clone(), vec![ex.pm.trace().clone()]).run_crash_sweep();
            let mut cursor = sweep.cursor();
            let crash_sets = instants.iter().map(|&t| cursor.crash_set(t));
            for set in crash_sets.filter(|set| set.legal_images() > 16) {
                let report = checker.check_set(&set, &opts);
                let t = set.crash_time();
                let fresh: Vec<_> = set
                    .enumerate(eopts)
                    .images
                    .iter()
                    .map(|(_, img)| check_image(&ex, img, &cfg, opts.recovery_window))
                    .collect();
                assert_eq!(report.images_checked, fresh.len(), "at {t}");
                assert_eq!(
                    report.violations,
                    fresh.iter().filter(|v| v.is_err()).count(),
                    "at {t}"
                );
                assert_eq!(report.baseline_violation, fresh[0].is_err(), "at {t}");
                sets += 1;
                deduped += report.stats.images_deduped;
                witnesses += usize::from(report.minimal.is_some());
            }
        }
        assert!(sets > 0, "no crash set with a large legal space");
        assert!(deduped > 0, "no sampled fingerprint repeated");
        assert!(witnesses > 0, "the tree bug never produced a witness");
    }

    /// The full compare the set judge replaced, kept as its oracle:
    /// recover a copy of the image and compare every ground-truth line
    /// outside the log, in ascending line order. It reads only the
    /// checker's inputs, none of its judging.
    fn check_image_full(
        checker: &Checker,
        image: &NvmmImage,
        oracle: &Result<(), String>,
    ) -> Result<CrashCheckOutcome, ConsistencyError> {
        let Checker { ex, design, .. } = checker;
        if let Err(err) = oracle {
            ensure!(
                false,
                "integrity oracle rejected the image under {design}: {err}"
            );
        }
        let mut mem = RecoveredMemory::with_engine(image.clone(), checker.engine.clone())
            .with_recovery_window(checker.recovery_window);
        let report = ex.spec.mechanism.recover(&mut mem, &ex.log);
        ensure!(
            report.reads_clean,
            "recovery read garbled lines {:?} under {design}",
            mem.garbled_lines()
        );
        let committed = mem.read_u64(ex.ops_cell);
        ensure_clean_reads(&mem)?;
        let expected = ex.state_after(committed)?;
        if let Err(e) = ex.check_structure(&mut mem, committed) {
            ensure_clean_reads(&mem)?;
            return Err(e);
        }
        compare_full(&mut mem, committed, &expected, &ex.log_lines())?;
        Ok(CrashCheckOutcome {
            committed,
            rolled_back: report.rolled_back,
        })
    }

    /// Replay equality the way the judge's predecessor checked it: read
    /// every ground-truth line outside the log, ascending.
    fn compare_full(
        mem: &mut RecoveredMemory,
        committed: u64,
        expected: &LineImage,
        log: &Range<u64>,
    ) -> Result<(), ConsistencyError> {
        for (line, want) in expected {
            if log.contains(&line.0) {
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
        Ok(())
    }

    /// The judge's bookkeeping on synthetic images, over a seeded sweep:
    /// a base whose lines are unwritten, clean, garbled by a stale
    /// counter or garbled with no data; an image that re-draws some
    /// lines (and so every line of their counter lines, which join the
    /// in-flight lines); restores over random lines; structure-check
    /// reads; and a ground truth that matches or misses each line's read
    /// on lines straddling the log's end. The judge must return the
    /// full compare's verdict and error string every time — including
    /// the garbled-read verdict, which real crash sets rarely reach.
    #[test]
    fn set_judge_matches_full_compare_on_synthetic_images() {
        use nvmm_crypto::counter::{Counter, CounterLine};
        use nvmm_sim::addr::CounterLineAddr;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let ex = execute(&WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(1), 0, 1);
        let log = ex.log_lines();
        let lines: Vec<LineAddr> = (log.end - 12..log.end + 36).map(LineAddr).collect();
        let mut cfg = SimConfig::single_core(Design::Sca);
        cfg.key = [3; 16];
        let checker = Checker::of(&ex, &cfg, 0);
        let engine = &checker.engine;
        // One random line state: data (none, or ciphertext under a
        // counter) and the counter its slot persists; a state garbles
        // with probability `g`.
        let draw = |rng: &mut StdRng, g: f64| -> (Option<(LineData, u64)>, u64) {
            let ctr = rng.gen_range(1..4u64);
            let data = Some(([rng.gen::<u8>(); 64], ctr));
            match (rng.gen_bool(g), rng.gen_bool(0.5)) {
                (true, true) => (None, ctr),
                (true, false) => (data, ctr - 1),
                (false, true) => (None, 0),
                (false, false) => (data, ctr),
            }
        };
        let build = |states: &[(Option<(LineData, u64)>, u64)]| {
            let mut img = NvmmImage::new();
            let mut counters: BTreeMap<u64, CounterLine> = BTreeMap::new();
            for (&l, (data, persisted)) in lines.iter().zip(states) {
                if let Some((ct, ctr)) = data {
                    img.write_encrypted(l, *ct, Counter(*ctr));
                }
                let slot = l.counter_slot();
                counters
                    .entry(slot.counter_line)
                    .or_default()
                    .set(slot.slot, Counter(*persisted));
            }
            for (c, cl) in counters {
                img.write_counter_line(CounterLineAddr(c), cl);
            }
            img
        };
        let (mut deviations, mut garbled, mut clean) = (0, 0, 0);
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = [0.0, 0.01, 0.1][seed as usize % 3];
            let base_states: Vec<_> = lines.iter().map(|_| draw(&mut rng, g)).collect();
            let mut states = base_states.clone();
            let mut moved = BTreeSet::new();
            for (i, l) in lines.iter().enumerate() {
                if rng.gen_bool(0.1) {
                    states[i] = draw(&mut rng, g);
                    moved.extend(
                        lines
                            .iter()
                            .filter(|m| m.counter_line() == l.counter_line()),
                    );
                }
            }
            let (base, image) = (build(&base_states), build(&states));
            let judge = SetJudge::with_lines(&base, moved.into_iter().collect());
            let mut restores: Vec<(LineAddr, LineData)> = Vec::new();
            for &l in &lines {
                if rng.gen_bool(0.15) {
                    restores.push((l, [rng.gen::<u8>(); 64]));
                }
            }
            let probes: Vec<LineAddr> = lines
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.05))
                .collect();
            let view = || {
                let mut mem = RecoveredMemory::over(&image, engine.clone());
                for (l, d) in &restores {
                    mem.write(l.byte_addr(), d);
                }
                mem
            };
            // A ground truth that each line's read matches, or misses.
            let miss = rng.gen_range(0..4) as f64 / 40.0;
            let mut reader = view();
            let expected: LineImage = lines
                .iter()
                .filter_map(|&l| {
                    let mut want = [0u8; 64];
                    reader.read(l.byte_addr(), &mut want);
                    want[7] ^= rng.gen_bool(miss) as u8;
                    rng.gen_bool(0.7).then_some((l, want))
                })
                .collect();
            let [mut delta, mut full] = [view(), view()];
            for mem in [&mut delta, &mut full] {
                for l in &probes {
                    mem.read_u64(l.byte_addr());
                }
            }
            let got = judge.judge(&checker, &mut delta, 3, &expected);
            let want = compare_full(&mut full, 3, &expected, &log);
            assert_eq!(got, want, "seed {seed}");
            match want {
                Ok(()) => clean += 1,
                Err(e) if e.0.contains("deviates") => deviations += 1,
                Err(_) => garbled += 1,
            }
        }
        assert!(
            clean > 20 && deviations > 20 && garbled > 20,
            "{clean}/{deviations}/{garbled}"
        );
    }

    /// What recovery leaves `image` reading: its restored lines, and
    /// its bytes on `lines`.
    fn recovered_reads(
        checker: &Checker,
        image: &NvmmImage,
        lines: &[LineAddr],
    ) -> (Vec<LineAddr>, Vec<LineData>) {
        let mut mem = checker.recovered(image);
        let ex = checker.ex;
        ex.spec.mechanism.recover(&mut mem, &ex.log);
        let reads = lines
            .iter()
            .map(|l| {
                let mut got = [0u8; 64];
                mem.read(l.byte_addr(), &mut got);
                got
            })
            .collect();
        (mem.restored_lines().collect(), reads)
    }

    /// The ground-truth fold is the functional memory re-execution
    /// leaves: for every kind, both cores, several seeds and both
    /// logging mechanisms, the fold after `k` ops equals the image of
    /// `execute(spec, core, k)` for every `k` in `0..=ops`; one op start
    /// is recorded per op executed; and a count past the ops executed is
    /// a `ConsistencyError`, not an out-of-range index.
    #[test]
    fn ground_truth_fold_equals_re_execution() {
        use nvmm_core::txn::Mechanism;
        for kind in WorkloadKind::ALL {
            for (seed, mechanism) in [
                (1, Mechanism::UndoLog),
                (7, Mechanism::UndoLog),
                (0xdead, Mechanism::RedoLog),
            ] {
                let spec = WorkloadSpec::smoke(kind)
                    .with_ops(10)
                    .with_seed(seed)
                    .with_mechanism(mechanism);
                for core in [0, 1] {
                    let ex = execute(&spec, core, spec.ops);
                    assert_eq!(ex.ops(), spec.ops, "{kind} core {core}");
                    assert_eq!(ex.op_starts[0], ex.setup_events, "{kind} core {core}");
                    for k in 0..=spec.ops {
                        let prefix = execute(&spec, core, k);
                        assert_eq!(prefix.op_starts, ex.op_starts[..k], "{kind}/{core}/{k}");
                        let trace = prefix.pm.trace();
                        assert!(
                            trace.iter().eq(ex.pm.trace().iter().take(trace.len())),
                            "{kind} core {core}: the {k}-op trace is a prefix"
                        );
                        let mut want: LineImage = prefix.pm.into_parts().1.into_iter().collect();
                        want.sort_unstable_by_key(|&(l, _)| l);
                        let got = ex.state_after(k as u64).expect("within the ops executed");
                        assert!(
                            *got == want,
                            "{kind} seed {seed} core {core}: fold after {k}"
                        );
                    }
                    let past = spec.ops as u64 + 1;
                    assert_eq!(
                        ex.state_after(past).err(),
                        Some(ConsistencyError(format!(
                            "recovered op counter {past} exceeds issued ops {}",
                            spec.ops
                        )))
                    );
                }
            }
        }
    }

    /// A crash image's op counter is crash-controlled: judged against an
    /// execution of fewer ops than the image committed, the check fails
    /// with a `ConsistencyError` instead of indexing past the op starts.
    #[test]
    fn committed_count_past_the_execution_is_an_error() {
        let spec = WorkloadSpec::smoke(WorkloadKind::Queue);
        let full = execute(&spec, 0, spec.ops);
        let cfg = SimConfig::single_core(Design::Sca);
        let out = System::new(cfg.clone(), vec![full.pm.trace().clone()]).run(CrashSpec::None);
        let short = execute(&spec, 0, 4);
        let err = check_image(&short, &out.image, &cfg, 0).unwrap_err();
        assert_eq!(
            err.0,
            format!("recovered op counter {} exceeds issued ops 4", spec.ops)
        );
    }

    /// The ground truth follows the execution's core: correct SCA runs
    /// on core 1 pass, crash-free and at a mid-run crash, for every kind.
    #[test]
    fn core_one_runs_pass_the_recovery_oracle() {
        for kind in WorkloadKind::ALL {
            let spec = WorkloadSpec::smoke(kind).with_ops(8);
            let ex = execute(&spec, 1, spec.ops);
            let cfg = SimConfig::single_core(Design::Sca);
            let total = ex.pm.trace().len();
            let mid = ex.setup_events + (total - ex.setup_events) / 2;
            let at = instant_after_events(&cfg, ex.pm.trace(), mid + 1);
            for crash in [CrashSpec::None, CrashSpec::AtTime(at)] {
                let out = System::new(cfg.clone(), vec![ex.pm.trace().clone()]).run(crash);
                check_image(&ex, &out.image, &cfg, 0)
                    .unwrap_or_else(|e| panic!("{kind} core 1, {crash:?}: {e}"));
            }
        }
    }

    /// With several deviating lines the error names the lowest, and the
    /// string is the same for every fresh execution.
    #[test]
    fn several_deviating_lines_name_the_lowest_every_time() {
        let spec = WorkloadSpec::smoke(WorkloadKind::HashTable);
        let cfg = SimConfig::single_core(Design::Sca);
        // Payload slots follow the op-counter cell, one line per op, and
        // only replay equality reads them.
        let payload = |ex: &Executed, op: u64| LineAddr(ex.ops_cell.line().0 + 1 + op);
        let errors: Vec<String> = (0..4)
            .map(|_| {
                let ex = execute(&spec, 0, spec.ops);
                let mut out =
                    System::new(cfg.clone(), vec![ex.pm.trace().clone()]).run(CrashSpec::None);
                for op in [9, 2, 5, 11] {
                    out.image.write_plain(payload(&ex, op), [0xee; 64]);
                }
                let err = check_image(&ex, &out.image, &cfg, 0).unwrap_err();
                assert_eq!(
                    err.0,
                    format!(
                        "line {} deviates from the state after {} committed ops",
                        payload(&ex, 2),
                        spec.ops
                    )
                );
                err.0
            })
            .collect();
        assert!(errors.windows(2).all(|w| w[0] == w[1]));
    }

    /// The crash sets a differential test judges for `cfg`: one per
    /// in-flight instant (up to eight) and one after each of four evenly
    /// spaced post-setup events, so designs without in-flight windows
    /// contribute their single-image sets too.
    fn sample_crash_sets(
        spec: &WorkloadSpec,
        ex: &Executed,
        cfg: &SimConfig,
        opts: &ModelCheckOpts,
    ) -> Vec<nvmm_sim::CrashSet> {
        let trace = ex.pm.trace();
        let (start, total) = (ex.setup_events, trace.len());
        let mut instants = crash_instants_cfg(spec, cfg.clone(), opts, 8);
        instants.extend((1..=4).map(|k| {
            let at = start + (total - start) * k / 5;
            instant_after_events(cfg, trace, at + 1)
        }));
        let sweep = System::new(cfg.clone(), vec![trace.clone()]).run_crash_sweep();
        instants.into_iter().map(|t| sweep.crash_set(t)).collect()
    }

    /// The delta judge is the full sorted compare: on every enumerated
    /// image of real crash sets — five kinds under SCA + strict, SCA
    /// without its counter write-backs, the unsafe design, SCA with
    /// stop-loss and a recovery window, and SCA with one-entry write
    /// queues — both return the same Ok/Err
    /// and the same error string. Besides the true ground truth, each
    /// set is judged against ground truths with lines flipped: spread
    /// evenly, on the in-flight lines, off them, on lines recovery
    /// restores, and on the log. One more per image replaces the ground
    /// truth after every count with what that image's recovery reads on
    /// every line the execution writes, so the image reaches the
    /// garbled-read check whenever its recovery and structure pass.
    #[test]
    fn set_judge_matches_full_sorted_compare() {
        use nvmm_sim::{Fault, IntegrityPolicy};
        let mut stop_loss = SimConfig::single_core(Design::Sca);
        stop_loss.stop_loss = Some(4);
        // One-entry write queues keep counter write-backs in flight while
        // the data lines they cover sit guaranteed — the only way a
        // counter-line write outside the log moves a read here.
        let mut narrow_queues = SimConfig::single_core(Design::Sca);
        narrow_queues.data_write_queue_entries = 1;
        narrow_queues.counter_write_queue_entries = 1;
        let configs = [
            (
                SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict),
                0,
            ),
            (
                SimConfig::single_core(Design::Sca).with_fault(Fault::MissingCounterWritebacks),
                0,
            ),
            (SimConfig::single_core(Design::UnsafeNoAtomicity), 0),
            (stop_loss, 4),
            (narrow_queues, 0),
        ];
        /// A ground truth derived from the true one.
        type Variant<'v> = Box<dyn Fn(&LineImage) -> LineImage + 'v>;
        /// The ground truth with the lines `pick` names flipped.
        fn flipped<'p>(
            pick: impl Fn(usize, LineAddr) -> bool + 'p,
        ) -> impl Fn(&LineImage) -> LineImage + 'p {
            move |truth| {
                let mut truth = truth.clone();
                for (i, (l, d)) in truth.iter_mut().enumerate() {
                    if pick(i, *l) {
                        d[0] ^= 0x5a;
                    }
                }
                truth
            }
        }
        let (mut checked, mut deviations, mut garbled) = (0usize, 0usize, 0usize);
        for kind in WorkloadKind::ALL {
            let spec = WorkloadSpec::smoke(kind).with_ops(6).with_payload_lines(4);
            let ex = execute(&spec, 0, spec.ops);
            let truths: Vec<Arc<LineImage>> = (0..=spec.ops as u64)
                .map(|c| ex.state_after(c).expect("within the ops executed"))
                .collect();
            let written: Vec<LineAddr> = truths[spec.ops].iter().map(|&(l, _)| l).collect();
            let log = ex.log_lines();
            for (cfg, window) in &configs {
                let opts = ModelCheckOpts {
                    max_images: 64,
                    recovery_window: *window,
                    ..ModelCheckOpts::default()
                };
                let integrity = IntegritySpec::from_config(cfg);
                let checker = Checker::of(&ex, cfg, *window);
                let engine = &checker.engine;
                for set in sample_crash_sets(&spec, &ex, cfg, &opts) {
                    let images: Vec<NvmmImage> = set
                        .enumerate(nvmm_sim::EnumOpts {
                            max_images: opts.max_images,
                            seed: opts.seed,
                        })
                        .images
                        .into_iter()
                        .map(|(_, img)| img)
                        .collect();
                    let oracles: Vec<Result<(), String>> = images
                        .iter()
                        .map(|img| {
                            nvmm_sim::verify_image(img, integrity, engine, &checker.mac_engine)
                        })
                        .collect();
                    let in_flight = set.in_flight_lines();
                    let reads: Vec<_> = images
                        .iter()
                        .map(|img| recovered_reads(&checker, img, &written))
                        .collect();
                    let mut restored: Vec<LineAddr> =
                        reads.iter().flat_map(|(r, _)| r.iter().copied()).collect();
                    restored.sort_unstable();
                    restored.dedup();
                    let copy = |j: usize| -> LineImage {
                        written
                            .iter()
                            .zip(&reads[j].1)
                            .map(|(&l, &d)| (l, d))
                            .collect()
                    };
                    let mut variants: Vec<Variant> = vec![
                        Box::new(|t: &LineImage| t.clone()),
                        Box::new(flipped(|i, _| i % 7 == 3)),
                        Box::new(flipped(|i, _| i % 41 == 0)),
                        Box::new(flipped(|_, l| in_flight.binary_search(&l).is_ok())),
                        Box::new(flipped(|_, l| {
                            l.0 % 3 == 0
                                && !log.contains(&l.0)
                                && in_flight.binary_search(&l).is_err()
                        })),
                        Box::new(flipped(|_, l| restored.binary_search(&l).is_ok())),
                        Box::new(flipped(|_, l| log.contains(&l.0))),
                    ];
                    for j in 0..images.len() {
                        variants.push(Box::new(move |_: &LineImage| copy(j)));
                    }
                    for variant in &variants {
                        // A fresh execution whose memo holds the variant.
                        let judged = execute(&spec, 0, spec.ops);
                        for (c, truth) in truths.iter().enumerate() {
                            let truth = Arc::new(variant(truth));
                            judged.truth.lock().insert(c as u64, truth);
                        }
                        // The warm engines, judging the fresh execution.
                        let checker = Checker {
                            ex: &judged,
                            engine: checker.engine.clone(),
                            mac_engine: checker.mac_engine.clone(),
                            ..checker
                        };
                        let judge = SetJudge::new(&set);
                        for (img, oracle) in images.iter().zip(&oracles) {
                            let delta = checker.check(img, &judge, Some(oracle));
                            let full = check_image_full(&checker, img, oracle);
                            assert_eq!(delta, full, "{kind} under {}", cfg.design);
                            checked += 1;
                            match &full {
                                Err(e) if e.0.contains("deviates") => deviations += 1,
                                Err(e) if e.0.starts_with("checker reads hit garbled") => {
                                    garbled += 1
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 1000, "only {checked} verdicts compared");
        assert!(deviations > 100, "only {deviations} deviation verdicts");
        assert!(garbled > 0, "no verdict reached the garbled-read check");
    }

    #[test]
    fn run_timed_produces_stats() {
        let spec = WorkloadSpec::smoke(WorkloadKind::Queue);
        let out = run_timed(&spec, Design::Sca, 1);
        assert_eq!(out.stats.transactions_committed, spec.ops as u64);
        assert!(out.stats.nvmm_data_writes > 0);
    }
}
