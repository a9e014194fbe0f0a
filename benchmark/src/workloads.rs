//! The four benchmark workloads: how each makes its inputs from the seed
//! (`setup`) and runs one repetition over them (`rep`).
//!
//! * `replay_closed` — the paper's evaluation (Figs. 12–14): five data
//!   structures, closed loop, SCA on the Table 2 machine. It exercises
//!   the front end, caches, counter cache, write-queue pairing, device
//!   and crypto, and bypasses integrity, the crash checker, arrival
//!   gates and journal compaction.
//! * `service_stream` — open-loop bursty arrivals streamed from a
//!   generator into two shards under strict integrity with batched
//!   journal compaction: the only replay path through streamed ingest,
//!   queueing, the sharded journal merge and the integrity controller.
//! * `mc_clean` — the production crash model check (SCA + strict) on a
//!   correct design: every enumerated image must recover.
//! * `mc_bughunt` — the same check with the injected parent-first tree
//!   bug: nearly every image violates, so the recovery oracle is mostly
//!   skipped and witness minimization runs instead.

use crate::spans::Spans;
use nvmm_crypto::{EncryptionEngine, MacEngine};
use nvmm_sim::trace::TraceStream;
use nvmm_sim::{
    mc_threads, run_parallel, CrashSpec, Design, EnumOpts, IntegrityPolicy, IntegritySpec,
    LatencyHist, LineAddr, RunOutcome, SimConfig, Stats, System, Time, Trace, TraceEvent,
};
use nvmm_workloads::{
    check_crash_set, crash_instants_cfg, execute, model_check_cfg, model_check_instants_cfg,
    traces_for_cores, ModelCheckOpts, ModelCheckReport, WorkloadKind, WorkloadSpec,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Simulated cores of the two replay workloads.
const CORES: usize = 4;

/// Mean inter-arrival gap per core of `service_stream`. It is pinned,
/// not recalibrated per run, so offered load is an input of the
/// benchmark: 0.7x the closed-loop capacity of this configuration when
/// the benchmark was defined (see `benchmark/README.md`).
pub const SERVICE_GAP_NS: u64 = 5854;
/// Transactions per fast or slow burst phase (0.5x / 1.5x the gap).
const SERVICE_PHASE_TXS: u64 = 64;
/// Lines each core's transactions draw from.
const SERVICE_FOOTPRINT_LINES: u64 = 64 * 1024;
const SERVICE_READS: usize = 2;
const SERVICE_WRITES: usize = 4;
const SERVICE_SHARDS: usize = 2;
const SERVICE_JOURNAL_BATCH: u64 = 4096;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReplayClosed,
    ServiceStream,
    McClean,
    McBughunt,
}

/// Input size: the measured runs, the quarter-size warm-up, or the toy
/// size the test and `--smoke` use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Warm,
    Smoke,
}

/// A workload's generated inputs.
pub enum Inputs {
    /// Per data structure, one trace per core and the transactions they
    /// issue.
    Replay(Vec<(Vec<Trace>, u64)>),
    /// Per core, the lines its transactions touch, in order.
    Service(Vec<Arc<Vec<u64>>>),
    /// Per data structure, its spec and the crash instants to check.
    Mc(Vec<(WorkloadSpec, Vec<Time>)>),
}

/// What one repetition produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Trace events replayed (replay workloads) or crash images judged
    /// (model checks): the unit of `items_per_s`.
    pub items: u64,
    /// FNV-1a over every simulated statistic, image fingerprint and
    /// verdict: identical across repetitions of one input.
    pub digest: u64,
    /// Statistics of every crash-free simulation.
    pub runs: Vec<Stats>,
    /// Trace events those simulations processed.
    pub events: u64,
    /// Arrival-to-commit latency (open loop only).
    pub latency: Option<LatencyHist>,
    /// One report per checked crash instant.
    pub reports: Vec<ModelCheckReport>,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    fn absorb_run(&mut self, run: RunOutcome) {
        self.digest = fnv(
            self.digest,
            &format!(
                "{:?}|{:x}|{:?}",
                run.stats,
                run.image.fingerprint(),
                run.latency
            ),
        );
        self.events += run.events_processed;
        if let Some(h) = &run.latency {
            self.latency.get_or_insert_with(LatencyHist::new).merge(h);
        }
        self.runs.push(run.stats);
    }

    fn absorb_reports(&mut self, reports: Vec<ModelCheckReport>) {
        let mut text = String::new();
        for r in &reports {
            // The wall-clock fields are telemetry and stay out.
            write!(
                text,
                "{:?}|{}|{}|{}|{:?};",
                r.stats, r.images_checked, r.violations, r.baseline_violation, r.minimal
            )
            .expect("writing to a String cannot fail");
        }
        self.digest = fnv(self.digest, &text);
        self.reports.extend(reports);
    }

    fn committed(&self) -> u64 {
        self.runs.iter().map(|s| s.transactions_committed).sum()
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReplayClosed,
        Workload::ServiceStream,
        Workload::McClean,
        Workload::McBughunt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayClosed => "replay_closed",
            Workload::ServiceStream => "service_stream",
            Workload::McClean => "mc_clean",
            Workload::McBughunt => "mc_bughunt",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name of the digest this workload prints.
    pub fn digest_name(self) -> &'static str {
        match self {
            Workload::McClean | Workload::McBughunt => "verdict_digest",
            Workload::ReplayClosed | Workload::ServiceStream => "stats_digest",
        }
    }

    /// The input sizes at `scale`, for the run record.
    pub fn describe(self, scale: Scale) -> String {
        match self {
            Workload::ReplayClosed => format!(
                "5 kinds x evaluation_default x {} tx/core x {CORES} cores, SCA table2, 1 shard, closed loop",
                replay_txs(scale)
            ),
            Workload::ServiceStream => format!(
                "{CORES} cores x {} tx ({SERVICE_READS} reads, {SERVICE_WRITES} counter-atomic write+clwb), \
                 burst gap {SERVICE_GAP_NS} ns/core in {SERVICE_PHASE_TXS}-tx phases, SCA strict, \
                 {SERVICE_SHARDS} shards DirectPort, journal batch {SERVICE_JOURNAL_BATCH}",
                service_txs(scale)
            ),
            Workload::McClean | Workload::McBughunt => {
                let (ops, payload, instants) = mc_size(scale);
                format!(
                    "5 kinds x smoke x {ops} tx x {payload} payload lines, {instants} instants/kind, \
                     SCA strict{}, default ModelCheckOpts",
                    if self == Workload::McBughunt { " + tree bug" } else { "" }
                )
            }
        }
    }

    /// Generates the inputs from `seed`.
    pub fn setup(self, scale: Scale, seed: u64, spans: &mut Spans) -> Inputs {
        match self {
            Workload::ReplayClosed => Inputs::Replay(
                kinds(seed)
                    .map(|(kind, kseed)| {
                        let spec = WorkloadSpec::evaluation_default(kind)
                            .with_ops(replay_txs(scale))
                            .with_seed(kseed);
                        let traces =
                            spans.time("workloads.execute_s", || traces_for_cores(&spec, CORES));
                        let txs = traces.iter().map(Trace::tx_count).sum();
                        (traces, txs)
                    })
                    .collect(),
            ),
            Workload::ServiceStream => Inputs::Service(
                (0..CORES)
                    .map(|core| {
                        spans.time("bench.inputs_s", || {
                            Arc::new(service_lines(
                                mix(seed, core as u64),
                                core,
                                service_txs(scale),
                            ))
                        })
                    })
                    .collect(),
            ),
            Workload::McClean | Workload::McBughunt => {
                let (ops, payload, instants) = mc_size(scale);
                let cfg = self.mc_config();
                Inputs::Mc(
                    kinds(seed)
                        .map(|(kind, kseed)| {
                            let spec = WorkloadSpec::smoke(kind)
                                .with_ops(ops)
                                .with_payload_lines(payload)
                                .with_seed(kseed);
                            let at = spans.time("workloads.crash_instants_s", || {
                                crash_instants_cfg(
                                    &spec,
                                    cfg.clone(),
                                    &ModelCheckOpts::default(),
                                    instants,
                                )
                            });
                            (spec, at)
                        })
                        .collect(),
                )
            }
        }
    }

    /// Runs one repetition over `inputs` and checks its outputs.
    pub fn rep(self, inputs: &Inputs, spans: &mut Spans) -> Outcome {
        match (self, inputs) {
            (Workload::ReplayClosed, Inputs::Replay(kinds)) => replay_closed(kinds, spans),
            (Workload::ServiceStream, Inputs::Service(lines)) => service_stream(lines, spans),
            (Workload::McClean | Workload::McBughunt, Inputs::Mc(kinds)) => {
                self.model_check(kinds, spans)
            }
            _ => unreachable!("inputs of another workload"),
        }
    }

    fn mc_config(self) -> SimConfig {
        let cfg = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
        if self == Workload::McBughunt {
            cfg.with_tree_bug()
        } else {
            cfg
        }
    }

    fn model_check(self, kinds: &[(WorkloadSpec, Vec<Time>)], spans: &mut Spans) -> Outcome {
        let cfg = self.mc_config();
        let opts = ModelCheckOpts::default();
        let mut out = Outcome::default();
        let mut tx = 0;
        for (spec, instants) in kinds {
            if instants.is_empty() {
                out.problems.push(format!(
                    "{}: no crash instant has a write in flight",
                    spec.kind
                ));
            }
            // A crash-free run of the same trace gives the simulated
            // metrics and checks that every transaction commits.
            let ex = spans.time("workloads.execute_s", || execute(spec, 0, spec.ops));
            let sys = spans.time("system.build_s", || {
                System::new(cfg.clone(), vec![ex.pm.into_parts().0]).with_shard_threads(1)
            });
            spans.time("system.run_s", || out.absorb_run(sys.run(CrashSpec::None)));
            tx += spec.ops as u64;

            let reports = if spans.enabled() {
                traced_model_check(spec, &cfg, instants, &opts, spans)
            } else {
                model_check_instants_cfg(spec, cfg.clone(), instants, &opts)
            };
            let violations: usize = reports.iter().map(|r| r.violations).sum();
            if self == Workload::McClean {
                out.attempted += reports.iter().map(|r| r.images_checked as u64).sum::<u64>();
                out.failed += violations as u64;
            } else {
                // Every violating instant must be blamed on the injected
                // bug; a kind the bug never shows in fails outright.
                out.attempted += reports.len() as u64;
                out.failed += if violations == 0 {
                    reports.len() as u64
                } else {
                    reports
                        .iter()
                        .filter(|r| r.violations > 0 && !blames_tree_bug(r))
                        .count() as u64
                };
            }
            out.items += reports.iter().map(|r| r.images_checked as u64).sum::<u64>();
            out.absorb_reports(reports);
        }
        if out.committed() != tx {
            out.problems.push(format!(
                "crash-free runs committed {} of {tx} transactions",
                out.committed()
            ));
        }
        out
    }
}

fn replay_txs(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1000,
        Scale::Warm => 250,
        Scale::Smoke => 10,
    }
}

fn service_txs(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 15_000,
        Scale::Warm => 3750,
        // Long enough that the final drain stays well inside the 1%
        // offered-rate check.
        Scale::Smoke => 1024,
    }
}

/// (transactions, payload lines, crash instants per kind).
fn mc_size(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Full => (64, 24, 40),
        Scale::Warm => (64, 24, 10),
        Scale::Smoke => (8, 4, 3),
    }
}

/// The five data structures, each with its own seed derived from `seed`.
fn kinds(seed: u64) -> impl Iterator<Item = (WorkloadKind, u64)> {
    WorkloadKind::ALL
        .into_iter()
        .enumerate()
        .map(move |(i, kind)| (kind, mix(seed, 0x100 + i as u64)))
}

fn replay_closed(kinds: &[(Vec<Trace>, u64)], spans: &mut Spans) -> Outcome {
    let cfg = SimConfig::table2(Design::Sca, CORES);
    let mut out = Outcome::default();
    for (traces, txs) in kinds {
        out.attempted += txs;
        let sys = spans.time("system.build_s", || {
            System::new(cfg.clone(), traces.clone()).with_shard_threads(1)
        });
        // The span includes tearing the outcome down.
        spans.time("system.run_s", || out.absorb_run(sys.run(CrashSpec::None)));
    }
    out.failed = out.attempted.saturating_sub(out.committed());
    out.items = out.events;
    out
}

fn service_stream(lines: &[Arc<Vec<u64>>], spans: &mut Spans) -> Outcome {
    let cfg = SimConfig::table2(Design::Sca, CORES)
        .with_integrity(IntegrityPolicy::Strict)
        .with_shards(SERVICE_SHARDS);
    let generate_ns = Arc::new(AtomicU64::new(0));
    let timer = spans.enabled().then_some(&generate_ns);
    let sources = lines
        .iter()
        .enumerate()
        .map(|(core, l)| service_source(core, Arc::clone(l), timer.cloned()))
        .collect();
    let sys = spans.time("system.build_s", || {
        System::with_sources(cfg, sources)
            .with_shard_threads(1)
            .with_journal_batch(SERVICE_JOURNAL_BATCH)
    });
    let mut out = Outcome {
        attempted: lines
            .iter()
            .map(|l| (l.len() / (SERVICE_READS + SERVICE_WRITES)) as u64)
            .sum(),
        ..Outcome::default()
    };
    spans.time("system.run_s", || out.absorb_run(sys.run(CrashSpec::None)));
    spans.add(
        "bench.generate_s",
        generate_ns.load(Ordering::Relaxed) as f64 / 1e9,
    );
    out.failed = out.attempted.saturating_sub(out.committed());
    out.items = out.events;
    let offered = CORES as f64 / Time::from_ns(SERVICE_GAP_NS).as_secs_f64();
    let achieved = out.runs[0].throughput_tps();
    if (achieved / offered - 1.0).abs() > 0.01 {
        out.problems.push(format!(
            "sim_tps {achieved:.0} is not within 1% of the offered {offered:.0} tx/s: saturated"
        ));
    }
    if out.latency.as_ref().map_or(0, LatencyHist::count) != out.committed() {
        out.problems
            .push("latency samples do not match committed transactions".to_string());
    }
    out
}

/// Per transaction: random read lines, then random write lines, all in
/// `core`'s private footprint.
fn service_lines(seed: u64, core: usize, txs: u64) -> Vec<u64> {
    let base = core as u64 * SERVICE_FOOTPRINT_LINES;
    let mut state = seed;
    (0..txs * (SERVICE_READS + SERVICE_WRITES) as u64)
        .map(|_| base + splitmix64(&mut state) % SERVICE_FOOTPRINT_LINES)
        .collect()
}

/// The gap before transaction `k`: alternating fast and slow phases
/// that average to the mean gap, as `ArrivalCurve::burst` shapes them.
fn burst_gap(mean: u64, k: u64) -> u64 {
    if (k / SERVICE_PHASE_TXS).is_multiple_of(2) {
        mean / 2
    } else {
        mean + mean / 2
    }
}

/// A lazily generated open-loop stream for one core: per transaction an
/// arrival gate, the reads, counter-atomic write + `clwb` pairs, a
/// persist barrier and a commit stamped with the arrival instant. With
/// `timer`, the host time spent generating events is added to it.
fn service_source(core: usize, lines: Arc<Vec<u64>>, timer: Option<Arc<AtomicU64>>) -> TraceStream {
    let per_tx = SERVICE_READS + SERVICE_WRITES;
    let txs = lines.len() / per_tx;
    let mean = Time::from_ns(SERVICE_GAP_NS).0;
    let last_step = SERVICE_READS + 2 * SERVICE_WRITES + 2;
    // Cores are phase-staggered so they do not arrive in lockstep.
    let mut at = mean * core as u64 / CORES as u64;
    let (mut tx, mut step) = (0usize, 0usize);
    let mut next = move || {
        if tx >= txs {
            return None;
        }
        let l = &lines[tx * per_tx..(tx + 1) * per_tx];
        let ev = match step {
            0 => {
                at += burst_gap(mean, tx as u64);
                TraceEvent::WaitUntil { at: Time(at) }
            }
            s if s <= SERVICE_READS => TraceEvent::Read {
                line: LineAddr(l[s - 1]),
            },
            s if s <= SERVICE_READS + 2 * SERVICE_WRITES => {
                let w = (s - SERVICE_READS - 1) / 2;
                let line = LineAddr(l[SERVICE_READS + w]);
                if (s - SERVICE_READS) % 2 == 1 {
                    TraceEvent::Write {
                        line,
                        data: [(line.0 ^ tx as u64) as u8; 64],
                        counter_atomic: true,
                    }
                } else {
                    TraceEvent::Clwb { line }
                }
            }
            s if s < last_step => TraceEvent::PersistBarrier,
            _ => TraceEvent::TxCommit { id: at },
        };
        if step == last_step {
            (tx, step) = (tx + 1, 0);
        } else {
            step += 1;
        }
        Some(ev)
    };
    match timer {
        None => TraceStream::from_generator(next),
        Some(ns) => TraceStream::from_generator(move || {
            let started = Instant::now();
            let ev = next();
            ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            ev
        }),
    }
}

fn blames_tree_bug(r: &ModelCheckReport) -> bool {
    r.minimal.as_ref().is_some_and(|m| {
        m.error.0.contains("never persisted") || m.error.0.contains("ahead of child")
    })
}

/// `model_check_instants_cfg` taken apart into its public steps, with a
/// span around each: the same fan-out over instants, and per instant
/// the re-execution, the crash run, a timed fused walk, and the full
/// `check_crash_set` (which walks again, then judges). The reports are
/// the untraced ones, so the digests must agree.
fn traced_model_check(
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    instants: &[Time],
    opts: &ModelCheckOpts,
    spans: &mut Spans,
) -> Vec<ModelCheckReport> {
    // `model_check_instants_cfg` fans the instants out over `mc_threads()`
    // workers and gives each instant's own loop one; `check_crash_set`
    // reads that inner count from the environment.
    let threads = mc_threads();
    let saved = std::env::var_os("NVMM_MC_THREADS");
    std::env::set_var("NVMM_MC_THREADS", "1");
    let started = Instant::now();
    let jobs = run_parallel(threads, instants, |&at| {
        let job = Instant::now();
        let mut sp = Spans::on();
        let report = check_instant(spec, cfg, at, opts, &mut sp);
        (report, sp, job.elapsed().as_secs_f64())
    });
    let wall = started.elapsed().as_secs_f64();
    match saved {
        Some(v) => std::env::set_var("NVMM_MC_THREADS", v),
        None => std::env::remove_var("NVMM_MC_THREADS"),
    }
    let busy = jobs.iter().map(|j| j.2).sum();
    let (reports, job_spans) = jobs.into_iter().map(|(r, sp, _)| (r, sp)).unzip();
    spans.absorb_jobs(job_spans, busy, wall);
    reports
}

fn check_instant(
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    at: Time,
    opts: &ModelCheckOpts,
    sp: &mut Spans,
) -> ModelCheckReport {
    let ex = sp.time("workloads.execute_s", || execute(spec, 0, spec.ops));
    let run = sp.time("system.crash_run_s", || {
        System::new(cfg.clone(), vec![ex.pm.trace().clone()])
            .with_shard_threads(1)
            .run(CrashSpec::AtTime(at))
    });
    let Some(set) = run.crash_set else {
        // The run completed before `at`: one image, judged as
        // `model_check_cfg` judges it.
        return sp.time("harness.check_s", || {
            model_check_cfg(spec, cfg.clone(), CrashSpec::AtTime(at), opts)
        });
    };
    let integrity = IntegritySpec::from_config(cfg);
    let eopts = EnumOpts {
        max_images: opts.max_images,
        seed: opts.seed,
    };
    let verify_ns = sp.time("crashmc.walk_s", || {
        let engine = EncryptionEngine::new(cfg.key);
        let mac_engine = MacEngine::new(cfg.key);
        set.enumerate_verified_timed(eopts, 1, integrity, &engine, &mac_engine)
            .2
    });
    sp.add("integrity.delta_verify_s", verify_ns as f64 / 1e9);
    sp.time("harness.check_s", || {
        check_crash_set(spec, &ex, &set, cfg.key, cfg.design, integrity, opts)
    })
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed for stream `salt` of the benchmark seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut state = seed ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03);
    splitmix64(&mut state)
}

fn fnv(mut h: u64, text: &str) -> u64 {
    if h == 0 {
        h = 0xcbf2_9ce4_8422_2325;
    }
    for b in text.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_gaps_average_to_the_mean_over_a_period() {
        let total: u64 = (0..2 * SERVICE_PHASE_TXS).map(|k| burst_gap(1000, k)).sum();
        assert_eq!(total, 2 * SERVICE_PHASE_TXS * 1000);
    }

    #[test]
    fn service_stream_emits_the_declared_transaction_shape() {
        let lines = Arc::new(service_lines(9, 1, 3));
        let mut s = service_source(1, lines, None);
        let mut events = Vec::new();
        while let Some(ev) = s.pull() {
            events.push(ev);
        }
        let per_tx = 1 + SERVICE_READS + 2 * SERVICE_WRITES + 2;
        assert_eq!(events.len(), 3 * per_tx);
        let commits: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TxCommit { id } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(commits.len(), 3);
        assert!(commits.windows(2).all(|w| w[0] < w[1]));
        assert!(events.iter().all(|e| match e {
            TraceEvent::Read { line } | TraceEvent::Clwb { line } => {
                (SERVICE_FOOTPRINT_LINES..2 * SERVICE_FOOTPRINT_LINES).contains(&line.0)
            }
            TraceEvent::Write { counter_atomic, .. } => *counter_atomic,
            _ => true,
        }));
    }

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(service_lines(1, 0, 4), service_lines(1, 0, 4));
        assert_ne!(service_lines(1, 0, 4), service_lines(2, 0, 4));
    }
}
