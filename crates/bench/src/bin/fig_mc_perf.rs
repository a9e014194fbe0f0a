//! Model-checker performance: the fused delta walk
//! (`CrashSet::enumerate_verified_timed`), which enumerates a crash
//! set's legal images and re-judges each from only what its schedule
//! step dirtied, against full-pass verification of the same images.
//!
//! For each of the five workloads under SCA with strict integrity
//! (so the per-image verify oracle does real MAC/tree work), one replay
//! of one execution (`CrashSweep::one_core`) yields the crash instants,
//! harvested from the run's persist windows, and every instant's crash
//! set, and each set is walked once (default `EnumOpts`). Everything
//! runs on the calling thread, so every timing compares one thread with
//! one thread. The walk's own images are then judged twice:
//!
//! * **delta** — the walk's verdicts, read off its warm
//!   `DeltaVerifier`; the walk self-reports its verify phase (the
//!   dirty-cell flushes plus the verdict reads, timed at the flush
//!   sites);
//! * **full** — `verify_image` re-verifies every retained image
//!   whole, with one warmed engine pair shared across images.
//!
//! A replay adversary rides along: full-pass `verify_image_attack`
//! judges every image of the walk as a wholesale splice-back against
//! the completed run's `FreshnessRef`, taken from the same sweep's crash
//! set after completion.
//!
//! The binary is self-checking: the full-pass verdicts — Ok/Err witness
//! strings included — must equal the walk's on every image, and on a
//! sampled subset the walk's incremental fingerprint must equal a
//! from-scratch recompute. It exits nonzero on any divergence — speed
//! means nothing if the fast path judges differently. At non-smoke
//! sizes the verify-phase speedup (full over delta) is additionally
//! gated at >= 3x geomean.
//!
//! Environment knobs:
//!
//! * `NVMM_OPS` — transactions per workload (default 16), each writing
//!   24 cache lines (`PAYLOAD_LINES`).
//! * `NVMM_CRASH_POINTS` — crash instants per workload (default 5).
//!
//! The artifact (`target/experiments/BENCH_crashmc.json`) records only
//! deterministic quantities — per workload `points`, `images`, `masks`,
//! `deduped`, `violations`, and a `verdict_digest` hash over every
//! integrity and replay verdict string — so at defaults it must be
//! byte-identical to the committed `results/BENCH_crashmc.json` (CI
//! compares them). All wall-clock rows (`delta_ns`, `delta_verify_ns`,
//! `full_verify_ns`, `verify_speedup` and its geomean,
//! `replay_full_ns`) and the `host` row (`host_cores`) live in the
//! companion `BENCH_crashmc_timing.json`, which legitimately varies run
//! to run.

use nvmm_bench::{env_u64, geo_mean, print_table, Experiment};
use nvmm_crypto::mac::MacEngine;
use nvmm_crypto::EncryptionEngine;
use nvmm_sim::config::{Design, IntegrityPolicy, SimConfig};
use nvmm_sim::integrity::IntegritySpec;
use nvmm_sim::parallel::host_cores;
use nvmm_sim::{
    verify_image, verify_image_attack, AttackVerdict, CrashSet, CrashSweep, EnumOpts, Enumeration,
    FreshnessRef, NvmmImage, Time,
};
use nvmm_workloads::{execute, WorkloadKind, WorkloadSpec};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The fused walk over every crash set of one workload: per set, the
/// retained images and the walk's integrity verdicts, plus the
/// wall-clock of the whole walk and its self-reported verify share.
struct Walk {
    ns: u64,
    verify_ns: u64,
    sets: Vec<Enumeration>,
    verdicts: Vec<Vec<Result<(), String>>>,
}

/// Walks every crash set once with the fused delta walk.
fn run_walk(sets: &[CrashSet], key: [u8; 16], integrity: IntegritySpec) -> Walk {
    let engine = EncryptionEngine::new(key);
    let mac_engine = MacEngine::new(key);
    let mut walk = Walk {
        ns: 0,
        verify_ns: 0,
        sets: Vec::new(),
        verdicts: Vec::new(),
    };
    let started = Instant::now();
    for set in sets {
        let (en, vs, verify_ns) =
            set.enumerate_verified_timed(EnumOpts::default(), 1, integrity, &engine, &mac_engine);
        walk.verify_ns += verify_ns;
        walk.sets.push(en);
        walk.verdicts.push(vs);
    }
    walk.ns = started.elapsed().as_nanos() as u64;
    walk
}

/// Judges every image of `sets` whole with `judge`, with one warmed
/// engine pair shared across images: wall-clock and verdicts, per set.
fn full_pass<R>(
    sets: &[Enumeration],
    key: [u8; 16],
    judge: impl Fn(&NvmmImage, &EncryptionEngine, &MacEngine) -> R,
) -> (u64, Vec<Vec<R>>) {
    let engine = EncryptionEngine::new(key);
    let mac_engine = MacEngine::new(key);
    let started = Instant::now();
    let verdicts = sets
        .iter()
        .map(|en| {
            en.images
                .iter()
                .map(|(_, img)| judge(img, &engine, &mac_engine))
                .collect()
        })
        .collect();
    (started.elapsed().as_nanos() as u64, verdicts)
}

/// A deterministic digest over every verdict a workload produced —
/// integrity Ok/Err strings and replay attack verdicts — so the main
/// artifact pins the *content* of the verdicts, not just their counts.
/// `DefaultHasher` hashes with fixed keys, so the digest is stable
/// across runs.
fn verdict_digest(verdicts: &[Vec<Result<(), String>>], replays: &[Vec<AttackVerdict>]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for vs in verdicts {
        for v in vs {
            v.hash(&mut h);
        }
    }
    for vs in replays {
        for v in vs {
            match v {
                AttackVerdict::Detected { blame } => {
                    1u8.hash(&mut h);
                    blame.hash(&mut h);
                }
                AttackVerdict::Undetected => 0u8.hash(&mut h),
            }
        }
    }
    h.finish()
}

/// Cache lines each transaction writes: dense transactions leave more
/// writes in flight and a larger footprint for full-pass verification.
const PAYLOAD_LINES: usize = 24;

fn main() {
    // Defaults are sized so the verified footprint dominates each
    // schedule step's delta: the verify-phase comparison is about
    // re-checking a whole image versus only what one step dirtied, and
    // at toy sizes (one or two transactions resident) the two coincide
    // and the figure degenerates. 16 transactions of 24 lines keep the
    // full run in seconds while leaving the speedup well clear of its
    // gate; CI smoke shrinks below the gate threshold and self-skips.
    let ops = env_u64("NVMM_OPS", 16) as usize;
    let points = env_u64("NVMM_CRASH_POINTS", 5) as usize;
    let cfg = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
    let integrity = IntegritySpec::from_config(&cfg);
    let key = cfg.key;

    let mut exp = Experiment::new(
        "BENCH_crashmc",
        "deterministic enumerate+verify accounting per workload (wall-clock in BENCH_crashmc_timing)",
    );
    let mut timing = Experiment::new(
        "BENCH_crashmc_timing",
        "fused delta walk wall-clock per workload, and full-pass verification of its images",
    );
    timing.insert("host", "host_cores", host_cores() as f64);
    let mut failed = false;
    let mut verify_speedups = Vec::new();
    let mut rows = Vec::new();

    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind)
            .with_ops(ops)
            .with_payload_lines(PAYLOAD_LINES);
        let ex = execute(&spec, 0, spec.ops);
        // One replay, never paused, yields the instants
        // `crash_instants_cfg` harvests; one cursor cuts their crash sets
        // in ascending order.
        let (setup_end, sweep) = CrashSweep::one_core(&cfg, ex.pm.trace(), ex.setup_events);
        let instants = sweep.window_midpoints(setup_end, points);
        let mut cursor = sweep.cursor();
        let sets: Vec<CrashSet> = instants.iter().map(|&t| cursor.crash_set(t)).collect();
        if sets.is_empty() {
            eprintln!("FAIL: {} exposed no in-flight crash sets", kind.label());
            failed = true;
            continue;
        }
        // The completed run's image, the crash set after completion,
        // anchors the replay adversary: every enumerated crash image is
        // judged as a wholesale splice-back against this freshness
        // reference.
        let full = cursor.crash_set(Time(u64::MAX)).baseline();
        let fresh = FreshnessRef::capture(&full, integrity);

        let delta = run_walk(&sets, key, integrity);
        let (full_verify_ns, full_verdicts) = full_pass(&delta.sets, key, |img, e, m| {
            verify_image(img, integrity, e, m)
        });
        let (replay_full_ns, replay_full) = full_pass(&delta.sets, key, |img, e, m| {
            verify_image_attack(img, integrity, e, m, &fresh)
        });

        // Equivalence gate: the walk's verdicts, witness strings
        // included, equal full-pass verification of its own images.
        if full_verdicts != delta.verdicts {
            eprintln!(
                "FAIL: {}: integrity verdicts diverge between full-pass and delta verification",
                kind.label()
            );
            failed = true;
        }
        // Incremental fingerprint vs from-scratch recompute on a
        // sampled subset of the walked images.
        for en in &delta.sets {
            for (_, img) in en.images.iter().step_by(7) {
                if img.fingerprint() != img.fingerprint_recompute() {
                    eprintln!(
                        "FAIL: {}: incremental fingerprint drifted from recompute",
                        kind.label()
                    );
                    failed = true;
                }
            }
        }

        // Self-reported by the fused walk: time spent flushing dirty
        // cells into the verifier and reading verdicts, measured at the
        // flush sites rather than estimated by differencing totals.
        let delta_verify_ns = delta.verify_ns.max(1);
        let verify_speedup = full_verify_ns as f64 / delta_verify_ns as f64;
        verify_speedups.push(verify_speedup);

        let images: usize = delta.sets.iter().map(|en| en.images.len()).sum();
        let masks: u64 = delta.sets.iter().map(|en| en.stats.masks_explored).sum();
        let deduped: u64 = delta.sets.iter().map(|en| en.stats.images_deduped).sum();
        let violations = delta
            .verdicts
            .iter()
            .flatten()
            .filter(|v| v.is_err())
            .count();
        let row = kind.label().to_string();
        exp.insert(&row, "points", sets.len() as f64);
        exp.insert(&row, "images", images as f64);
        exp.insert(&row, "masks", masks as f64);
        exp.insert(&row, "deduped", deduped as f64);
        exp.insert(&row, "violations", violations as f64);
        exp.insert(
            &row,
            "verdict_digest",
            verdict_digest(&delta.verdicts, &replay_full) as f64,
        );
        timing.insert(&row, "delta_ns", delta.ns as f64);
        timing.insert(&row, "delta_verify_ns", delta_verify_ns as f64);
        timing.insert(&row, "full_verify_ns", full_verify_ns as f64);
        timing.insert(&row, "verify_speedup", verify_speedup);
        timing.insert(&row, "replay_full_ns", replay_full_ns as f64);
        rows.push((
            row,
            vec![
                delta.ns as f64 / 1e6,
                delta_verify_ns as f64 / 1e6,
                full_verify_ns as f64 / 1e6,
                verify_speedup,
                images as f64,
            ],
        ));
    }

    let headline = geo_mean(&verify_speedups);
    timing.insert("geomean", "verify_speedup", headline);
    print_table(
        "fused delta walk vs full-pass verification of its images",
        &[
            "walk ms",
            "delta verify ms",
            "full verify ms",
            "verify x",
            "images",
        ],
        &rows,
    );
    println!(
        "\ngeomean verify-phase speedup {headline:.2}x over {} workloads (one thread, {} host cores)",
        verify_speedups.len(),
        host_cores(),
    );

    // ---- Verify-phase speedup gate: only meaningful with real work.
    // CI smoke runs (NVMM_OPS=6, NVMM_CRASH_POINTS=3) finish whole
    // crash sets in microseconds where fixed per-set setup dominates;
    // the 3x contract is asserted at default-or-larger sizes.
    if ops >= 8 && points >= 5 {
        if headline >= 3.0 {
            println!("verify-phase gate: {headline:.2}x >= 3x geomean");
        } else {
            eprintln!("FAIL: verify-phase geomean speedup {headline:.2}x < 3x");
            failed = true;
        }
    } else {
        println!(
            "verify-phase speedup gate skipped: {ops} ops, {points} crash points (needs >= 8 ops and >= 5 points)"
        );
    }

    let path = exp.save().expect("write results");
    println!("saved {}", path.display());
    let timing_path = timing.save().expect("write timing");
    println!("saved {}", timing_path.display());
    if failed {
        std::process::exit(1);
    }
    println!(
        "crashmc perf self-check clean: delta verification matches the full-pass verifiers bit-for-bit"
    );
}
