//! Integration tests for channel-sharded controllers
//! (`nvmm_sim::shard::ShardedController` behind the
//! `nvmm_sim::addr::ShardMap` interleave).
//!
//! The sharding refactor's contract has three parts, each pinned here:
//!
//! 1. The address interleave is a *bijection* — every global line maps
//!    to exactly one (shard, local line) and back, for any shard count
//!    (property test).
//! 2. Sharding changes *timing*, never *work*: conserved counters
//!    (transactions, line writebacks by kind) and the per-epoch
//!    telemetry totals reconcile exactly with the shards=1 baseline.
//! 3. Crash consistency survives sharding: the model checker still
//!    proves FCA/SCA clean over every ADR-legal image of a sharded
//!    run, and still *catches* an injected counter-writeback bug —
//!    the merged per-shard journal hides nothing from `crashmc`.

use nvmm::sim::addr::{LineAddr, ShardMap};
use nvmm::sim::config::{Design, IntegrityPolicy, SimConfig};
use nvmm::sim::system::{CrashSpec, RunOutcome, System};
use nvmm::sim::Time;
use nvmm::workloads::{
    crash_instants_cfg, model_check_cfg, traces_for_cores, ModelCheckOpts, WorkloadKind,
    WorkloadSpec,
};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `locate` ∘ `globalize` and `globalize` ∘ `locate` are identities,
    /// and distinct global lines never collide on (shard, local) — the
    /// interleave is a bijection for every shard count.
    #[test]
    fn shard_map_is_a_bijection(
        lines in proptest::collection::vec(0u64..1_000_000, 1..200),
        shards in 1usize..8,
    ) {
        let map = ShardMap::new(shards);
        let lines: HashSet<u64> = lines.into_iter().collect();
        let mut seen: HashSet<(usize, u64)> = HashSet::new();
        for &l in &lines {
            let (shard, local) = map.locate(LineAddr(l));
            prop_assert!(shard < shards, "shard index out of range");
            prop_assert_eq!(shard, map.shard_of(LineAddr(l)), "locate/shard_of must agree");
            prop_assert_eq!(map.globalize(shard, local), LineAddr(l), "round trip");
            prop_assert!(
                seen.insert((shard, local.0)),
                "two global lines collided on shard {} local {}", shard, local.0
            );
        }
    }

    /// The reverse direction: every (shard, local) pair globalizes to a
    /// line that locates straight back to it.
    #[test]
    fn shard_map_globalize_inverts_locate(
        local in 0u64..1_000_000,
        shards in 1usize..8,
        shard in 0usize..8,
    ) {
        let map = ShardMap::new(shards);
        let shard = shard % shards;
        let global = map.globalize(shard, LineAddr(local));
        prop_assert_eq!(map.locate(global), (shard, LineAddr(local)));
    }
}

/// The conserved-work counters of a run: everything a shard count must
/// not change. Timing-dependent counters (cache hit/miss splits, queue
/// coalescing windows, stalls) legitimately shift with shard-local
/// cache slices and drain schedules and are deliberately excluded.
fn conserved(stats: &nvmm::sim::Stats) -> (u64, u64, u64) {
    (
        stats.transactions_committed,
        stats.plain_writes + stats.counter_atomic_writes,
        stats.nvmm_data_writes + stats.coalesced_data_writes,
    )
}

#[test]
fn sharded_stats_reconcile_with_single_shard_baseline() {
    let cores = 4;
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(6);
    let run = |shards: usize| {
        let cfg = SimConfig::table2(Design::Sca, cores).with_shards(shards);
        System::new(cfg, traces_for_cores(&spec, cores)).run(CrashSpec::None)
    };
    let base = run(1);
    for shards in [2, 4] {
        let out = run(shards);
        assert_eq!(
            conserved(&out.stats),
            conserved(&base.stats),
            "shards={shards} changed the work performed, not just its timing"
        );
        assert_eq!(
            out.image.fingerprint(),
            base.image.fingerprint(),
            "shards={shards} changed the final NVMM image"
        );
    }
}

#[test]
fn sharded_telemetry_reconciles_with_final_stats() {
    let cores = 4;
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(6);
    let mut cfg = SimConfig::table2(Design::Sca, cores).with_shards(4);
    cfg.telemetry_epoch = Some(Time::from_ns(500));
    let out = System::new(cfg, traces_for_cores(&spec, cores)).run(CrashSpec::None);
    let timeline = out.timeline.expect("telemetry was enabled");
    assert!(
        !timeline.epochs.is_empty(),
        "run must span at least one epoch"
    );
    // Epoch deltas are exhaustive: their totals equal the final merged
    // stats, so no shard's activity escapes the sampler.
    let total = |f: fn(&nvmm::sim::telemetry::EpochSample) -> u64| {
        timeline.epochs.iter().map(f).sum::<u64>()
    };
    assert_eq!(total(|e| e.nvmm_data_writes), out.stats.nvmm_data_writes);
    assert_eq!(
        total(|e| e.nvmm_counter_writes),
        out.stats.nvmm_counter_writes
    );
    assert_eq!(
        total(|e| e.nvmm_metadata_writes),
        out.stats.nvmm_metadata_writes
    );
    assert_eq!(total(|e| e.bytes_written), out.stats.bytes_written);
    assert_eq!(
        total(|e| e.counter_cache_hits),
        out.stats.counter_cache_hits
    );
    assert_eq!(
        total(|e| e.counter_cache_misses),
        out.stats.counter_cache_misses
    );
}

/// Wear is conserved work, not timing: the per-line write counts a
/// sharded run accumulates across its controllers must merge to
/// exactly the shards=1 report — distinct lines, totals, maximum,
/// histogram, everything.
#[test]
fn sharded_wear_reports_reconcile_with_single_shard_baseline() {
    let cores = 4;
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(6);
    let run = |shards: usize| {
        let cfg = SimConfig::table2(Design::Sca, cores).with_shards(shards);
        System::new(cfg, traces_for_cores(&spec, cores)).run(CrashSpec::None)
    };
    let base = run(1);
    assert!(base.wear.distinct_lines > 0, "workload must touch NVMM");
    assert_eq!(
        base.wear.total_writes,
        base.stats.nvmm_writes() + base.stats.coalesced_writes(),
        "wear totals must account for every NVMM write request"
    );
    assert_eq!(
        base.stats.wear_line_writes,
        base.stats.nvmm_writes() + base.stats.coalesced_writes()
    );
    for shards in [2, 4] {
        let out = run(shards);
        assert_eq!(
            out.wear, base.wear,
            "shards={shards} changed the merged wear report"
        );
    }
}

/// The time-resolved wear series is exhaustive: per-epoch
/// `wear_line_writes` deltas sum to the final merged counter, so no
/// shard's device writes escape the sampler.
#[test]
fn sharded_wear_telemetry_reconciles_with_final_stats() {
    let cores = 4;
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(6);
    let mut cfg = SimConfig::table2(Design::Sca, cores).with_shards(4);
    cfg.telemetry_epoch = Some(Time::from_ns(500));
    let out = System::new(cfg, traces_for_cores(&spec, cores)).run(CrashSpec::None);
    let timeline = out.timeline.expect("telemetry was enabled");
    let series: u64 = timeline.epochs.iter().map(|e| e.wear_line_writes).sum();
    assert_eq!(series, out.stats.wear_line_writes);
    assert_eq!(series, out.wear.total_writes);
}

fn opts(max_images: usize) -> ModelCheckOpts {
    ModelCheckOpts {
        max_images,
        ..ModelCheckOpts::default()
    }
}

/// Acceptance criterion: FCA and SCA stay provably clean when the
/// journal is merged from multiple shard domains.
#[test]
fn sharded_safe_designs_have_no_violating_images() {
    let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap).with_ops(4);
    for design in [Design::Fca, Design::Sca] {
        let cfg = SimConfig::single_core(design).with_shards(2);
        let o = opts(32);
        let instants = crash_instants_cfg(&spec, cfg.clone(), &o, 6);
        assert!(!instants.is_empty(), "{design}: no in-flight instants");
        let mut explored_choice = false;
        for &t in &instants {
            let rep = model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), &o);
            explored_choice |= rep.stats.groups > 0;
            assert!(
                rep.clean(),
                "{design} at {t} with 2 shards: {} of {} images violated; minimal: {:?}",
                rep.violations,
                rep.images_checked,
                rep.minimal
            );
        }
        assert!(
            explored_choice,
            "{design}: every sharded instant was vacuous"
        );
    }
}

/// Positive control: the checker must still *find* bugs across shard
/// boundaries. Stripping counter writebacks under SCA yields violating
/// images even when counters and data drain through separate shards.
#[test]
fn sharded_checker_still_catches_missing_counter_writebacks() {
    let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap).with_ops(4);
    let o = ModelCheckOpts {
        strip_counter_writebacks: true,
        max_images: 32,
        ..ModelCheckOpts::default()
    };
    let cfg = SimConfig::single_core(Design::Sca).with_shards(2);
    let instants = crash_instants_cfg(&spec, cfg.clone(), &o, 8);
    assert!(!instants.is_empty());
    let violations: usize = instants
        .iter()
        .map(|&t| model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), &o).violations)
        .sum();
    assert!(
        violations > 0,
        "injected Fig. 3(a) bug went undetected across shard domains"
    );
}

/// Field-by-field comparison of two run outcomes — everything a
/// `RunOutcome` reports, including the timeline (whose epoch deltas are
/// merged across shard workers at epoch barriers), the wear report
/// (merged per-shard write counts), and the latency histogram.
fn assert_outcomes_identical(a: &RunOutcome, b: &RunOutcome, what: &str) {
    assert_eq!(a.stats, b.stats, "{what}: stats diverged");
    assert_eq!(
        a.image.fingerprint(),
        b.image.fingerprint(),
        "{what}: NVMM image diverged"
    );
    assert_eq!(a.crash_time, b.crash_time, "{what}: crash time diverged");
    assert_eq!(
        a.persist_windows, b.persist_windows,
        "{what}: persist windows (merged journal order) diverged"
    );
    assert_eq!(
        a.events_processed, b.events_processed,
        "{what}: event count diverged"
    );
    assert_eq!(a.timeline, b.timeline, "{what}: telemetry diverged");
    assert_eq!(a.latency, b.latency, "{what}: latency histogram diverged");
    assert_eq!(a.wear, b.wear, "{what}: wear report diverged");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Cross-thread determinism, fuzzed: for random seeds, workloads
    /// and integrity policies, a 4-worker parallel replay produces a
    /// `RunOutcome` identical to the sequential path — stats, image,
    /// persist windows (the merged journal's in-flight order),
    /// telemetry, wear, latency — along with the same single-shard
    /// parity verdict.
    #[test]
    fn parallel_replay_is_deterministic(
        seed in 0u64..1_000_000,
        kind_ix in 0usize..3,
        ops in 3usize..7,
        policy_ix in 0usize..IntegrityPolicy::ALL.len(),
    ) {
        let kind = [WorkloadKind::HashTable, WorkloadKind::Queue, WorkloadKind::ArraySwap][kind_ix];
        let mut spec = WorkloadSpec::smoke(kind).with_ops(ops);
        spec.seed = seed;
        let cores = 2;
        let mut cfg = SimConfig::table2(Design::Sca, cores)
            .with_shards(4)
            .with_integrity(IntegrityPolicy::ALL[policy_ix]);
        cfg.telemetry_epoch = Some(Time::from_ns(700));
        let traces = traces_for_cores(&spec, cores);
        let (base, base_parity) = System::new(cfg.clone(), traces.clone())
            .with_shard_threads(1)
            .run_with_parity_check(CrashSpec::None);
        let (par, par_parity) = System::new(cfg, traces)
            .with_shard_threads(4)
            .run_with_parity_check(CrashSpec::None);
        prop_assert_eq!(par_parity, base_parity, "parity probe diverged");
        assert_outcomes_identical(&par, &base, "threads=4 vs threads=1");
    }
}

/// Enumerated image fingerprints (in enumeration order) and stats of a
/// crash set — everything the model checker consumes from it.
fn enumerated(set: &nvmm::sim::CrashSet) -> (Vec<u128>, nvmm::sim::EnumStats) {
    let en = set.enumerate(nvmm::sim::EnumOpts {
        max_images: 32,
        ..nvmm::sim::EnumOpts::default()
    });
    let prints = en.images.iter().map(|(_, img)| img.fingerprint()).collect();
    (prints, en.stats)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// One crash sweep over a multi-core, multi-shard strict-integrity
    /// run answers every instant exactly as a separate crash run does:
    /// the min-clock pause lands on the same scheduling point and the
    /// merged shard-journal prefixes yield the same crash set, and an
    /// instant past the end yields the crash-free image. Instants mix
    /// in-flight window midpoints with uniform picks across (and past)
    /// the run, unsorted and possibly duplicated.
    #[test]
    fn crash_sweep_matches_per_instant_crash_runs(
        seed in 0u64..1_000_000,
        kind_ix in 0usize..3,
        picks in prop::collection::vec(0u64..1_000_000, 4..8),
    ) {
        let kind = [WorkloadKind::HashTable, WorkloadKind::Queue, WorkloadKind::ArraySwap][kind_ix];
        let mut spec = WorkloadSpec::smoke(kind).with_ops(4);
        spec.seed = seed;
        let cores = 4;
        let cfg = SimConfig::table2(Design::Sca, cores)
            .with_shards(2)
            .with_integrity(IntegrityPolicy::Strict);
        let traces = traces_for_cores(&spec, cores);
        let end = System::new(cfg.clone(), traces.clone()).run(CrashSpec::None);
        let windows = &end.persist_windows;
        prop_assert!(!windows.is_empty(), "no write was ever in flight");
        let span = end.stats.runtime.0 + end.stats.runtime.0 / 8 + 1;
        let mut instants: Vec<Time> = picks
            .iter()
            .enumerate()
            .map(|(j, &p)| {
                if j % 2 == 0 {
                    let (s, g) = windows[p as usize % windows.len()];
                    Time::from_ps(s.0 + (g.0 - s.0) / 2)
                } else {
                    Time::from_ps(p * span / 1_000_000)
                }
            })
            .collect();
        // One instant always lies past the end, at a random position.
        let past = end.stats.runtime + Time::from_ns(1);
        instants.insert(picks[0] as usize % (instants.len() + 1), past);
        let sweep = System::new(cfg.clone(), traces.clone()).run_crash_sweep(&instants);
        prop_assert_eq!(sweep.len(), instants.len());
        for (i, &t) in instants.iter().enumerate() {
            let run = System::new(cfg.clone(), traces.clone())
                .with_shard_threads(1)
                .run(CrashSpec::AtTime(t));
            match (sweep.crash_set(i), run.crash_set) {
                (Some(swept), Some(single)) => {
                    prop_assert_eq!(swept.crash_time(), t);
                    prop_assert_eq!(enumerated(&swept), enumerated(&single), "at {}", t);
                }
                (None, None) => prop_assert_eq!(
                    sweep.completed_image().map(|img| img.fingerprint()),
                    Some(end.image.fingerprint()),
                    "at {}", t
                ),
                (swept, single) => prop_assert!(
                    false,
                    "at {}: sweep paused = {}, crash run paused = {}",
                    t, swept.is_some(), single.is_some()
                ),
            }
        }
    }
}

/// Cross-thread determinism over every integrity policy, pinned (the
/// fuzz above samples; this leaves no policy to chance): each of the
/// six non-trivial policies — and the no-integrity baseline — replays
/// bit-identically with 4 shard workers.
#[test]
fn parallel_replay_deterministic_across_all_integrity_policies() {
    let cores = 2;
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(5);
    let traces = traces_for_cores(&spec, cores);
    for policy in IntegrityPolicy::ALL {
        let mut cfg = SimConfig::table2(Design::Sca, cores)
            .with_shards(4)
            .with_integrity(policy);
        cfg.telemetry_epoch = Some(Time::from_ns(600));
        let (base, base_parity) = System::new(cfg.clone(), traces.clone())
            .with_shard_threads(1)
            .run_with_parity_check(CrashSpec::None);
        let (par, par_parity) = System::new(cfg, traces.clone())
            .with_shard_threads(4)
            .run_with_parity_check(CrashSpec::None);
        assert_eq!(par_parity, base_parity, "{policy:?}: parity probe diverged");
        assert_outcomes_identical(&par, &base, &format!("{policy:?} threads=4 vs 1"));
    }
}

/// Batched-journal compaction folds records' in-flight windows away,
/// so combining it with crash analysis would be unsound — the driver
/// must refuse up front with a descriptive error instead of silently
/// enumerating from a truncated journal.
#[test]
#[should_panic(expected = "journal batching is completion-only")]
fn journal_batching_refuses_crash_analysis() {
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(4);
    let cfg = SimConfig::single_core(Design::Sca).with_shards(2);
    let traces = traces_for_cores(&spec, cfg.cores);
    System::new(cfg, traces)
        .with_journal_batch(8)
        .run(CrashSpec::AtTime(Time::from_ns(500)));
}

/// The completion path with the same batching knob stays valid: under
/// no integrity, lazy and strict — whose tree nodes near the root are
/// written from both shards, so compaction folds one cell from two
/// journals — the batched run's whole outcome (stats, wear report,
/// latency histogram, completion image) matches an unbatched reference
/// on the inline port and on two shard workers. Compaction changes
/// journal memory, never the outcome.
#[test]
fn journal_batching_preserves_completion_outcome() {
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(8);
    let cores = 2;
    let traces = traces_for_cores(&spec, cores);
    for policy in [
        IntegrityPolicy::None,
        IntegrityPolicy::Lazy,
        IntegrityPolicy::Strict,
    ] {
        let cfg = SimConfig::table2(Design::Sca, cores)
            .with_shards(2)
            .with_integrity(policy);
        let reference = System::new(cfg.clone(), traces.clone()).run(CrashSpec::None);
        for threads in [1, 2] {
            let batched = System::new(cfg.clone(), traces.clone())
                .with_shard_threads(threads)
                .with_journal_batch(4)
                .run(CrashSpec::None);
            let what = format!("{policy:?} threads={threads}");
            // Persist windows cover only the un-folded journal tail.
            assert!(
                batched.persist_windows.len() < reference.persist_windows.len(),
                "{what}: compaction must fire"
            );
            assert_eq!(batched.stats, reference.stats, "{what}: stats diverged");
            assert_eq!(batched.wear, reference.wear, "{what}: wear diverged");
            assert_eq!(
                batched.latency, reference.latency,
                "{what}: latency diverged"
            );
            assert_eq!(
                batched.image.fingerprint(),
                reference.image.fingerprint(),
                "{what}: compaction must not change the completion image"
            );
        }
    }
}
