//! Integration tests for channel-sharded controllers
//! (`nvmm_sim::shard::ShardedController` behind the
//! `nvmm_sim::addr::ShardMap` interleave).
//!
//! The sharding refactor's contract has four parts, each pinned here:
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
//! 4. Sharded replays reproduce pinned known answers — their whole
//!    reported outcome and completion image — under every integrity
//!    policy, and for an open-loop strict-integrity run with and
//!    without batched-journal compaction. Compaction itself never
//!    changes a completion outcome (property test).

use nvmm::sim::addr::{LineAddr, ShardMap};
use nvmm::sim::config::{Design, Fault, IntegrityPolicy, SimConfig};
use nvmm::sim::integrity::digest64;
use nvmm::sim::system::{CrashSpec, RunOutcome, System};
use nvmm::sim::Time;
use nvmm::workloads::{
    crash_instants_cfg, model_check_cfg, shape_open_loop, traces_for_cores, ArrivalCurve,
    ModelCheckOpts, WorkloadKind, WorkloadSpec,
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
/// boundaries. Forgetting the counter writebacks under SCA yields
/// violating images even when counters and data drain through separate
/// shards.
#[test]
fn sharded_checker_still_catches_missing_counter_writebacks() {
    let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap).with_ops(4);
    let o = opts(32);
    let cfg = SimConfig::single_core(Design::Sca)
        .with_shards(2)
        .with_fault(Fault::MissingCounterWritebacks);
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
            let run = System::new(cfg.clone(), traces.clone()).run(CrashSpec::AtTime(t));
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
/// latency histogram, completion image) matches an unbatched reference.
/// Compaction changes journal memory, never the outcome.
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
        let batched = System::new(cfg, traces.clone())
            .with_journal_batch(4)
            .run(CrashSpec::None);
        // Persist windows cover only the un-folded journal tail.
        assert!(
            batched.persist_windows.len() < reference.persist_windows.len(),
            "{policy:?}: compaction must fire"
        );
        assert_eq!(batched.stats, reference.stats, "{policy:?}: stats diverged");
        assert_eq!(batched.wear, reference.wear, "{policy:?}: wear diverged");
        assert_eq!(
            batched.latency, reference.latency,
            "{policy:?}: latency diverged"
        );
        assert_eq!(
            batched.image.fingerprint(),
            reference.image.fingerprint(),
            "{policy:?}: compaction must not change the completion image"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Compaction, fuzzed: for random seeds, workloads, shard counts,
    /// integrity policies, batch sizes and closed- or open-loop
    /// arrivals, a batched completion run reports the same stats,
    /// telemetry, wear, latency histogram and completion image as the
    /// unbatched replay of the same traces.
    #[test]
    fn journal_batching_preserves_completion_outcome_fuzzed(
        seed in 0u64..1_000_000,
        kind_ix in 0usize..3,
        ops in 3usize..7,
        shards_ix in 0usize..3,
        policy_ix in 0usize..IntegrityPolicy::ALL.len(),
        batch in 1u64..32,
        open_loop in proptest::bool::ANY,
    ) {
        let kind = [WorkloadKind::HashTable, WorkloadKind::Queue, WorkloadKind::ArraySwap][kind_ix];
        let mut spec = WorkloadSpec::smoke(kind).with_ops(ops);
        spec.seed = seed;
        let cores = 2;
        let cfg = SimConfig::table2(Design::Sca, cores)
            .with_shards([1, 2, 4][shards_ix])
            .with_integrity(IntegrityPolicy::ALL[policy_ix])
            .with_telemetry_epoch(Time::from_ns(700));
        let mut traces = traces_for_cores(&spec, cores);
        if open_loop {
            traces = shape_open_loop(traces, &ArrivalCurve::burst(Time::from_ns(1_500), 4));
        }
        let reference = System::new(cfg.clone(), traces.clone()).run(CrashSpec::None);
        let batched = System::new(cfg, traces)
            .with_journal_batch(batch)
            .run(CrashSpec::None);
        prop_assert!(batched.persist_windows.len() <= reference.persist_windows.len());
        prop_assert_eq!(&batched.stats, &reference.stats, "stats diverged");
        prop_assert_eq!(&batched.timeline, &reference.timeline, "telemetry diverged");
        prop_assert_eq!(&batched.wear, &reference.wear, "wear diverged");
        prop_assert_eq!(&batched.latency, &reference.latency, "latency diverged");
        prop_assert_eq!(
            batched.image.fingerprint(),
            reference.image.fingerprint(),
            "compaction changed the completion image"
        );
    }
}

/// A sharded, open-loop, strict-integrity replay: 2 cores on 4 shards,
/// 500 ns telemetry epochs, burst arrivals (so the latency histogram
/// fills), optionally compacting the journal every `batch` events.
fn known_answer_system(batch: Option<u64>) -> System {
    let cores = 2;
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(8);
    let cfg = SimConfig::table2(Design::Sca, cores)
        .with_shards(4)
        .with_integrity(IntegrityPolicy::Strict)
        .with_telemetry_epoch(Time::from_ns(500));
    let traces = shape_open_loop(
        traces_for_cores(&spec, cores),
        &ArrivalCurve::burst(Time::from_ns(1_500), 4),
    );
    let sys = System::new(cfg, traces);
    match batch {
        Some(events) => sys.with_journal_batch(events),
        None => sys,
    }
}

/// A digest over the `Debug` of everything a completion run reports
/// besides its image. The wear report enters as its numeric fields, so
/// the digest moves with the values it reports, not with its shape.
fn outcome_digest(out: &RunOutcome) -> u64 {
    let w = &out.wear;
    let wear = (
        w.distinct_lines,
        w.total_writes,
        w.max_line_writes,
        w.mean_line_writes_milli,
        &w.histogram,
        w.lifetime_runs,
    );
    let reported = (
        &out.stats,
        &out.timeline,
        &out.latency,
        &out.persist_windows,
        wear,
    );
    digest64(format!("{reported:?}").as_bytes())
}

/// Known answers for [`known_answer_system`]: `(journal batch, outcome
/// digest, image fingerprint)`. They were computed while a replay could
/// also run its shard controllers on worker threads, and 1, 2 and 4
/// workers all gave these values. Compaction leaves the persist
/// windows of the un-folded journal tail only, so the batched digest
/// differs; the completion image does not.
#[rustfmt::skip]
const KNOWN_ANSWERS: [(Option<u64>, u64, u128); 2] = [
    (None, 0x27ff3691e391d029, 0x57690c461cb71f13136c63c98057b43e),
    (Some(16), 0xcc417d9457e56406, 0x57690c461cb71f13136c63c98057b43e),
];

#[test]
fn sharded_open_loop_replay_matches_its_known_answers() {
    for (batch, digest, fingerprint) in KNOWN_ANSWERS {
        let out = known_answer_system(batch).run(CrashSpec::None);
        assert!(
            out.latency.is_some(),
            "open-loop arrivals must record latency"
        );
        assert!(
            out.timeline.as_ref().is_some_and(|t| !t.epochs.is_empty()),
            "the run must span telemetry epochs"
        );
        let got = (outcome_digest(&out), out.image.fingerprint());
        assert!(
            got == (digest, fingerprint),
            "batch {batch:?}: known answers moved; the run now gives ({:#x}, {:#x})",
            got.0,
            got.1
        );
    }
}

/// Known answers for a closed-loop sharded replay under each integrity
/// policy: 2 cores on 4 shards, 600 ns telemetry epochs. Each entry is
/// `(policy, outcome digest, image fingerprint)`, computed like
/// [`KNOWN_ANSWERS`], with 1, 2 and 4 shard workers agreeing.
#[rustfmt::skip]
const POLICY_KNOWN_ANSWERS: [(IntegrityPolicy, u64, u128); 7] = [
    (IntegrityPolicy::None, 0x95d7936745d536ef, 0x9c01c76dbe2ae1544846fc1447f72dba),
    (IntegrityPolicy::MacOnly, 0x8abe546206b1c951, 0x59115b4928a4cadf949af2f11b27d2c4),
    (IntegrityPolicy::Lazy, 0x735247abe2ea61fd, 0x59115b4928a4cadf949af2f11b27d2c4),
    (IntegrityPolicy::Strict, 0x90466db049d2adcb, 0xba59cd2624e03c271243855b420d9d42),
    (IntegrityPolicy::Pipelined, 0xd1e135fe5bab94a7, 0xba59cd2624e03c271243855b420d9d42),
    (IntegrityPolicy::Phoenix, 0x5f4b2b212a8ec7fe, 0x0c7a52330e96d2d98ae460ec95f1eea6),
    (IntegrityPolicy::Colocated, 0xb0c37400d6770586, 0x59115b4928a4cadf949af2f11b27d2c4),
];

#[test]
fn sharded_replay_matches_its_known_answers_under_every_integrity_policy() {
    let cores = 2;
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(5);
    let traces = traces_for_cores(&spec, cores);
    let pinned: Vec<IntegrityPolicy> = POLICY_KNOWN_ANSWERS.iter().map(|a| a.0).collect();
    assert_eq!(
        pinned,
        IntegrityPolicy::ALL,
        "pin every integrity policy once"
    );
    for (policy, digest, fingerprint) in POLICY_KNOWN_ANSWERS {
        let cfg = SimConfig::table2(Design::Sca, cores)
            .with_shards(4)
            .with_integrity(policy)
            .with_telemetry_epoch(Time::from_ns(600));
        let out = System::new(cfg, traces.clone()).run(CrashSpec::None);
        let got = (outcome_digest(&out), out.image.fingerprint());
        assert!(
            got == (digest, fingerprint),
            "{policy:?}: known answers moved; the run now gives ({:#x}, {:#x})",
            got.0,
            got.1
        );
    }
}

/// `with_shard_threads` survives only so callers that pinned the
/// sequential replay still build: 1 changes nothing, and any other
/// worker count is refused rather than silently ignored.
#[test]
#[should_panic(expected = "1 is the only shard worker count")]
fn shard_thread_shim_refuses_worker_threads() {
    let (batch, digest, fingerprint) = KNOWN_ANSWERS[0];
    let pinned = known_answer_system(batch)
        .with_shard_threads(1)
        .run(CrashSpec::None);
    assert_eq!(
        (outcome_digest(&pinned), pinned.image.fingerprint()),
        (digest, fingerprint),
        "with_shard_threads(1) must leave the replay unchanged"
    );
    let _ = known_answer_system(batch).with_shard_threads(2);
}
