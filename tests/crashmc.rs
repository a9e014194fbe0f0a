//! Integration tests for the adversarial crash-image model checker
//! (`nvmm_sim::crashmc` + `nvmm_workloads::model_check_cfg`).
//!
//! The paper's claim is universal: *no* NVMM image ADR can legally
//! leave behind may fail recovery under a counter-atomic design. The
//! sweeps in `crash_consistency.rs` model-check every post-setup crash
//! state; these tests pin the model checker itself: its verdicts at
//! instants where writes are observably in flight, its positive
//! controls, its agreement with full-pass oracles, and the breakpoints
//! that make a sweep over crash states complete.

use nvmm::crypto::mac::MacEngine;
use nvmm::crypto::EncryptionEngine;
use nvmm::sim::config::{Design, Fault, IntegrityPolicy, SimConfig};
use nvmm::sim::system::{
    breakpoint_images, instant_after_events, instants_after_events, CrashSpec, RunOutcome, System,
};
use nvmm::sim::{
    CrashSet, CrashSweep, EnumOpts, EnumStats, IntegritySpec, LandMask, Time, Trace, TraceEvent,
};
use nvmm::workloads::{
    check_crash_set, check_image, crash_instants_cfg, execute, model_check_breakpoints,
    model_check_cfg, model_check_instants_cfg, traces_for_cores, ModelCheckOpts, ModelCheckReport,
    WorkloadKind, WorkloadSpec,
};

fn opts(max_images: usize) -> ModelCheckOpts {
    ModelCheckOpts {
        max_images,
        ..ModelCheckOpts::default()
    }
}

/// Acceptance criterion: across all five workloads under FCA and SCA,
/// every enumerated image at every in-flight crash instant recovers
/// cleanly — and the instants are non-vacuous (the enumerator really
/// had choices to explore).
#[test]
fn safe_designs_have_no_violating_images() {
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        for design in [Design::Fca, Design::Sca] {
            let cfg = SimConfig::single_core(design);
            let o = opts(32);
            let instants = crash_instants_cfg(&spec, cfg.clone(), &o, 6);
            assert!(
                !instants.is_empty(),
                "{kind} under {design}: no in-flight instants found"
            );
            let mut explored_choice = false;
            for &t in &instants {
                let rep = model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), &o);
                explored_choice |= rep.stats.groups > 0;
                assert!(
                    rep.clean(),
                    "{kind} under {design} at {t}: {} of {} images violated; minimal: {:?}",
                    rep.violations,
                    rep.images_checked,
                    rep.minimal
                );
            }
            assert!(
                explored_choice,
                "{kind} under {design}: every instant was vacuous (no choice groups)"
            );
        }
    }
}

/// Positive control for the checker itself: an SCA program that forgets
/// its `counter_cache_writeback()` calls must yield violating images —
/// the Fig. 3(a) failure, found by enumeration rather than by luck.
#[test]
fn missing_counter_writeback_yields_violating_images() {
    let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap).with_ops(4);
    let o = opts(32);
    let sca = SimConfig::single_core(Design::Sca).with_fault(Fault::MissingCounterWritebacks);
    let instants = crash_instants_cfg(&spec, sca.clone(), &o, 8);
    assert!(!instants.is_empty());
    let mut violations = 0;
    let mut minimal_seen = false;
    for &t in &instants {
        let rep = model_check_cfg(&spec, sca.clone(), CrashSpec::AtTime(t), &o);
        violations += rep.violations;
        if let Some(m) = rep.minimal {
            minimal_seen = true;
            // The data line persisted with its counter stranded on chip:
            // recovery must observe the counter/ciphertext mismatch.
            assert!(
                !m.error.0.is_empty(),
                "minimal violation must carry the oracle's error"
            );
        }
    }
    assert!(
        violations >= 1,
        "forgetting every ccwb must produce at least one violating image"
    );
    assert!(
        minimal_seen,
        "violations must come with a minimized witness"
    );
}

/// The crash-unsafe baseline fails the model check somewhere: encrypted
/// writes without counter-atomicity strand counters on chip, which the
/// model check sees at the run's breakpoints, where the crash-instant
/// harvest finds no write in flight.
#[test]
fn unsafe_design_fails_model_check() {
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(4);
    let o = opts(32);
    let cfg = SimConfig::single_core(Design::UnsafeNoAtomicity);
    let violations: usize = model_check_breakpoints(&spec, cfg, &o)
        .iter()
        .map(|(_, r)| r.violations)
        .sum();
    assert!(
        violations >= 1,
        "no counter-atomicity must exhibit the Fig. 4 failure under model check"
    );
}

/// Acceptance criterion: results are bit-identical for a fixed seed and
/// bound — the whole report, not just the verdict.
#[test]
fn model_check_is_deterministic_for_fixed_seed_and_bound() {
    let spec = WorkloadSpec::smoke(WorkloadKind::BTree).with_ops(4);
    let o = opts(16);
    let fca = SimConfig::single_core(Design::Fca);
    let instants = crash_instants_cfg(&spec, fca.clone(), &o, 3);
    assert!(!instants.is_empty());
    for &t in &instants {
        let a = model_check_cfg(&spec, fca.clone(), CrashSpec::AtTime(t), &o);
        let b = model_check_cfg(&spec, fca.clone(), CrashSpec::AtTime(t), &o);
        assert_eq!(a, b, "identical inputs must yield identical reports");
    }
    // The violating path is deterministic too (minimization included).
    let sca = SimConfig::single_core(Design::Sca).with_fault(Fault::MissingCounterWritebacks);
    let instants = crash_instants_cfg(&spec, sca.clone(), &o, 2);
    for &t in &instants {
        let a = model_check_cfg(&spec, sca.clone(), CrashSpec::AtTime(t), &o);
        let b = model_check_cfg(&spec, sca.clone(), CrashSpec::AtTime(t), &o);
        assert_eq!(a, b);
    }
}

/// Acceptance criterion for the integrity subsystem: across all five
/// workloads under SCA with the strict and lazy policies, every
/// enumerated image at every in-flight crash instant passes both the
/// recovery oracle *and* the integrity oracle (MAC authentication plus,
/// under strict, tree-node/child digest agreement).
#[test]
fn integrity_policies_pass_model_check_on_all_workloads() {
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        for policy in [IntegrityPolicy::Strict, IntegrityPolicy::Lazy] {
            let cfg = SimConfig::single_core(Design::Sca).with_integrity(policy);
            let o = opts(32);
            let instants = crash_instants_cfg(&spec, cfg.clone(), &o, 6);
            assert!(
                !instants.is_empty(),
                "{kind} under {policy}: no in-flight instants found"
            );
            for &t in &instants {
                let rep = model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), &o);
                assert!(
                    rep.clean(),
                    "{kind} under {policy} at {t}: {} of {} images violated; minimal: {:?}",
                    rep.violations,
                    rep.images_checked,
                    rep.minimal
                );
            }
        }
    }
}

/// Differential policy conformance: every integrity policy — the three
/// original ones plus pipelined (Freij et al.), phoenix
/// (reconstruction-from-summaries), and colocated (SecPM packed
/// metadata) — model-checks clean on all five workloads under both FCA
/// and SCA. One table, thirty (policy, workload) cells per design; any
/// regression names its exact cell.
#[test]
fn every_integrity_policy_model_checks_clean_on_all_workloads() {
    let policies = [
        IntegrityPolicy::MacOnly,
        IntegrityPolicy::Lazy,
        IntegrityPolicy::Strict,
        IntegrityPolicy::Pipelined,
        IntegrityPolicy::Phoenix,
        IntegrityPolicy::Colocated,
    ];
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        for design in [Design::Fca, Design::Sca] {
            for policy in policies {
                let mut cfg = SimConfig::single_core(design).with_integrity(policy);
                // Emit an epoch summary with every pair so the short
                // smoke runs exercise phoenix's persisted claims too.
                cfg.phoenix_epoch_every = 1;
                let o = opts(24);
                let instants = crash_instants_cfg(&spec, cfg.clone(), &o, 4);
                assert!(
                    !instants.is_empty(),
                    "{kind}/{design}/{policy}: no in-flight instants found"
                );
                for &t in &instants {
                    let rep = model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), &o);
                    assert!(
                        rep.clean(),
                        "{kind}/{design}/{policy} at {t}: {} of {} images violated; minimal: {:?}",
                        rep.violations,
                        rep.images_checked,
                        rep.minimal
                    );
                }
            }
        }
    }
}

/// Differential bug table, one row per [`Fault`]: SCA forgetting its
/// counter-cache write-backs, strict persisting parents before
/// children, pipelined dropping the root dependency from its pair,
/// phoenix journaling a stale epoch summary outside the pair, and SCA
/// forgetting its `CounterAtomic` annotations must each surface as
/// violating images whose minimized witness blames the right oracle, on
/// more than one workload. Forgotten annotations leave no write waiting
/// in flight, so `crash_instants_cfg` harvests no instant under them
/// (the row asserts it); that row sweeps every breakpoint of all five
/// kinds instead. The `match` is exhaustive, so a new fault cannot go
/// without a row.
#[test]
fn injected_policy_bugs_are_caught_with_blaming_witnesses() {
    let sca = |policy| SimConfig::single_core(Design::Sca).with_integrity(policy);
    let pair = [WorkloadKind::ArraySwap, WorkloadKind::Queue];
    for fault in Fault::ALL {
        // The configuration, the blames a witness may carry, the kinds,
        // and whether the instants are breakpoints or harvested.
        type Row<'a> = (SimConfig, &'a [&'a str], &'a [WorkloadKind], bool);
        let (cfg, blame, kinds, breakpoints): Row = match fault {
            // The durable op counter's line decrypts garbled under its
            // stranded counter line, which the checker names before the
            // count it misreads.
            Fault::MissingCounterWritebacks => {
                (sca(IntegrityPolicy::None), &["garbled"], &pair, false)
            }
            Fault::TreeParentFirst => (
                sca(IntegrityPolicy::Strict),
                &["never persisted", "ahead of child"],
                &pair,
                false,
            ),
            Fault::DroppedRootDependency => (
                sca(IntegrityPolicy::Pipelined),
                &["never persisted", "ahead of child"],
                &pair,
                false,
            ),
            Fault::StaleEpoch => {
                let mut c = sca(IntegrityPolicy::Phoenix);
                c.phoenix_epoch_every = 1;
                (c, &["stale epoch"], &pair, false)
            }
            Fault::MissingCounterAtomic => (
                sca(IntegrityPolicy::None),
                &["garbled"],
                &WorkloadKind::ALL,
                true,
            ),
        };
        let cfg = cfg.with_fault(fault);
        for &kind in kinds {
            let spec = WorkloadSpec::smoke(kind).with_ops(4);
            let o = opts(32);
            let harvested = crash_instants_cfg(&spec, cfg.clone(), &o, 8);
            let reports: Vec<ModelCheckReport> = if breakpoints {
                assert!(
                    harvested.is_empty(),
                    "{fault:?}/{kind}: the harvest found an instant"
                );
                let reports = model_check_breakpoints(&spec, cfg.clone(), &o);
                reports.into_iter().map(|(_, r)| r).collect()
            } else {
                model_check_instants_cfg(&spec, cfg.clone(), &harvested, &o)
            };
            assert!(!reports.is_empty(), "{fault:?}/{kind}: no instants");
            let violations: usize = reports.iter().map(|r| r.violations).sum();
            let witnesses: Vec<String> = reports
                .into_iter()
                .filter_map(|r| r.minimal.map(|m| m.error.0))
                .collect();
            assert!(
                violations >= 1,
                "{fault:?}/{kind}: the injected bug produced no violating image"
            );
            assert!(
                witnesses.iter().any(|w| blame.iter().any(|b| w.contains(b))),
                "{fault:?}/{kind}: no witness blamed the expected oracle ({blame:?}): {witnesses:?}"
            );
        }
    }
}

/// Under SCA + strict every write is counter-atomic whatever its
/// annotation, so forgetting the annotations
/// (`Fault::MissingCounterAtomic`) leaves every crash state of all five
/// kinds as it was: the same breakpoints, each with the same image.
#[test]
fn missing_counter_atomic_is_moot_under_strict() {
    let strict = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
    let faulted = strict.clone().with_fault(Fault::MissingCounterAtomic);
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        let ex = execute(&spec, 0, spec.ops);
        let states = |cfg: &SimConfig| -> Vec<(Time, u128)> {
            breakpoint_images(cfg, ex.pm.trace(), ex.setup_events)
                .into_iter()
                .map(|(t, image)| (t, image.fingerprint()))
                .collect()
        };
        assert_eq!(states(&faulted), states(&strict), "{kind}");
    }
}

/// Positive control for the integrity oracle: a strict-policy
/// controller whose tree-path updates persist eagerly instead of riding
/// the counter-atomic pair (the parent-ahead-of-child ordering bug) must
/// yield violating images, and the minimized witness must carry the
/// tree oracle's error.
#[test]
fn injected_tree_ordering_bug_is_caught() {
    let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap).with_ops(4);
    let cfg = SimConfig::single_core(Design::Sca)
        .with_integrity(IntegrityPolicy::Strict)
        .with_fault(Fault::TreeParentFirst);
    let o = opts(32);
    let instants = crash_instants_cfg(&spec, cfg.clone(), &o, 8);
    assert!(!instants.is_empty());
    let mut violations = 0;
    let mut tree_error_seen = false;
    for &t in &instants {
        let rep = model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), &o);
        violations += rep.violations;
        if let Some(m) = rep.minimal {
            tree_error_seen |=
                m.error.0.contains("never persisted") || m.error.0.contains("ahead of child");
        }
    }
    assert!(
        violations >= 1,
        "parent-first tree persistence must produce at least one violating image"
    );
    assert!(
        tree_error_seen,
        "the witness must blame the tree ordering, not an unrelated oracle"
    );
}

/// A run that completes (or quiesces) has exactly one legal image, and
/// the report says so.
#[test]
fn completed_run_has_single_clean_image() {
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(4);
    let sca = SimConfig::single_core(Design::Sca);
    let rep = model_check_cfg(&spec, sca, CrashSpec::None, &opts(32));
    assert!(rep.clean());
    assert_eq!(rep.images_checked, 1);
    assert!(rep.stats.exhaustive);
    assert_eq!(rep.stats.groups, 0);
}

/// Differential acceptance for the fused walk: across all five
/// workloads under SCA with strict integrity, at every harvested
/// in-flight instant, the fused delta walk must produce the same stats,
/// landing masks and fingerprints as the reference materializer
/// `CrashSet::enumerate`, and every walked fingerprint must equal a
/// from-scratch recompute. The crash set's model check — warm shared
/// engines and the walk's delta verdicts — must also count exactly the
/// violations that full-pass `check_image` with fresh per-image engines
/// finds on the reference images.
#[test]
fn incremental_enumeration_matches_eager_on_all_workloads() {
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        let cfg = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
        let integrity = IntegritySpec::from_config(&cfg);
        let ex = execute(&spec, 0, spec.ops);
        let o = opts(32);
        let instants = crash_instants_cfg(&spec, cfg.clone(), &o, 4);
        assert!(!instants.is_empty(), "{kind}: no in-flight instants");
        let engine = EncryptionEngine::new(cfg.key);
        let mac_engine = MacEngine::new(cfg.key);
        for &t in &instants {
            let Some(set) = System::new(cfg.clone(), vec![ex.pm.trace().clone()])
                .run(CrashSpec::AtTime(t))
                .crash_set
            else {
                continue;
            };
            let eopts = enum_opts(&o);
            let reference = set.enumerate(eopts);
            let (walk, _, _) =
                set.enumerate_verified_timed(eopts, 1, integrity, &engine, &mac_engine);
            let what = format!("{kind} at {t}");
            assert_eq!(reference.stats, walk.stats, "{what}");
            assert_eq!(reference.images.len(), walk.images.len(), "{what}");
            for (i, ((rm, ri), (wm, wi))) in reference.images.iter().zip(&walk.images).enumerate() {
                assert_eq!(rm.landed(), wm.landed(), "{what} image {i}: mask");
                assert_eq!(
                    ri.fingerprint(),
                    wi.fingerprint(),
                    "{what} image {i}: fingerprint"
                );
                assert_eq!(
                    wi.fingerprint(),
                    wi.fingerprint_recompute(),
                    "{what} image {i}: incremental fingerprint drifted"
                );
            }
            let report = check_crash_set(&spec, &ex, &set, cfg.key, cfg.design, integrity, &o);
            let fresh: Vec<_> = reference
                .images
                .iter()
                .map(|(_, img)| check_image(&ex, img, &cfg, 0))
                .collect();
            assert_eq!(report.images_checked, fresh.len(), "{kind} at {t}");
            assert_eq!(
                report.violations,
                fresh.iter().filter(|v| v.is_err()).count(),
                "{kind} at {t}: warm and fresh verdicts diverge"
            );
        }
    }
}

/// The harness's verdicts are full-pass verdicts: for Queue and B-Tree
/// under SCA with strict, phoenix and colocated integrity, with and
/// without `Fault::MissingCounterWritebacks`, `model_check_cfg`'s stats,
/// image count, violation count and baseline verdict equal a recount that
/// judges every image of the crash set's fused walk with full-pass
/// `check_image` (fresh engines, the whole integrity oracle), and its
/// minimized witness is an image `check_image` rejects with the same
/// error. Each `model_check_cfg` call checks one instant, which runs on
/// one worker whatever `NVMM_MC_THREADS` says.
#[test]
fn model_check_matches_full_pass_recount() {
    let mut witnesses = 0;
    for kind in [WorkloadKind::Queue, WorkloadKind::BTree] {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        let ex = execute(&spec, 0, spec.ops);
        for policy in [
            IntegrityPolicy::Strict,
            IntegrityPolicy::Phoenix,
            IntegrityPolicy::Colocated,
        ] {
            let plain = SimConfig::single_core(Design::Sca).with_integrity(policy);
            let integrity = IntegritySpec::from_config(&plain);
            let engine = EncryptionEngine::new(plain.key);
            let mac_engine = MacEngine::new(plain.key);
            let o = opts(16);
            for fault in [None, Some(Fault::MissingCounterWritebacks)] {
                let cfg = SimConfig {
                    fault,
                    ..plain.clone()
                };
                for t in crash_instants_cfg(&spec, cfg.clone(), &o, 3) {
                    let what = format!("{kind}/{policy:?} fault={fault:?} at {t}");
                    let rep = model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), &o);
                    let set = System::new(cfg.clone(), vec![ex.pm.trace().clone()])
                        .run(CrashSpec::AtTime(t))
                        .crash_set
                        .expect("an in-flight instant interrupts the run");
                    let (walk, _, _) = set.enumerate_verified_timed(
                        enum_opts(&o),
                        1,
                        integrity,
                        &engine,
                        &mac_engine,
                    );
                    let full: Vec<_> = walk
                        .images
                        .iter()
                        .map(|(_, img)| check_image(&ex, img, &cfg, o.recovery_window))
                        .collect();
                    assert_eq!(rep.stats, walk.stats, "{what}");
                    assert_eq!(rep.images_checked, full.len(), "{what}");
                    assert_eq!(
                        rep.violations,
                        full.iter().filter(|v| v.is_err()).count(),
                        "{what}"
                    );
                    assert_eq!(rep.baseline_violation, full[0].is_err(), "{what}");
                    if let Some(m) = &rep.minimal {
                        let mut mask = LandMask::zeros(set.group_count());
                        for &g in &m.landed {
                            mask.set(g, true);
                        }
                        assert_eq!(
                            check_image(&ex, &set.image(&mask), &cfg, o.recovery_window),
                            Err(m.error.clone()),
                            "{what}: the witness"
                        );
                        witnesses += 1;
                    }
                }
            }
        }
    }
    assert!(witnesses > 0, "no violating instant exercised the witness");
}

/// The model-check bounds as enumeration options.
fn enum_opts(o: &ModelCheckOpts) -> EnumOpts {
    EnumOpts {
        max_images: o.max_images,
        seed: o.seed,
    }
}

/// `trace` without its counter-cache write-backs: the program that
/// `Fault::MissingCounterWritebacks` replays, spelled out as a trace.
/// Only an oracle for the fault, which drops the events in the front
/// end instead.
fn without_counter_writebacks(trace: &Trace) -> Trace {
    trace
        .iter()
        .filter(|e| !matches!(e, TraceEvent::CounterCacheWriteback { .. }))
        .collect()
}

/// `crash_instants_cfg` as it was when the fault was a filtered trace,
/// kept as the oracle for the fault: harvest the plain run of the
/// filtered trace, with the setup boundary remapped to the filtered
/// trace's event index.
fn filtered_trace_instants(spec: &WorkloadSpec, plain: &SimConfig, limit: usize) -> Vec<Time> {
    let ex = execute(spec, 0, spec.ops);
    let trace = without_counter_writebacks(ex.pm.trace());
    let setup_events = ex
        .pm
        .trace()
        .iter()
        .take(ex.setup_events)
        .filter(|e| !matches!(e, TraceEvent::CounterCacheWriteback { .. }))
        .count();
    let setup_end = instant_after_events(plain, &trace, setup_events);
    let out = System::new(plain.clone(), vec![trace]).run(CrashSpec::None);
    thinned_midpoints(&out, setup_end, limit)
}

/// The midpoints of `out`'s persist windows at or after `from`, sorted,
/// deduplicated and thinned by an even stride to at most `limit`, as
/// `crash_instants_cfg` harvests them.
fn thinned_midpoints(out: &RunOutcome, from: Time, limit: usize) -> Vec<Time> {
    let mut mids: Vec<Time> = out
        .persist_windows
        .iter()
        .map(|&(s, g)| Time::from_ps(s.0 + (g.0 - s.0) / 2))
        .filter(|&m| m >= from)
        .collect();
    mids.sort_unstable();
    mids.dedup();
    if limit == 0 || mids.len() <= limit {
        return mids;
    }
    (0..limit).map(|i| mids[i * mids.len() / limit]).collect()
}

/// `Fault::MissingCounterWritebacks` on the trace as written is the
/// plain configuration on the trace without its counter-cache
/// write-backs. For all five kinds under SCA and SCA + strict, on 1 and
/// 2 shards and on 1 and 2 cores, both give every harvested instant the
/// same crash-set baseline fingerprint and enumeration stats, and the
/// crash-free runs the same stats and image. The faulted run counts the
/// events it drops, so its `events_processed` is the written length.
/// On one core `crash_instants_cfg` harvests exactly the instants of
/// the filtered trace with its setup boundary remapped, unthinned and
/// thinned; on two, the instants are the filtered run's own thinned
/// window midpoints.
#[test]
fn missing_counter_writebacks_fault_replays_the_filtered_trace() {
    let o = opts(32);
    let eopts = enum_opts(&o);
    let len = |traces: &[Trace]| traces.iter().map(|t| t.len() as u64).sum::<u64>();
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        for policy in [IntegrityPolicy::None, IntegrityPolicy::Strict] {
            for (shards, cores) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
                let what = format!("{kind}/{policy} on {shards} shards, {cores} cores");
                let plain = SimConfig::table2(Design::Sca, cores)
                    .with_integrity(policy)
                    .with_shards(shards);
                let faulted = plain.clone().with_fault(Fault::MissingCounterWritebacks);
                let written = traces_for_cores(&spec, cores);
                let filtered: Vec<Trace> = written.iter().map(without_counter_writebacks).collect();
                assert!(len(&filtered) < len(&written), "{what}: nothing to drop");
                let faulted_end =
                    System::new(faulted.clone(), written.clone()).run(CrashSpec::None);
                let plain_end = System::new(plain.clone(), filtered.clone()).run(CrashSpec::None);
                assert_eq!(faulted_end.events_processed, len(&written), "{what}");
                assert_eq!(plain_end.events_processed, len(&filtered), "{what}");
                assert_eq!(faulted_end.stats, plain_end.stats, "{what}");
                assert_eq!(
                    faulted_end.image.fingerprint(),
                    plain_end.image.fingerprint(),
                    "{what}"
                );
                let instants = if cores == 1 {
                    let harvest = |limit| {
                        let harvested = crash_instants_cfg(&spec, faulted.clone(), &o, limit);
                        let oracle = filtered_trace_instants(&spec, &plain, limit);
                        assert_eq!(harvested, oracle, "{what}: limit {limit}");
                        harvested
                    };
                    // Every post-setup midpoint, then the sample judged.
                    harvest(0);
                    harvest(16)
                } else {
                    thinned_midpoints(&plain_end, Time::ZERO, 16)
                };
                assert!(!instants.is_empty(), "{what}: no instants");
                let a = System::new(faulted, written).run_crash_sweep();
                let b = System::new(plain, filtered).run_crash_sweep();
                let (mut a, mut b) = (a.cursor(), b.cursor());
                for &t in &instants {
                    let (x, y) = (a.crash_set(t), b.crash_set(t));
                    assert_eq!(
                        x.baseline().fingerprint(),
                        y.baseline().fingerprint(),
                        "{what} at {t}: baseline"
                    );
                    assert_eq!(
                        x.enumerate(eopts).stats,
                        y.enumerate(eopts).stats,
                        "{what} at {t}: enumeration"
                    );
                }
            }
        }
    }
}

/// The superseded per-instant path, kept as the oracle for the crash
/// sweep: execute, simulate from time zero to the instant, check the
/// crash set — or, when the run completes first, check its one image
/// exactly as a crash-free model check does.
fn per_instant_oracle(
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    t: Time,
    o: &ModelCheckOpts,
) -> ModelCheckReport {
    let ex = execute(spec, 0, spec.ops);
    let out = System::new(cfg.clone(), vec![ex.pm.trace().clone()]).run(CrashSpec::AtTime(t));
    match out.crash_set {
        Some(set) => check_crash_set(
            spec,
            &ex,
            &set,
            cfg.key,
            cfg.design,
            IntegritySpec::from_config(cfg),
            o,
        ),
        None => model_check_cfg(spec, cfg.clone(), CrashSpec::None, o),
    }
}

/// The one-simulation sweep returns, in the caller's instant
/// order, exactly the reports of a per-instant simulate-then-check loop
/// — minimized witnesses included — for every workload under FCA, SCA,
/// SCA+strict, SCA+strict with `Fault::TreeParentFirst`, and SCA with
/// `Fault::MissingCounterWritebacks`. The instants are unsorted and
/// duplicated, and include one at time zero (before any event runs) and
/// one after the run completes.
#[test]
fn model_check_instants_matches_sequential_loop() {
    let strict = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
    let rows = [
        ("FCA", SimConfig::single_core(Design::Fca)),
        ("SCA", SimConfig::single_core(Design::Sca)),
        ("SCA+strict", strict.clone()),
        (
            "SCA+strict+tree-bug",
            strict.with_fault(Fault::TreeParentFirst),
        ),
        (
            "SCA w/o ccwb",
            SimConfig::single_core(Design::Sca).with_fault(Fault::MissingCounterWritebacks),
        ),
    ];
    let o = &opts(16);
    let mut witnesses = 0;
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(3);
        for (label, cfg) in &rows {
            let mut instants = crash_instants_cfg(&spec, cfg.clone(), o, 3);
            assert!(!instants.is_empty(), "{kind} under {label}: no instants");
            instants.reverse();
            instants.push(instants[0]);
            instants.insert(1, Time::from_ns(1_000_000_000));
            instants.push(Time::ZERO);
            let batch = model_check_instants_cfg(&spec, cfg.clone(), &instants, o);
            assert_eq!(batch.len(), instants.len());
            for (rep, &t) in batch.iter().zip(&instants) {
                let oracle = per_instant_oracle(&spec, cfg, t, o);
                assert_eq!(
                    rep.minimal, oracle.minimal,
                    "{kind} under {label} at {t}: witnesses diverge"
                );
                assert_eq!(
                    *rep, oracle,
                    "{kind} under {label} at {t}: sweep and per-instant reports diverge"
                );
                witnesses += rep.minimal.is_some() as usize;
            }
            // The one-instant case of the same code agrees too.
            let t = instants[0];
            assert_eq!(
                model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), o),
                batch[0],
                "{kind} under {label} at {t}: model_check_cfg diverges"
            );
        }
    }
    assert!(
        witnesses > 0,
        "no violating instant exercised the witnesses"
    );
}

/// `instant_after_events` as it was before one replay served many
/// counts: replay a copy of the trace's first `n` events to completion.
/// Kept only as the oracle for `instants_after_events`.
fn instant_after_prefix(cfg: &SimConfig, trace: &Trace, n: usize) -> Time {
    let prefix: Trace = trace.iter().take(n).collect();
    System::new(cfg.clone(), vec![prefix])
        .run(CrashSpec::None)
        .stats
        .runtime
}

/// One replay paused at many event counts gives each count the instant
/// a replay of that many events ends at. For the five kinds under SCA,
/// FCA and SCA + strict on one and two shards, one call serves every
/// count from 0 to one past the trace's end, in descending order with
/// the setup count repeated. The prefix replays, each as long as its
/// count, check every 11th count, the setup count and the four largest
/// (a replay per count would cost the square of the trace length), and
/// `instant_after_events`, the one-count case, agrees at the setup
/// count.
#[test]
fn instants_after_events_match_prefix_replays() {
    let strict = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
    let configs = [
        SimConfig::single_core(Design::Sca),
        SimConfig::single_core(Design::Fca),
        strict,
    ];
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        let ex = execute(&spec, 0, spec.ops);
        let trace = ex.pm.trace();
        for (cfg, shards) in configs.iter().flat_map(|c| [(c, 1), (c, 2)]) {
            let cfg = cfg.clone().with_shards(shards);
            let what = format!(
                "{kind}/{}/{:?} on {shards} shards",
                cfg.design, cfg.integrity
            );
            let counts: Vec<usize> = (0..=trace.len() + 1)
                .rev()
                .chain([ex.setup_events])
                .collect();
            let instants = instants_after_events(&cfg, trace, &counts);
            assert_eq!(instants.len(), counts.len(), "{what}");
            for (&n, &t) in counts.iter().zip(&instants) {
                if n % 11 == 0 || n == ex.setup_events || n + 2 >= trace.len() {
                    assert_eq!(
                        t,
                        instant_after_prefix(&cfg, trace, n),
                        "{what}: {n} events"
                    );
                }
            }
            assert_eq!(
                instant_after_events(&cfg, trace, ex.setup_events),
                instant_after_prefix(&cfg, trace, ex.setup_events),
                "{what}: the one-count case"
            );
        }
    }
}

/// What a crash state shows the model checker: its baseline's
/// fingerprint, the fingerprints of the images `eopts` enumerates, and
/// the enumeration's accounting.
type StateView = (u128, Vec<u128>, EnumStats);

fn state_view(set: &CrashSet, eopts: EnumOpts) -> StateView {
    let e = set.enumerate(eopts);
    let images = e.images.iter().map(|(_, img)| img.fingerprint()).collect();
    (set.baseline().fingerprint(), images, e.stats)
}

/// The crash state a separate crash run at `t` leaves, and whether the
/// run completed before `t`: its crash set's view, or the completed
/// image as a one-image state with nothing in flight.
fn crash_run_view(cfg: &SimConfig, trace: &Trace, t: Time, eopts: EnumOpts) -> (StateView, bool) {
    let out = System::new(cfg.clone(), vec![trace.clone()]).run(CrashSpec::AtTime(t));
    let Some(set) = out.crash_set else {
        let fp = out.image.fingerprint();
        let stats = EnumStats {
            groups: 0,
            groups_pruned: 0,
            domains: 0,
            masks_explored: 1,
            images_unique: 1,
            images_deduped: 0,
            exhaustive: true,
        };
        return ((fp, vec![fp], stats), true);
    };
    (state_view(&set, eopts), false)
}

/// Breakpoint completeness: a crash at any post-setup instant sees the
/// crash set of the largest breakpoint at or before it. For the five
/// kinds under SCA, FCA and SCA + strict on one and two shards, the
/// dense instants are every post-setup scheduling point (the instant
/// after each event) and each breakpoint with 1 ps either side of it.
/// One sweep's cursor cuts each dense instant's crash set, which must
/// equal the set the same sweep cuts at the largest breakpoint at or
/// before it in baseline fingerprint, enumerated image fingerprints and
/// `EnumStats`. Separate `AtTime` crash runs check the sweep itself: for
/// one kind per configuration and shard count at every breakpoint and
/// 1 ps either side of it, and for the rest at every 16th dense instant;
/// each also at the last dense instant, which the run completes before.
/// A crash run at the last breakpoint must not complete: no breakpoint
/// lies after the end, so every breakpoint's state is a crash set the
/// run itself reports.
#[test]
fn breakpoints_cover_every_crash_instant() {
    let eopts = enum_opts(&opts(32));
    let strict = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
    let configs = [
        SimConfig::single_core(Design::Sca),
        SimConfig::single_core(Design::Fca),
        strict,
    ];
    let (mut crash_runs, mut reached_end) = (0, 0);
    for (k, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        let ex = execute(&spec, 0, spec.ops);
        let trace = ex.pm.trace();
        let runs = configs.iter().flat_map(|c| [(c, 1), (c, 2)]);
        for (c, (cfg, shards)) in runs.enumerate() {
            let cfg = cfg.clone().with_shards(shards);
            let what = format!(
                "{kind}/{}/{:?} on {shards} shards",
                cfg.design, cfg.integrity
            );
            let (from, sweep) = CrashSweep::one_core(&cfg, trace, ex.setup_events);
            let points = sweep.breakpoints(from);
            let last = *points.last().expect("the setup boundary");
            assert!(
                !crash_run_view(&cfg, trace, last, eopts).1,
                "{what}: a breakpoint after the end"
            );
            let near_point = |t: Time| {
                [t.0.saturating_sub(1), t.0, t.0 + 1]
                    .iter()
                    .any(|&p| points.binary_search(&Time(p)).is_ok())
            };
            let counts: Vec<usize> = (ex.setup_events..=trace.len()).collect();
            let mut instants: Vec<Time> = instants_after_events(&cfg, trace, &counts)
                .into_iter()
                .chain(
                    points
                        .iter()
                        .flat_map(|t| [t.0.saturating_sub(1), t.0, t.0 + 1].map(Time)),
                )
                .filter(|&t| t >= points[0])
                .collect();
            instants.sort_unstable();
            instants.dedup();
            let mut cursor = sweep.cursor();
            let states: Vec<StateView> = points
                .iter()
                .map(|&t| state_view(&cursor.crash_set(t), eopts))
                .collect();
            let every_point = k == c % WorkloadKind::ALL.len();
            let mut cursor = sweep.cursor();
            for (i, &t) in instants.iter().enumerate() {
                let b = points.partition_point(|&p| p <= t) - 1;
                let got = state_view(&cursor.crash_set(t), eopts);
                let at = format!("{what} at {t} (breakpoint {})", points[b]);
                assert_eq!(got, states[b], "{at}");
                let probed = if every_point {
                    near_point(t)
                } else {
                    i % 16 == 0
                };
                if probed || i + 1 == instants.len() {
                    let (run, completed) = crash_run_view(&cfg, trace, t, eopts);
                    assert_eq!(got, run, "{at}: a separate crash run");
                    crash_runs += 1;
                    reached_end += usize::from(completed);
                }
            }
        }
    }
    assert!(crash_runs > 2_000, "only {crash_runs} crash runs");
    assert!(
        reached_end > 0,
        "no instant lay past the last scheduling point"
    );
}

/// FNV-1a over the instants' picosecond counts.
fn instants_digest(instants: &[Time]) -> u64 {
    instants
        .iter()
        .flat_map(|t| t.0.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Known answers for `crash_instants_cfg`, the benchmark's crash-instant
/// generator: per row, the count, first and last instant (ps) and the
/// FNV-1a digest of every post-setup persist-window midpoint, for the
/// five kinds under SCA + strict and HashTable with
/// `Fault::TreeParentFirst`. Most of each run's windows lie in setup,
/// so a moved setup boundary moves the count and the first instant.
#[test]
fn crash_instants_match_known_answers() {
    const KNOWN: [(WorkloadKind, bool, usize, u64, u64, u64); 6] = [
        (
            WorkloadKind::ArraySwap,
            false,
            288,
            13_442_500,
            121_138_500,
            0x2955_33fc_ff35_e9c7,
        ),
        (
            WorkloadKind::Queue,
            false,
            276,
            1_203_750,
            101_870_250,
            0x744a_09f7_1c25_5a37,
        ),
        (
            WorkloadKind::HashTable,
            false,
            304,
            1_431_000,
            111_536_250,
            0x2bed_924d_06ad_0866,
        ),
        (
            WorkloadKind::BTree,
            false,
            335,
            1_225_500,
            110_684_000,
            0x7a0f_7cbd_ed00_c699,
        ),
        (
            WorkloadKind::RbTree,
            false,
            411,
            1_225_500,
            120_312_750,
            0xab41_30e6_cc94_3ad0,
        ),
        (
            WorkloadKind::HashTable,
            true,
            452,
            1_331_000,
            104_864_250,
            0x7aec_eb62_c390_d007,
        ),
    ];
    let strict = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
    for (kind, tree_bug, count, first, last, digest) in KNOWN {
        let cfg = match tree_bug {
            true => strict.clone().with_fault(Fault::TreeParentFirst),
            false => strict.clone(),
        };
        let spec = WorkloadSpec::smoke(kind).with_ops(16).with_payload_lines(8);
        let got = crash_instants_cfg(&spec, cfg, &ModelCheckOpts::default(), 0);
        let what = format!("{kind}, tree bug {tree_bug}");
        assert_eq!(got.len(), count, "{what}: count");
        assert_eq!(got[0].0, first, "{what}: first");
        assert_eq!(got[count - 1].0, last, "{what}: last");
        assert_eq!(instants_digest(&got), digest, "{what}: digest");
    }
}
