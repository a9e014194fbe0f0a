//! Integration tests for the adversarial crash-image model checker
//! (`nvmm_sim::crashmc` + `nvmm_workloads::model_check_cfg`).
//!
//! The paper's claim is universal: *no* NVMM image ADR can legally
//! leave behind may fail recovery under a counter-atomic design. The
//! crash sweeps in `crash_consistency.rs` test one pessimistic image
//! per crash point; these tests enumerate the whole legal image set at
//! instants where writes are observably in flight.

use nvmm::crypto::mac::MacEngine;
use nvmm::crypto::EncryptionEngine;
use nvmm::sim::config::{Design, IntegrityPolicy, SimConfig};
use nvmm::sim::system::{CrashSpec, System};
use nvmm::sim::{EnumOpts, IntegritySpec, LandMask, Time, Trace, TraceEvent};
use nvmm::workloads::{
    check_crash_set, check_image, crash_instants_cfg, execute, model_check_cfg,
    model_check_instants_cfg, Executed, ModelCheckOpts, ModelCheckReport, WorkloadKind,
    WorkloadSpec,
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
    let o = ModelCheckOpts {
        strip_counter_writebacks: true,
        max_images: 32,
        ..ModelCheckOpts::default()
    };
    let sca = SimConfig::single_core(Design::Sca);
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
        "stripping every ccwb must produce at least one violating image"
    );
    assert!(
        minimal_seen,
        "violations must come with a minimized witness"
    );
}

/// The crash-unsafe baseline fails the model check somewhere: encrypted
/// writes without counter-atomicity strand counters on chip, which the
/// single-image oracle already sees at event-aligned crash points.
#[test]
fn unsafe_design_fails_model_check() {
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(4);
    let ex = execute(&spec, 0, spec.ops);
    let total = ex.pm.trace().len() as u64;
    let start = ex.setup_events as u64;
    let o = opts(32);
    let cfg = SimConfig::single_core(Design::UnsafeNoAtomicity);
    let step = ((total - start) / 20).max(1);
    let mut violations = 0;
    let mut k = start;
    while k < total {
        let rep = model_check_cfg(&spec, cfg.clone(), CrashSpec::AfterEvent(k), &o);
        violations += rep.violations;
        k += step;
    }
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
    let o = ModelCheckOpts {
        strip_counter_writebacks: true,
        ..opts(16)
    };
    let sca = SimConfig::single_core(Design::Sca);
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

/// Differential bug table: each policy's characteristic ordering bug —
/// strict persisting parents before children, pipelined dropping the
/// root dependency from its pair, phoenix journaling a stale epoch
/// summary outside the pair — must surface as violating images whose
/// minimized witness blames the right oracle, on more than one
/// workload.
#[test]
fn injected_policy_bugs_are_caught_with_blaming_witnesses() {
    struct Row {
        name: &'static str,
        cfg: SimConfig,
        blame: &'static [&'static str],
    }
    let rows = [
        Row {
            name: "strict/parent-first",
            cfg: SimConfig::single_core(Design::Sca)
                .with_integrity(IntegrityPolicy::Strict)
                .with_tree_bug(),
            blame: &["never persisted", "ahead of child"],
        },
        Row {
            name: "pipelined/dropped-dependency",
            cfg: SimConfig::single_core(Design::Sca)
                .with_integrity(IntegrityPolicy::Pipelined)
                .with_pipeline_bug(),
            blame: &["never persisted", "ahead of child"],
        },
        Row {
            name: "phoenix/stale-epoch",
            cfg: {
                let mut c = SimConfig::single_core(Design::Sca)
                    .with_integrity(IntegrityPolicy::Phoenix)
                    .with_phoenix_bug();
                c.phoenix_epoch_every = 1;
                c
            },
            blame: &["stale epoch"],
        },
    ];
    for row in &rows {
        for kind in [WorkloadKind::ArraySwap, WorkloadKind::Queue] {
            let spec = WorkloadSpec::smoke(kind).with_ops(4);
            let o = opts(32);
            let instants = crash_instants_cfg(&spec, row.cfg.clone(), &o, 8);
            assert!(!instants.is_empty(), "{}/{kind}: no instants", row.name);
            let mut violations = 0;
            let mut blamed = false;
            for &t in &instants {
                let rep = model_check_cfg(&spec, row.cfg.clone(), CrashSpec::AtTime(t), &o);
                violations += rep.violations;
                if let Some(m) = rep.minimal {
                    blamed |= row.blame.iter().any(|b| m.error.0.contains(b));
                }
            }
            assert!(
                violations >= 1,
                "{}/{kind}: the injected bug produced no violating image",
                row.name
            );
            assert!(
                blamed,
                "{}/{kind}: no witness blamed the expected oracle ({:?})",
                row.name, row.blame
            );
        }
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
        .with_tree_bug();
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
/// in-flight instant, the fused delta walk on one worker and on four
/// must produce the same stats, landing masks and fingerprints as the
/// reference materializer `CrashSet::enumerate`, and every walked
/// fingerprint must equal a from-scratch recompute. The crash set's
/// model check — warm shared engines and the walk's delta verdicts —
/// must also count exactly the violations that full-pass `check_image`
/// with fresh per-image engines finds on the reference images.
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
            for threads in [1, 4] {
                let (walk, _, _) =
                    set.enumerate_verified_timed(eopts, threads, integrity, &engine, &mac_engine);
                let what = format!("{kind} at {t} ({threads} threads)");
                assert_eq!(reference.stats, walk.stats, "{what}");
                assert_eq!(reference.images.len(), walk.images.len(), "{what}");
                for (i, ((rm, ri), (wm, wi))) in
                    reference.images.iter().zip(&walk.images).enumerate()
                {
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
            }
            let report = check_crash_set(&spec, &ex, &set, cfg.key, cfg.design, integrity, &o);
            let fresh: Vec<_> = reference
                .images
                .iter()
                .map(|(_, img)| check_image(&spec, &ex, img, &cfg, 0))
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
/// without counter-cache write-backs, `model_check_cfg`'s stats, image
/// count, violation count and baseline verdict equal a recount that
/// judges every image of the crash set's fused walk with full-pass
/// `check_image` (fresh engines, the whole integrity oracle), and its
/// minimized witness is an image `check_image` rejects with the same
/// error. The worker-count dimension comes from the CI matrix, which
/// runs this suite under `NVMM_MC_THREADS=1`, `=3` and `=4`.
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
            let cfg = SimConfig::single_core(Design::Sca).with_integrity(policy);
            let integrity = IntegritySpec::from_config(&cfg);
            let engine = EncryptionEngine::new(cfg.key);
            let mac_engine = MacEngine::new(cfg.key);
            for strip in [false, true] {
                let o = ModelCheckOpts {
                    strip_counter_writebacks: strip,
                    ..opts(16)
                };
                for t in crash_instants_cfg(&spec, cfg.clone(), &o, 3) {
                    let what = format!("{kind}/{policy:?} strip={strip} at {t}");
                    let rep = model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), &o);
                    let set = System::new(cfg.clone(), vec![prepared_trace(&ex, &o)])
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
                        .map(|(_, img)| check_image(&spec, &ex, img, &cfg, o.recovery_window))
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
                            check_image(&spec, &ex, &set.image(&mask), &cfg, o.recovery_window),
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

/// The workload trace as a model check under `o` replays it: without
/// counter-cache write-backs when `o` strips them.
fn prepared_trace(ex: &Executed, o: &ModelCheckOpts) -> Trace {
    ex.pm
        .trace()
        .events()
        .iter()
        .filter(|e| {
            !(o.strip_counter_writebacks && matches!(e, TraceEvent::CounterCacheWriteback { .. }))
        })
        .cloned()
        .collect()
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
    let out = System::new(cfg.clone(), vec![prepared_trace(&ex, o)]).run(CrashSpec::AtTime(t));
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
/// SCA+strict, SCA+strict with the injected tree bug, and SCA without
/// counter-cache write-backs. The instants are unsorted and duplicated,
/// and include one at time zero (before any event runs) and one after
/// the run completes.
#[test]
fn model_check_instants_matches_sequential_loop() {
    let strict = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
    let stripped = ModelCheckOpts {
        strip_counter_writebacks: true,
        ..opts(16)
    };
    let rows = [
        ("FCA", SimConfig::single_core(Design::Fca), opts(16)),
        ("SCA", SimConfig::single_core(Design::Sca), opts(16)),
        ("SCA+strict", strict.clone(), opts(16)),
        ("SCA+strict+tree-bug", strict.with_tree_bug(), opts(16)),
        (
            "SCA w/o ccwb",
            SimConfig::single_core(Design::Sca),
            stripped,
        ),
    ];
    let mut witnesses = 0;
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(3);
        for (label, cfg, o) in &rows {
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
