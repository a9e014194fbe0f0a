//! Integration tests for the paper's central claim: counter-atomicity
//! (full, selective, or by co-location) makes encrypted NVMM crash
//! consistent; its absence does not.
//!
//! These crash each workload run in every post-setup crash state — at
//! each breakpoint of the run, where its crash set changes — and run
//! full recovery — decryption with persisted counters, undo-log
//! rollback, structural invariants, and replay-equality against the
//! ground-truth state after the last durable commit. The sweeps
//! model-check every legal image of each state; the others judge each
//! state's ADR-pessimistic image.

use nvmm::sim::config::{Design, SimConfig};
use nvmm::sim::system::{breakpoint_images, CrashSpec};
use nvmm::sim::Time;
use nvmm::workloads::{
    check_images, crash_check_cfg, execute, model_check_breakpoints, CrashCheckOutcome,
    MinimalViolation, ModelCheckOpts, WorkloadKind, WorkloadSpec,
};

/// Designs that must survive every crash point.
const SAFE_DESIGNS: [Design; 4] = [
    Design::Sca,
    Design::Fca,
    Design::CoLocated,
    Design::CoLocatedCounterCache,
];

/// Model-checks every legal image of every post-setup crash state of
/// `spec` under `cfg`; returns the first violating state's instant and
/// minimized witness.
fn first_violation(spec: &WorkloadSpec, cfg: SimConfig) -> Option<(Time, MinimalViolation)> {
    model_check_breakpoints(spec, cfg, &ModelCheckOpts::default())
        .into_iter()
        .find_map(|(t, r)| r.minimal.map(|m| (t, m)))
}

/// The recovery outcome of every post-setup crash state's
/// ADR-pessimistic image under `cfg`, in crash-time order.
fn baseline_outcomes(spec: &WorkloadSpec, cfg: &SimConfig) -> Vec<(Time, CrashCheckOutcome)> {
    let ex = execute(spec, 0, spec.ops);
    let images = breakpoint_images(cfg, ex.pm.trace(), ex.setup_events);
    check_images(&ex, &images, cfg, 0).unwrap_or_else(|(t, e)| panic!("crash at {t}: {e}"))
}

#[test]
fn safe_designs_survive_dense_crash_sweeps_on_every_workload() {
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(8);
        for design in SAFE_DESIGNS {
            if let Some((t, m)) = first_violation(&spec, SimConfig::single_core(design)) {
                panic!("{kind} under {design}: a crash at {t} broke consistency: {m:?}");
            }
        }
    }
}

#[test]
fn unsafe_design_fails_somewhere_on_every_workload() {
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(8);
        assert!(
            first_violation(&spec, SimConfig::single_core(Design::UnsafeNoAtomicity)).is_some(),
            "{kind}: encryption without counter-atomicity must exhibit the Fig. 4 failure"
        );
    }
}

#[test]
fn every_crash_state_is_safe_under_sca_for_queue() {
    // Exhaustive (not sampled) on one workload: the pessimistic image of
    // every post-setup crash state, which every event-aligned crash
    // image is.
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(6);
    let outcomes = baseline_outcomes(&spec, &SimConfig::single_core(Design::Sca));
    assert!(outcomes.len() > 100, "only {} crash states", outcomes.len());
}

#[test]
fn committed_transactions_are_durable() {
    // Crash strictly after the whole run: everything must be present.
    let spec = WorkloadSpec::smoke(WorkloadKind::BTree).with_ops(10);
    let sca = SimConfig::single_core(Design::Sca);
    let outcome = crash_check_cfg(&spec, sca, CrashSpec::None, 0).expect("consistent");
    assert_eq!(
        outcome.committed, 10,
        "all commits must be durable with no crash"
    );
    assert!(!outcome.rolled_back);
}

#[test]
fn recovered_commit_counts_are_monotonic_in_crash_point() {
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(8);
    let outcomes = baseline_outcomes(&spec, &SimConfig::single_core(Design::Sca));
    let mut last = 0;
    for (t, outcome) in &outcomes {
        assert!(
            outcome.committed >= last,
            "durable commits went backwards ({last} -> {}) at {t}",
            outcome.committed
        );
        last = outcome.committed;
    }
    // The last crash state, every write guaranteed, sees every commit.
    assert_eq!(last, 8, "the final crash state must see every commit");
}

#[test]
fn crash_at_wall_clock_times_is_also_safe() {
    let spec = WorkloadSpec::smoke(WorkloadKind::RbTree).with_ops(6);
    let sca = SimConfig::single_core(Design::Sca);
    // Sample wall-clock instants instead of event indexes.
    for ns in [1_000u64, 5_000, 20_000, 50_000, 100_000] {
        crash_check_cfg(
            &spec,
            sca.clone(),
            CrashSpec::AtTime(nvmm::sim::Time::from_ns(ns)),
            0,
        )
        .unwrap_or_else(|e| panic!("crash at {ns}ns: {e}"));
    }
}

#[test]
fn different_seeds_still_recover() {
    for seed in [1u64, 99, 123_456] {
        let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap)
            .with_ops(6)
            .with_seed(seed);
        if let Some((t, m)) = first_violation(&spec, SimConfig::single_core(Design::Sca)) {
            panic!("seed {seed}: crash at {t}: {m:?}");
        }
    }
}

#[test]
fn larger_payloads_still_recover() {
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue)
        .with_ops(4)
        .with_payload_lines(8);
    if let Some((t, m)) = first_violation(&spec, SimConfig::single_core(Design::Sca)) {
        panic!("8-line payload: crash at {t}: {m:?}");
    }
}

#[test]
fn redo_logging_is_also_crash_safe_on_every_workload() {
    // §4.2: the selective-counter-atomicity insight applies to any
    // versioned mechanism; here is redo logging surviving the same
    // sweeps.
    use nvmm::core::txn::Mechanism;
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind)
            .with_ops(8)
            .with_mechanism(Mechanism::RedoLog);
        for design in [Design::Sca, Design::Fca] {
            if let Some((t, m)) = first_violation(&spec, SimConfig::single_core(design)) {
                panic!("{kind} redo under {design}: crash at {t}: {m:?}");
            }
        }
    }
}

#[test]
fn redo_logging_without_atomicity_is_unsafe_too() {
    use nvmm::core::txn::Mechanism;
    let mut failures = 0;
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind)
            .with_ops(8)
            .with_mechanism(Mechanism::RedoLog);
        if first_violation(&spec, SimConfig::single_core(Design::UnsafeNoAtomicity)).is_some() {
            failures += 1;
        }
    }
    assert!(
        failures >= 3,
        "most workloads must exhibit the failure under redo too"
    );
}

#[test]
fn redo_can_roll_forward_past_the_crash_point() {
    // Redo's commit point precedes the in-place apply: for some crash
    // points the recovered op count exceeds what a rollback mechanism
    // would keep. Verify at least one roll-forward happens in a sweep.
    use nvmm::core::txn::Mechanism;
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue)
        .with_ops(6)
        .with_mechanism(Mechanism::RedoLog);
    let outcomes = baseline_outcomes(&spec, &SimConfig::single_core(Design::Sca));
    let rolled_forward = outcomes
        .iter()
        .any(|(_, o)| o.rolled_back && o.committed > 0);
    assert!(
        rolled_forward,
        "an armed redo log must get applied somewhere in the sweep"
    );
}
