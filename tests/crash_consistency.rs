//! Integration tests for the paper's central claim: counter-atomicity
//! (full, selective, or by co-location) makes encrypted NVMM crash
//! consistent; its absence does not.
//!
//! These sweep simulated power failures across entire workload traces
//! and run full recovery — decryption with persisted counters, undo-log
//! rollback, structural invariants, and replay-equality against the
//! ground-truth state after the last durable commit.

use nvmm::sim::config::{Design, SimConfig};
use nvmm::sim::system::CrashSpec;
use nvmm::workloads::{crash_check_cfg, crash_sweep, execute, WorkloadKind, WorkloadSpec};

/// Designs that must survive every crash point.
const SAFE_DESIGNS: [Design; 4] = [
    Design::Sca,
    Design::Fca,
    Design::CoLocated,
    Design::CoLocatedCounterCache,
];

#[test]
fn safe_designs_survive_dense_crash_sweeps_on_every_workload() {
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(8);
        for design in SAFE_DESIGNS {
            if let Err((k, e)) = crash_sweep(&spec, SimConfig::single_core(design), 30) {
                panic!("{kind} under {design}: crash after event {k} broke consistency: {e}");
            }
        }
    }
}

#[test]
fn unsafe_design_fails_somewhere_on_every_workload() {
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(8);
        assert!(
            crash_sweep(&spec, SimConfig::single_core(Design::UnsafeNoAtomicity), 40).is_err(),
            "{kind}: encryption without counter-atomicity must exhibit the Fig. 4 failure"
        );
    }
}

#[test]
fn every_single_event_crash_point_is_safe_under_sca_for_queue() {
    // Exhaustive (not sampled) sweep on one workload: every event
    // boundary in the whole trace.
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(6);
    let sca = SimConfig::single_core(Design::Sca);
    let ex = execute(&spec, 0, spec.ops);
    let total = ex.pm.trace().len() as u64;
    let start = ex.setup_events as u64;
    for k in start..total {
        crash_check_cfg(&spec, sca.clone(), CrashSpec::AfterEvent(k), 0)
            .unwrap_or_else(|e| panic!("crash after event {k}/{total}: {e}"));
    }
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
    let sca = SimConfig::single_core(Design::Sca);
    let ex = execute(&spec, 0, spec.ops);
    let total = ex.pm.trace().len() as u64;
    let mut last = 0;
    let mut k = ex.setup_events as u64;
    while k < total {
        let outcome =
            crash_check_cfg(&spec, sca.clone(), CrashSpec::AfterEvent(k), 0).expect("consistent");
        assert!(
            outcome.committed >= last,
            "durable commits went backwards ({last} -> {}) at crash point {k}",
            outcome.committed
        );
        last = outcome.committed;
        k += 7;
    }
    // Crashing after the very last event must see every commit durable.
    let final_outcome = crash_check_cfg(&spec, sca.clone(), CrashSpec::AfterEvent(total - 1), 0)
        .expect("consistent");
    assert!(
        final_outcome.committed >= last,
        "monotonicity holds to the end"
    );
    assert_eq!(
        final_outcome.committed, 8,
        "the final crash point must see every commit"
    );
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
        if let Err((k, e)) = crash_sweep(&spec, SimConfig::single_core(Design::Sca), 12) {
            panic!("seed {seed}: crash after event {k}: {e}");
        }
    }
}

#[test]
fn larger_payloads_still_recover() {
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue)
        .with_ops(4)
        .with_payload_lines(8);
    if let Err((k, e)) = crash_sweep(&spec, SimConfig::single_core(Design::Sca), 15) {
        panic!("8-line payload: crash after event {k}: {e}");
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
            if let Err((k, e)) = crash_sweep(&spec, SimConfig::single_core(design), 25) {
                panic!("{kind} redo under {design}: crash after event {k}: {e}");
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
        if crash_sweep(&spec, SimConfig::single_core(Design::UnsafeNoAtomicity), 40).is_err() {
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
    let sca = SimConfig::single_core(Design::Sca);
    let ex = execute(&spec, 0, spec.ops);
    let total = ex.pm.trace().len() as u64;
    let mut rolled_forward = false;
    for k in (ex.setup_events as u64..total).step_by(3) {
        let outcome =
            crash_check_cfg(&spec, sca.clone(), CrashSpec::AfterEvent(k), 0).expect("consistent");
        if outcome.rolled_back && outcome.committed > 0 {
            rolled_forward = true;
        }
    }
    assert!(
        rolled_forward,
        "an armed redo log must get applied somewhere in the sweep"
    );
}
