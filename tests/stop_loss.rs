//! Osiris-lite stop-loss recovery: the follow-on direction this paper
//! opened (Osiris, MICRO'18). Instead of persisting counters strictly —
//! via counter-atomic pairs or `counter_cache_writeback` — the
//! controller bounds how far any counter may lag (`SimConfig::stop_loss`)
//! and post-crash recovery finds the true counter by searching at most
//! that many candidates, with ECC as the correctness oracle.
//!
//! The punchline: even the `UnsafeNoAtomicity` design — which ignores
//! every counter-atomicity primitive and fails the ordinary crash sweeps
//! on all five workloads — becomes fully crash-consistent once stop-loss
//! bounding and windowed recovery are enabled: every legal image of
//! every post-setup crash state recovers.

use nvmm::sim::config::{Design, SimConfig};
use nvmm::sim::system::{instant_after_events, CrashSpec};
use nvmm::workloads::{
    execute, model_check_breakpoints, ModelCheckOpts, ModelCheckReport, WorkloadKind, WorkloadSpec,
};

const WINDOW: u64 = 4;

fn stop_loss_cfg() -> SimConfig {
    let mut cfg = SimConfig::single_core(Design::UnsafeNoAtomicity);
    cfg.stop_loss = Some(WINDOW);
    cfg
}

/// Model-checks every post-setup crash state of `spec` under the
/// stop-loss design, recovering with a `window`-candidate search; one
/// report per breakpoint.
fn model_check_stop_loss(spec: &WorkloadSpec, window: u64) -> Vec<ModelCheckReport> {
    let opts = ModelCheckOpts {
        recovery_window: window,
        ..ModelCheckOpts::default()
    };
    model_check_breakpoints(spec, stop_loss_cfg(), &opts)
        .into_iter()
        .map(|(_, report)| report)
        .collect()
}

#[test]
fn stop_loss_makes_the_unsafe_design_crash_safe() {
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(8);
        for (i, rep) in model_check_stop_loss(&spec, WINDOW).iter().enumerate() {
            assert!(
                rep.clean(),
                "{kind}: crash state {i}: {} of {} images violate; minimal: {:?}",
                rep.violations,
                rep.images_checked,
                rep.minimal
            );
        }
    }
}

#[test]
fn without_windowed_recovery_the_same_runs_still_fail() {
    // Stop-loss bounding alone is not enough: recovery must search the
    // window. With window = 0 the sweep must fail somewhere.
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(8);
    assert!(
        model_check_stop_loss(&spec, 0).iter().any(|r| !r.clean()),
        "bounded lag without candidate search must still garble"
    );
}

#[test]
fn too_small_a_window_fails() {
    // The lag bound is WINDOW; searching fewer candidates must miss some
    // counters. (A window of 1 can only repair a lag of exactly 1.)
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(8);
    assert!(
        model_check_stop_loss(&spec, 1).iter().any(|r| !r.clean()),
        "a 1-candidate window cannot cover a lag bound of {WINDOW}"
    );
}

#[test]
fn stop_loss_pays_with_extra_counter_writes() {
    // The trade: stop-loss flushes counter lines every WINDOW bumps, so
    // it writes more counters than plain Unsafe but needs no software
    // primitives at all.
    use nvmm::sim::system::System;
    use nvmm::workloads::traces_for_cores;
    let spec = WorkloadSpec::smoke(WorkloadKind::BTree).with_ops(10);
    let traces = traces_for_cores(&spec, 1);

    let plain = System::new(
        SimConfig::single_core(Design::UnsafeNoAtomicity),
        traces.clone(),
    )
    .run(CrashSpec::None);
    let stopped = System::new(stop_loss_cfg(), traces).run(CrashSpec::None);
    assert!(
        stopped.stats.nvmm_counter_writes > plain.stats.nvmm_counter_writes,
        "stop-loss must flush counters periodically ({} vs {})",
        stopped.stats.nvmm_counter_writes,
        plain.stats.nvmm_counter_writes
    );
}

#[test]
fn recovery_reports_how_many_counters_it_searched() {
    use nvmm::core::recovery::RecoveredMemory;
    use nvmm::sim::system::System;
    let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap).with_ops(8);
    let ex = execute(&spec, 0, spec.ops);
    let trace = ex.pm.trace().clone();
    let cfg = stop_loss_cfg();
    let key = cfg.key;
    // Crash late so plenty of lagging counters exist.
    let at = instant_after_events(&cfg, &trace, trace.len() * 3 / 4 + 1);
    let out = System::new(cfg, vec![trace]).run(CrashSpec::AtTime(at));
    let mut mem = RecoveredMemory::new(out.image, key).with_recovery_window(WINDOW);
    let _ = spec.mechanism.recover(&mut mem, &ex.log);
    let committed = mem.read_u64(ex.ops_cell);
    ex.check_structure(&mut mem, committed)
        .expect("stop-loss recovery is consistent");
    assert!(
        mem.counters_recovered() > 0,
        "a late crash must leave some counters to the candidate search"
    );
}
