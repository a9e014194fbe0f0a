//! Recovery cost: how much work post-crash recovery does, as a function
//! of where the crash lands in a transaction — an experiment the paper's
//! infrastructure implies but does not plot.
//!
//! For each workload, the run under SCA is crashed in every post-setup
//! crash state (at each breakpoint, where the crash set changes) and
//! recovery is replayed over its ADR-pessimistic image. The report
//! counts how often recovery was a no-op (disarmed log), how often it
//! rolled a transaction back, and the backup entries it restored — the
//! cost profile that motivates undo logging's tiny recovery time
//! (restore at most one transaction's regions) versus its runtime
//! logging cost.
//!
//! One replay finds a run's breakpoints and, from the same journals,
//! cuts every crash image.
//!
//! A final section prices the *integrity* half of boot: for each
//! integrity policy, the tree nodes [`recovery_cost`] must recompute
//! from a post-crash image before reads can be served — phoenix's
//! whole-tree reconstruction, lazy's interior rebuild, zero for
//! strict/pipelined whose persisted tree is already current
//! (self-checked: phoenix > strict). These land in the artifact as
//! `integrity/<policy>` rows.

use nvmm_bench::{print_table, Experiment};
use nvmm_core::recovery::RecoveredMemory;
use nvmm_core::txn::Mechanism;
use nvmm_crypto::EncryptionEngine;
use nvmm_sim::config::{Design, IntegrityPolicy, SimConfig};
use nvmm_sim::integrity::{recovery_cost, IntegritySpec};
use nvmm_sim::system::{breakpoint_images, instant_after_events, CrashSpec, System};
use nvmm_workloads::{execute, traces_for_cores, WorkloadKind, WorkloadSpec};

fn main() {
    // Phase 1: crash every workload in every post-setup crash state under
    // SCA and replay recovery over each crash image.
    let cfg = SimConfig::single_core(Design::Sca);
    let engine = EncryptionEngine::new(cfg.key);
    let mut exp = Experiment::new("recovery_cost", "recovery work per crash point (SCA)");
    for mech in Mechanism::ALL {
        let mut rows = Vec::new();
        for kind in WorkloadKind::ALL {
            let spec = WorkloadSpec::smoke(kind).with_ops(10).with_mechanism(mech);
            let ex = execute(&spec, 0, spec.ops);
            let row = format!("{mech}/{}", kind.label());
            let (mut armed, mut restored_total, mut points) = (0u64, 0u64, 0u64);
            for (t, image) in breakpoint_images(&cfg, ex.pm.trace(), ex.setup_events) {
                let mut mem = RecoveredMemory::over(&image, engine.clone());
                let report = mech.recover(&mut mem, &ex.log);
                assert!(report.reads_clean, "{row}: garbled recovery at {t}");
                if report.rolled_back {
                    armed += 1;
                    restored_total += report.entries_restored as u64;
                }
                points += 1;
            }
            let noop = points - armed;
            let armed_frac = armed as f64 / points as f64;
            let avg_restored = restored_total as f64 / armed.max(1) as f64;
            exp.insert(&row, "armed_fraction", armed_frac);
            exp.insert(&row, "avg_entries_restored", avg_restored);
            rows.push((
                kind.label().to_string(),
                vec![points as f64, noop as f64, armed as f64, avg_restored],
            ));
        }
        print_table(
            &format!("recovery cost under {mech} logging"),
            &["crash points", "no-op", "log armed", "avg entries restored"],
            &rows,
        );
    }
    println!("\nRecovery restores at most one transaction's regions — bounded,");
    println!("crash-point-independent work, while the runtime cost (logging +");
    println!("counter writebacks) is paid on every transaction.");

    // Phase 2: the integrity side of boot. Crash one workload after a few
    // chosen events under each policy and count the tree nodes recovery
    // must recompute from each surviving image before reads can be
    // served.
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(10);
    let mut integrity_rows = Vec::new();
    let mut boot_mean = Vec::new();
    for policy in IntegrityPolicy::ALL {
        if !policy.enabled() {
            continue;
        }
        let cfg = SimConfig::table2(Design::Sca, 1).with_integrity(policy);
        let ispec = IntegritySpec::from_config(&cfg);
        let traces = traces_for_cores(&spec, 1);
        let total_events = traces[0].len() as u64;
        let (mut sum, mut max, mut points) = (0u64, 0u64, 0u64);
        let mut k = total_events / 8;
        while k <= total_events {
            let at = instant_after_events(&cfg, &traces[0], k as usize + 1);
            let out = System::new(cfg.clone(), traces.clone()).run(CrashSpec::AtTime(at));
            let nodes = recovery_cost(&out.image, ispec);
            sum += nodes;
            max = max.max(nodes);
            points += 1;
            k += (total_events / 4).max(1);
        }
        let mean = sum as f64 / points.max(1) as f64;
        let row = format!("integrity/{}", policy.label());
        exp.insert(&row, "boot_nodes_mean", mean);
        exp.insert(&row, "boot_nodes_max", max as f64);
        integrity_rows.push((
            policy.label().to_string(),
            vec![points as f64, mean, max as f64],
        ));
        boot_mean.push((policy, mean));
    }
    print_table(
        "boot-time integrity recovery (tree nodes recomputed from the crash image)",
        &["crash points", "mean nodes", "max nodes"],
        &integrity_rows,
    );
    let mean_of = |p: IntegrityPolicy| {
        boot_mean
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, m)| *m)
            .unwrap_or(0.0)
    };
    let (phoenix, strict) = (
        mean_of(IntegrityPolicy::Phoenix),
        mean_of(IntegrityPolicy::Strict),
    );
    assert_eq!(strict, 0.0, "strict's persisted tree must recover free");
    assert!(
        phoenix > strict,
        "phoenix must pay a boot-time rebuild (mean {phoenix:.1} nodes) where strict pays none"
    );
    println!(
        "\nboot trade self-check: phoenix rebuilds {phoenix:.1} nodes/boot, strict {strict:.1}"
    );
    let path = exp.save().expect("write results");
    println!("saved {}", path.display());
}
