//! Recovery cost: how much work post-crash recovery does, as a function
//! of where the crash lands in a transaction — an experiment the paper's
//! infrastructure implies but does not plot.
//!
//! For each workload, crashes are swept across the trace under SCA and
//! recovery is replayed. The report counts how often recovery was a
//! no-op (disarmed log), how often it rolled a transaction back, and the
//! backup entries it restored — the cost profile that motivates undo
//! logging's tiny recovery time (restore at most one transaction's
//! regions) versus its runtime logging cost.
//!
//! The crash simulations (one per crash point) are independent, so they
//! run as a parallel sweep; the recovery replays over the surviving
//! images run sequentially afterwards.
//!
//! A final section prices the *integrity* half of boot: for each
//! integrity policy, the tree nodes [`recovery_cost`] must recompute
//! from a post-crash image before reads can be served — phoenix's
//! whole-tree reconstruction, lazy's interior rebuild, zero for
//! strict/pipelined whose persisted tree is already current
//! (self-checked: phoenix > strict). These land in the artifact as
//! `integrity/<policy>` rows.

use nvmm_bench::sweep::{SweepCell, SweepRunner};
use nvmm_bench::{print_table, Experiment};
use nvmm_core::recovery::RecoveredMemory;
use nvmm_core::txn::Mechanism;
use nvmm_crypto::EncryptionEngine;
use nvmm_sim::config::{Design, IntegrityPolicy, SimConfig};
use nvmm_sim::integrity::{recovery_cost, IntegritySpec};
use nvmm_sim::system::{CrashSpec, System};
use nvmm_workloads::{execute, traces_for_cores, WorkloadKind, WorkloadSpec};

fn main() {
    // Phase 1: enumerate every (mechanism, workload, crash point) cell.
    let mut cells = Vec::new();
    let mut executed = Vec::new();
    for mech in Mechanism::ALL {
        for kind in WorkloadKind::ALL {
            let spec = WorkloadSpec::smoke(kind).with_ops(10).with_mechanism(mech);
            let ex = execute(&spec, 0, spec.ops);
            let total = ex.pm.trace().len() as u64;
            let start = ex.setup_events as u64;
            let row = format!("{mech}/{}", kind.label());
            let mut k = start;
            while k < total {
                cells.push(
                    SweepCell::eval(&row, &format!("{k}"), &spec, Design::Sca, 1)
                        .with_crash(CrashSpec::AfterEvent(k)),
                );
                k += (total - start) / 40 + 1;
            }
            executed.push((row, ex));
        }
    }
    let outs = SweepRunner::from_env().run(cells);
    let key = SimConfig::single_core(Design::Sca).key;

    // Phase 2: replay recovery over each crash image, sequentially.
    let mut exp = Experiment::new("recovery_cost", "recovery work per crash point (SCA)");
    for mech in Mechanism::ALL {
        let mut rows = Vec::new();
        for kind in WorkloadKind::ALL {
            let row = format!("{mech}/{}", kind.label());
            let ex = &executed
                .iter()
                .find(|(r, _)| *r == row)
                .expect("executed workload")
                .1;
            let (mut noop, mut armed, mut restored_total, mut points) = (0u64, 0u64, 0u64, 0u64);
            for (cell, out) in outs.iter().filter(|(c, _)| c.row == row) {
                let mut mem = RecoveredMemory::over(&out.image, EncryptionEngine::new(key));
                let report = mech.recover(&mut mem, &ex.log);
                assert!(
                    report.reads_clean,
                    "{row}: garbled recovery at event {}",
                    cell.series
                );
                if report.rolled_back {
                    armed += 1;
                    restored_total += report.entries_restored as u64;
                } else {
                    noop += 1;
                }
                points += 1;
            }
            let armed_frac = armed as f64 / points as f64;
            let avg_restored = if armed > 0 {
                restored_total as f64 / armed as f64
            } else {
                0.0
            };
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

    // Phase 3: the integrity side of boot. Crash one workload at a few
    // instants under each policy and count the tree nodes recovery must
    // recompute from each surviving image before reads can be served.
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
        let full = System::new(cfg.clone(), traces.clone()).run(CrashSpec::None);
        let total_events = full.events_processed;
        let (mut sum, mut max, mut points) = (0u64, 0u64, 0u64);
        let mut k = total_events / 8;
        while k <= total_events {
            let out = System::new(cfg.clone(), traces.clone()).run(CrashSpec::AfterEvent(k));
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
