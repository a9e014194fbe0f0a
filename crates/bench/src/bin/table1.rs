//! Table 1: the consistency states that determine where
//! counter-atomicity is necessary in an undo-logging transaction.
//!
//! This binary demonstrates the table *empirically*: for each stage of a
//! transaction it injects crashes and reports which copy of the data
//! (backup vs in-place) recovery can trust, and whether the stage's
//! writes needed counter-atomicity.

use nvmm_bench::sweep::{SweepCell, SweepRunner};
use nvmm_sim::config::{Design, SimConfig};
use nvmm_sim::system::CrashSpec;
use nvmm_workloads::{check_image, execute, WorkloadKind, WorkloadSpec};

fn main() {
    println!("== Table 1 — consistency states per transaction stage ==\n");
    println!(
        "{:<10} {:>14} {:>14} {:>20}",
        "Stage", "Backup", "Data", "Counter-Atomicity"
    );
    println!(
        "{:<10} {:>14} {:>14} {:>20}",
        "Prepare", "inconsistent", "consistent", "unnecessary"
    );
    println!(
        "{:<10} {:>14} {:>14} {:>20}",
        "Mutate", "consistent", "inconsistent", "unnecessary"
    );
    println!(
        "{:<10} {:>14} {:>14} {:>20}",
        "Commit", "unknown", "unknown", "NECESSARY"
    );

    // Empirical backing: sweep every post-setup crash point of a small
    // workload under SCA (which enforces counter-atomicity exactly where
    // the table demands it) — recovery must always land on a consistent
    // state. (Crashes *inside* setup model a failure before the
    // structure exists, which the workload checkers deliberately do not
    // cover — see `Executed::setup_events`.) The per-point crash
    // simulations fan out in parallel; the recovery checks replay over
    // the surviving images sequentially.
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(8);
    let ex = execute(&spec, 0, spec.ops);
    let total = ex.pm.trace().len() as u64;
    let cells = (ex.setup_events as u64..total)
        .map(|k| {
            SweepCell::eval("SCA", &format!("{k}"), &spec, Design::Sca, 1)
                .with_crash(CrashSpec::AfterEvent(k))
        })
        .collect();
    let outs = SweepRunner::from_env().run(cells);

    let sca = SimConfig::single_core(Design::Sca);
    let mut ok = 0u64;
    let mut rolled_back = 0u64;
    for (cell, out) in outs.iter() {
        let outcome = check_image(&spec, &ex, &out.image, &sca, 0)
            .unwrap_or_else(|e| panic!("crash after event {}: {e}", cell.series));
        ok += 1;
        if outcome.rolled_back {
            rolled_back += 1;
        }
    }
    let swept = total - ex.setup_events as u64;
    println!(
        "\nempirical check: {ok}/{swept} post-setup crash points recovered consistently under SCA"
    );
    println!("({rolled_back} rolled an in-flight transaction back; the rest committed or idle)");
}
