//! A persistent key-value store on encrypted NVMM.
//!
//! Runs the paper's hash-table workload as a realistic application: a
//! burst of transactional inserts under selective counter-atomicity,
//! crashed at a random point and recovered; then compares the five
//! evaluated designs on the same run.
//!
//! ```sh
//! cargo run --release --example kv_store
//! ```

use nvmm::sim::config::{Design, SimConfig};
use nvmm::sim::system::{instant_after_events, CrashSpec};
use nvmm::workloads::{crash_check_cfg, execute, run_timed, WorkloadKind, WorkloadSpec};
use rand::{Rng, SeedableRng};

fn main() {
    let spec = WorkloadSpec::evaluation_default(WorkloadKind::HashTable).with_ops(100);

    // 1. Durability under fire: crash the store at ten random points and
    //    recover each time.
    println!("== crash/recover the KV store at random points (SCA) ==");
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
    let sca = SimConfig::single_core(Design::Sca);
    let trace = execute(&spec, 0, spec.ops).pm.into_parts().0;
    for _ in 0..10 {
        let k = rng.gen_range(0..trace.len());
        let at = instant_after_events(&sca, &trace, k + 1);
        let outcome = crash_check_cfg(&spec, sca.clone(), CrashSpec::AtTime(at), 0)
            .expect("SCA must always recover consistently");
        println!(
            "  crash after event {k:>6}: {} / {} inserts durable{}",
            outcome.committed,
            spec.ops,
            if outcome.rolled_back {
                " (one in-flight insert rolled back)"
            } else {
                ""
            }
        );
    }

    // 2. What does crash consistency cost? Compare designs on the same
    //    insert stream.
    println!("\n== design comparison (same insert stream) ==");
    let base = run_timed(&spec, Design::NoEncryption, 1).stats.runtime.0 as f64;
    for design in [
        Design::NoEncryption,
        Design::Ideal,
        Design::Sca,
        Design::Fca,
        Design::CoLocated,
        Design::CoLocatedCounterCache,
    ] {
        let out = run_timed(&spec, design, 1);
        println!(
            "  {:<22} runtime {:>6.3}x   NVMM bytes written {:>9}",
            design.label(),
            out.stats.runtime.0 as f64 / base,
            out.stats.bytes_written
        );
    }
    println!("\nSCA keeps the store crash-consistent at near-Ideal cost;");
    println!("FCA pays for pairing every write; the unsafe option is not on the menu.");
}
