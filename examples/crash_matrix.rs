//! The crash matrix: sweep crash points across every workload × design
//! and print which combinations recover consistently.
//!
//! This is the paper's thesis in one table — the designs that enforce
//! counter-atomicity (FCA, SCA) and the co-located designs survive every
//! crash point; encryption without counter-atomicity does not.
//!
//! ```sh
//! cargo run --release --example crash_matrix
//! ```

use nvmm::sim::config::{Design, SimConfig};
use nvmm::workloads::{crash_sweep, WorkloadKind, WorkloadSpec};

fn main() {
    let designs = [
        Design::Sca,
        Design::Fca,
        Design::CoLocated,
        Design::CoLocatedCounterCache,
        Design::UnsafeNoAtomicity,
    ];
    println!("crash-consistency matrix (sweeping ~25 crash points per cell)\n");
    print!("{:<10}", "");
    for d in designs {
        print!("{:>24}", d.label());
    }
    println!();

    let mut unsafe_failures = 0;
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(8);
        print!("{:<10}", kind.label());
        for design in designs {
            let cell = match crash_sweep(&spec, SimConfig::single_core(design), 25) {
                Ok(points) => format!("OK ({} points)", points.len()),
                Err((k, _)) => {
                    if design == Design::UnsafeNoAtomicity {
                        unsafe_failures += 1;
                    }
                    format!("FAILS @ event {k}")
                }
            };
            print!("{cell:>24}");
        }
        println!();
    }
    println!();
    assert!(
        unsafe_failures > 0,
        "the unsafe baseline must fail somewhere"
    );
    println!(
        "Every counter-atomicity-enforcing design recovered at every crash point;\n\
         the unsafe baseline failed on {unsafe_failures}/5 workloads — decrypting with a stale\n\
         counter yields garbage, exactly the failure the paper's Fig. 4 illustrates."
    );
}
