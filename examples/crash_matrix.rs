//! The crash matrix: model-check every post-setup crash state of every
//! workload × design and print which combinations recover consistently.
//!
//! This is the paper's thesis in one table — the designs that enforce
//! counter-atomicity (FCA, SCA) and the co-located designs survive every
//! crash state; encryption without counter-atomicity does not.
//!
//! ```sh
//! cargo run --release --example crash_matrix
//! ```

use nvmm::sim::config::{Design, SimConfig};
use nvmm::workloads::{model_check_breakpoints, ModelCheckOpts, WorkloadKind, WorkloadSpec};

fn main() {
    let designs = [
        Design::Sca,
        Design::Fca,
        Design::CoLocated,
        Design::CoLocatedCounterCache,
        Design::UnsafeNoAtomicity,
    ];
    println!("crash-consistency matrix (every legal image of every post-setup crash state)\n");
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
            let cfg = SimConfig::single_core(design);
            let reports = model_check_breakpoints(&spec, cfg, &ModelCheckOpts::default());
            let cell = match reports.iter().find(|(_, r)| !r.clean()) {
                None => format!("OK ({} states)", reports.len()),
                Some((t, _)) => {
                    if design == Design::UnsafeNoAtomicity {
                        unsafe_failures += 1;
                    }
                    format!("FAILS @ {t}")
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
        "Every counter-atomicity-enforcing design recovered in every crash state;\n\
         the unsafe baseline failed on {unsafe_failures}/5 workloads — decrypting with a stale\n\
         counter yields garbage, exactly the failure the paper's Fig. 4 illustrates."
    );
}
