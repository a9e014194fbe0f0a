//! Fig. 15: sensitivity of SCA to counter-cache size (128 KB – 8 MB)
//! across workload footprints (100 / 500 / 1000 MB).
//!
//! (a) average speedup over the smallest (128 KB) counter cache —
//!     higher is better; (b) average counter-cache miss rate — lower is
//!     better. Paper shape: bigger caches help, and the benefit shrinks
//!     as the footprint grows.
//!
//! The runs here are long and probe-heavy (the counter working set must
//! exceed the largest cache for size to matter at all) and probes are
//! skewed (traversal-like re-reference locality — with uniform probes
//! every access is a compulsory miss and no cache size can help; see
//! `WorkloadSpec::probe_skew`).
//!
//! Each workload executes functionally **once per footprint**: the
//! sweep's trace cache keys on the workload spec, which the cache size
//! does not affect, so all seven sizes replay the same trace.

use nvmm_bench::sweep::{SweepCell, SweepRunner};
use nvmm_bench::{env_u64, eval_spec, geo_mean, print_table, Experiment};
use nvmm_sim::config::{Design, SimConfig};
use nvmm_workloads::WorkloadKind;

const CC_SIZES: [(u64, &str); 7] = [
    (128 << 10, "128KB"),
    (256 << 10, "256KB"),
    (512 << 10, "512KB"),
    (1 << 20, "1MB"),
    (2 << 20, "2MB"),
    (4 << 20, "4MB"),
    (8 << 20, "8MB"),
];
const FOOTPRINTS: [(u64, &str); 3] = [
    (100 << 20, "100MB"),
    (500 << 20, "500MB"),
    (1000 << 20, "1000MB"),
];

fn main() {
    let ops = env_u64("NVMM_OPS", 1500) as usize;

    let mut cells = Vec::new();
    for (fp, fp_label) in FOOTPRINTS {
        for kind in WorkloadKind::ALL {
            let spec = eval_spec(kind)
                .with_ops(ops)
                .with_footprint(fp)
                .with_read_probes(64)
                .with_probe_skew(3.0);
            for (cc, cc_label) in CC_SIZES {
                let cfg = SimConfig::single_core(Design::Sca).with_counter_cache_bytes(cc);
                cells.push(SweepCell::new(
                    &format!("{fp_label}/{cc_label}"),
                    kind.label(),
                    &spec,
                    cfg,
                ));
            }
        }
    }
    let outs = SweepRunner::from_env().run(cells);

    let mut exp = Experiment::new("fig15", "SCA speedup over 128KB counter cache / miss rate");
    let mut speedup_rows = Vec::new();
    let mut miss_rows = Vec::new();
    for (_, fp_label) in FOOTPRINTS {
        let mut speedups = Vec::new();
        let mut misses = Vec::new();
        for (_, cc_label) in CC_SIZES {
            let row = format!("{fp_label}/{cc_label}");
            let base_row = format!("{fp_label}/{}", CC_SIZES[0].1);
            let mut runtimes = Vec::new();
            let mut rates = Vec::new();
            for kind in WorkloadKind::ALL {
                let stats = &outs.get(&row, kind.label()).stats;
                let base = outs.get(&base_row, kind.label()).stats.runtime.0 as f64;
                // Per-cell record: this workload's speedup over its own
                // 128KB-cache run.
                outs.record(&mut exp, &row, kind.label(), base / stats.runtime.0 as f64);
                runtimes.push(stats.runtime.0 as f64);
                rates.push(stats.counter_cache_miss_rate());
            }
            let base_geo: f64 = geo_mean(
                &WorkloadKind::ALL
                    .map(|kind| outs.get(&base_row, kind.label()).stats.runtime.0 as f64),
            );
            let speedup = base_geo / geo_mean(&runtimes);
            let miss = rates.iter().sum::<f64>() / rates.len() as f64;
            exp.insert(&format!("speedup/{fp_label}"), cc_label, speedup);
            exp.insert(&format!("missrate/{fp_label}"), cc_label, miss);
            speedups.push(speedup);
            misses.push(miss);
        }
        speedup_rows.push((fp_label.to_string(), speedups));
        miss_rows.push((fp_label.to_string(), misses));
    }
    let labels = CC_SIZES.map(|(_, l)| l);
    print_table(
        "Fig. 15a — avg speedup over 128KB counter cache",
        &labels,
        &speedup_rows,
    );
    print_table(
        "Fig. 15b — avg counter cache miss rate",
        &labels,
        &miss_rows,
    );
    println!("\npaper: 8MB cache ~+9% at 100MB footprint but only +2.4% at 1000MB;");
    println!("       miss rate drops ~23.3% (100MB) vs ~15.4% (1000MB)");
    let path = exp.save().expect("write results");
    println!("saved {}", path.display());
}
