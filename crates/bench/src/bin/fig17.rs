//! Fig. 17: average speedup of SCA over the plain co-located design as
//! NVM (a) read latency and (b) write latency scale from 10× slower to
//! 4× faster than the PCM baseline.
//!
//! Paper shape: the speedup grows as either latency shrinks — faster
//! reads make the co-located design's serialized decryption more
//! prominent; faster writes relieve SCA's counter/data bus contention.
//!
//! The workload configuration pins the probe working set into the
//! window where the comparison is meaningful: larger than the L2 (so
//! probes reach NVMM) but with a counter footprint the counter cache
//! can hold (so SCA reads overlap decryption while the co-located
//! design serializes it).

use nvmm_bench::sweep::{SweepCell, SweepRunner};
use nvmm_bench::{env_u64, eval_spec, geo_mean, print_table, Experiment};
use nvmm_sim::config::{Design, SimConfig};
use nvmm_workloads::WorkloadKind;

const POINTS: [(f64, &str); 5] = [
    (10.0, "10x slower"),
    (5.0, "5x slower"),
    (3.0, "3x slower"),
    (1.0, "PCM"),
    (0.25, "4x faster"),
];

fn main() {
    let ops = env_u64("NVMM_OPS", 800) as usize;

    let mut cells = Vec::new();
    for (axis, is_read) in [("read", true), ("write", false)] {
        for (factor, label) in POINTS {
            let (rf, wf) = if is_read {
                (factor, 1.0)
            } else {
                (1.0, factor)
            };
            for kind in WorkloadKind::ALL {
                let spec = eval_spec(kind)
                    .with_ops(ops)
                    .with_read_probes(48)
                    .with_footprint(6 << 20);
                for d in [Design::CoLocated, Design::Sca] {
                    let mut cfg = SimConfig::single_core(d);
                    cfg.pcm = cfg.pcm.scale_read(rf).scale_write(wf);
                    cells.push(SweepCell::new(
                        &format!("{axis}/{label}"),
                        &format!("{}/{}", d.label(), kind.label()),
                        &spec,
                        cfg,
                    ));
                }
            }
        }
    }
    // The two "PCM" points (read × 1.0, write × 1.0) are the same
    // configuration; the sweep's sim dedupe runs them once.
    let outs = SweepRunner::from_env().run(cells);

    let avg = |row: &str, design: Design, outs: &nvmm_bench::sweep::SweepOutcomes| {
        geo_mean(&WorkloadKind::ALL.map(|kind| {
            outs.get(row, &format!("{}/{}", design.label(), kind.label()))
                .stats
                .runtime
                .0 as f64
        }))
    };

    let mut exp = Experiment::new(
        "fig17",
        "avg SCA speedup over Co-located (higher is better)",
    );
    let mut rows = Vec::new();
    for axis in ["read", "write"] {
        let mut vals = Vec::new();
        for (_, label) in POINTS {
            let row = format!("{axis}/{label}");
            let v = avg(&row, Design::CoLocated, &outs) / avg(&row, Design::Sca, &outs);
            for kind in WorkloadKind::ALL {
                for d in [Design::CoLocated, Design::Sca] {
                    let series = format!("{}/{}", d.label(), kind.label());
                    let runtime = outs.get(&row, &series).stats.runtime.0 as f64;
                    outs.record(&mut exp, &row, &series, runtime);
                }
            }
            exp.insert(axis, label, v);
            vals.push(v);
        }
        rows.push((format!("{axis} lat"), vals));
    }
    print_table(
        "Fig. 17 — SCA speedup over Co-located vs NVM latency",
        &POINTS.map(|(_, l)| l),
        &rows,
    );
    println!("\npaper: 1.29x..1.76x across read scaling; 1.39x..1.74x across write scaling");
    let path = exp.save().expect("write results");
    println!("saved {}", path.display());
}
