//! Adversarial crash-image matrix: model-check every workload × design
//! cell against the full set of NVMM images ADR can legally leave
//! behind, not the one pessimistic image per crash point the sweeps in
//! `crash_consistency.rs` sample.
//!
//! For each of the five workloads under {FCA, SCA, write-through
//! (co-located), crash-unsafe baseline} plus the integrity designs
//! {SCA+strict, SCA+lazy}, crash instants are harvested from the run's
//! persist windows (`crash_instants_cfg`) — the moments where writes are
//! observably in flight and the enumerator has real choices. Designs
//! whose writes persist instantly (write-through co-location, and the
//! unsafe baseline under light traffic) expose no windows, so those
//! cells fall back to event-aligned crash points spread across the
//! post-setup trace; the unsafe baseline's stranded counters are
//! visible there already. The integrity cells run each image through
//! the MAC/tree oracle (`verify_image`) on top of the recovery
//! protocol.
//!
//! The binary is self-checking: it exits nonzero unless the
//! counter-atomic designs (FCA, SCA, write-through) and both integrity
//! designs survive every enumerated image, the unsafe baseline fails
//! somewhere, and the positive control — SCA under
//! `Fault::MissingCounterWritebacks`, a program that forgets every
//! `counter_cache_writeback()` — yields at least one violating image.
//!
//! Environment knobs, on top of the crate-wide ones:
//!
//! * `NVMM_MC_IMAGES` — landing masks materialized per crash instant
//!   (default 64; exhaustive when the legal space fits). Sampling
//!   beyond the bound uses `ModelCheckOpts::default().seed`, so a
//!   fixed bound gives bit-identical results.
//! * `NVMM_CRASH_POINTS` — crash instants checked per cell (default 6).
//! * `NVMM_OPS` — transactions per workload (default 6 here; the
//!   model check simulates each cell once, then checks every instant's
//!   image set).
//! * `NVMM_MC_THREADS` — model-checker worker threads (defaults to
//!   `NVMM_THREADS`, then available parallelism). The crash instants
//!   of each cell fan out over these workers; the artifact is
//!   byte-identical for any setting.
//!
//! The artifact (`target/experiments/crash_matrix.json`) records, per
//! `workload` row and `design` series, the violation count, plus
//! `<design>/images`, `<design>/masks`, `<design>/deduped`,
//! `<design>/pruned`, and `<design>/points` metrics; the `cells` array
//! carries the full stats of each cell's crash-free reference run via
//! the sweep engine. Wall-clock per cell is nondeterministic and so
//! lands in the companion `crash_matrix_timing.json`, keeping the main
//! artifact reproducible: `<design>/sweep_wall_ns` (the cell's one
//! execution + crash-sweep simulation; 0 for event-aligned fallback
//! cells, whose per-point simulations stay in `mc_wall_ns`) and
//! `<design>/mc_wall_ns` (checking, summed over the cell's instants).

use nvmm_bench::sweep::{SweepCell, SweepRunner};
use nvmm_bench::{env_u64, print_table, Experiment};
use nvmm_sim::config::{Design, Fault, IntegrityPolicy, SimConfig};
use nvmm_sim::system::CrashSpec;
use nvmm_workloads::{
    crash_instants_cfg, execute, model_check_cfg, model_check_instants_cfg, ModelCheckOpts,
    ModelCheckReport, WorkloadKind, WorkloadSpec,
};
use std::collections::BTreeMap;

/// Aggregate of one (workload, design) cell over all its crash points.
#[derive(Debug, Default, Clone, Copy)]
struct CellAgg {
    points: u64,
    images: u64,
    masks: u64,
    deduped: u64,
    pruned: u64,
    violations: u64,
    in_flight_points: u64,
    wall_ns: u64,
    sweep_ns: u64,
    enumerate_ns: u64,
    verify_ns: u64,
}

impl CellAgg {
    fn absorb(&mut self, rep: &ModelCheckReport) {
        self.points += 1;
        self.images += rep.images_checked as u64;
        self.masks += rep.stats.masks_explored;
        self.deduped += rep.stats.images_deduped;
        self.pruned += rep.stats.groups_pruned as u64;
        self.violations += rep.violations as u64;
        if rep.stats.groups > 0 {
            self.in_flight_points += 1;
        }
        self.wall_ns += rep.mc_wall_ns;
        self.enumerate_ns += rep.enumerate_wall_ns;
        self.verify_ns += rep.verify_wall_ns;
    }
}

/// Model-checks one cell: window-derived instants when the
/// configuration exposes any, event-aligned fallback points otherwise.
fn check_cell(
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    opts: &ModelCheckOpts,
    points: usize,
) -> CellAgg {
    let mut agg = CellAgg::default();
    let instants = crash_instants_cfg(spec, cfg.clone(), opts, points);
    if instants.is_empty() {
        let ex = execute(spec, 0, spec.ops);
        let total = ex.pm.trace().len() as u64;
        let start = ex.setup_events as u64;
        for i in 1..=points as u64 {
            let k = start + (total - start) * i / (points as u64 + 1);
            agg.absorb(&model_check_cfg(
                spec,
                cfg.clone(),
                CrashSpec::AfterEvent(k),
                opts,
            ));
        }
    } else {
        // The instants fan out over `NVMM_MC_THREADS` workers; reports
        // come back in instant order, bit-identical to a sequential run.
        let reports = model_check_instants_cfg(spec, cfg.clone(), &instants, opts);
        // Every report of one call carries the same shared sweep time.
        agg.sweep_ns = reports.first().map_or(0, |r| r.sweep_wall_ns);
        for rep in &reports {
            agg.absorb(rep);
        }
    }
    agg
}

/// The matrix columns: each is a display label plus the configuration
/// model-checked under it. The first four are the paper's designs; the
/// last two put the integrity subsystem's persistence policies on top
/// of SCA.
fn columns() -> Vec<(String, SimConfig)> {
    let mut cols: Vec<(String, SimConfig)> = [
        Design::Fca,
        Design::Sca,
        Design::CoLocated,
        Design::UnsafeNoAtomicity,
    ]
    .into_iter()
    .map(|d| (d.label().to_string(), SimConfig::single_core(d)))
    .collect();
    for p in [IntegrityPolicy::Strict, IntegrityPolicy::Lazy] {
        cols.push((
            format!("SCA+{p}"),
            SimConfig::single_core(Design::Sca).with_integrity(p),
        ));
    }
    cols
}

fn main() {
    let ops = env_u64("NVMM_OPS", 6) as usize;
    let points = env_u64("NVMM_CRASH_POINTS", 6) as usize;
    let opts = ModelCheckOpts {
        max_images: env_u64("NVMM_MC_IMAGES", 64) as usize,
        ..ModelCheckOpts::default()
    };
    let columns = columns();

    // Phase 1: model-check the matrix.
    let mut matrix: BTreeMap<(String, String), CellAgg> = BTreeMap::new();
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(ops);
        for (label, cfg) in &columns {
            let agg = check_cell(&spec, cfg, &opts, points);
            matrix.insert((kind.label().to_string(), label.clone()), agg);
        }
    }

    // Positive control: an SCA program that forgets its counter-cache
    // write-backs must be caught by enumeration.
    let control_spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap).with_ops(ops);
    let control_cfg =
        SimConfig::single_core(Design::Sca).with_fault(Fault::MissingCounterWritebacks);
    let control = check_cell(&control_spec, &control_cfg, &opts, points);

    // Phase 2: one crash-free reference run per cell through the sweep
    // engine (deduplicated, parallel) so the artifact's `cells` carry
    // the full stats behind each matrix row.
    let cells: Vec<SweepCell> = WorkloadKind::ALL
        .iter()
        .flat_map(|&kind| {
            let spec = WorkloadSpec::smoke(kind).with_ops(ops);
            columns
                .iter()
                .map(|(label, cfg)| SweepCell::new(kind.label(), label, &spec, cfg.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    let outs = SweepRunner::from_env().run(cells);

    let mut exp = Experiment::new(
        "crash_matrix",
        "violating images per (workload, design) over all ADR-legal crash images",
    );
    outs.record_all(&mut exp, |cell, _| {
        matrix[&(cell.row.clone(), cell.series.clone())].violations as f64
    });
    // Wall-clock is nondeterministic, so it lives in a companion
    // artifact: `crash_matrix.json` itself must stay byte-identical
    // across `NVMM_MC_THREADS` settings (CI compares it).
    let mut timing = Experiment::new(
        "crash_matrix_timing",
        "wall-clock ns spent model-checking each (workload, design) cell",
    );
    for ((row, series), agg) in &matrix {
        exp.insert(row, &format!("{series}/images"), agg.images as f64);
        exp.insert(row, &format!("{series}/masks"), agg.masks as f64);
        exp.insert(row, &format!("{series}/deduped"), agg.deduped as f64);
        exp.insert(row, &format!("{series}/pruned"), agg.pruned as f64);
        exp.insert(row, &format!("{series}/points"), agg.points as f64);
        timing.insert(row, &format!("{series}/mc_wall_ns"), agg.wall_ns as f64);
        timing.insert(row, &format!("{series}/sweep_wall_ns"), agg.sweep_ns as f64);
        // The enumerate/verify split attributes regressions to the
        // schedule walk vs the oracles it runs on each retained image
        // without re-profiling: the delta integrity verifier and the
        // recovery judge are both timed inside the walk and counted in
        // the verify term.
        timing.insert(
            row,
            &format!("{series}/enumerate_wall_ns"),
            agg.enumerate_ns as f64,
        );
        timing.insert(
            row,
            &format!("{series}/verify_wall_ns"),
            agg.verify_ns as f64,
        );
    }
    exp.insert(
        control_spec.kind.label(),
        "SCA w/o ccwb/violations",
        control.violations as f64,
    );
    exp.insert(
        control_spec.kind.label(),
        "SCA w/o ccwb/images",
        control.images as f64,
    );

    // Report: the paper's designs, then the integrity designs.
    let table = |title: &str, labels: &[&(String, SimConfig)], series: &[&str]| {
        let rows: Vec<(String, Vec<f64>)> = WorkloadKind::ALL
            .iter()
            .map(|kind| {
                let vals = labels
                    .iter()
                    .flat_map(|(label, _)| {
                        let agg = &matrix[&(kind.label().to_string(), label.clone())];
                        [agg.violations as f64, agg.images as f64]
                    })
                    .collect();
                (kind.label().to_string(), vals)
            })
            .collect();
        print_table(title, series, &rows);
    };
    let cols: Vec<&(String, SimConfig)> = columns.iter().collect();
    table(
        "violating / enumerated images per design",
        &cols[..4],
        &[
            "FCA viol", "images", "SCA viol", "images", "WT viol", "images", "unsafe", "images",
        ],
    );
    table(
        "violating / enumerated images per integrity design",
        &cols[4..],
        &["strict viol", "images", "lazy viol", "images"],
    );
    println!(
        "\npositive control (SCA w/o ccwb, {}): {} violating of {} images over {} points",
        control_spec.kind.label(),
        control.violations,
        control.images,
        control.points
    );

    // Self-check: the matrix must reproduce the paper's claim, and the
    // integrity designs (counter-atomic SCA underneath) inherit it.
    let mut failed = false;
    for ((row, series), agg) in &matrix {
        let design = columns
            .iter()
            .find(|(label, _)| label == series)
            .map(|(_, cfg)| cfg.design)
            .expect("matrix series is a column label");
        let safe = design.enforces_counter_atomicity() || design.co_located();
        if safe && agg.violations > 0 {
            eprintln!(
                "FAIL: {row} under {series}: {} violating images",
                agg.violations
            );
            failed = true;
        }
        if safe && agg.in_flight_points == 0 && agg.images <= agg.points {
            // Not fatal — write-through cells legitimately enumerate a
            // single image per point — but worth surfacing for FCA/SCA
            // and the integrity designs riding on SCA.
            if design.enforces_counter_atomicity() {
                eprintln!("FAIL: {row} under {series}: no in-flight instants explored");
                failed = true;
            }
        }
    }
    let unsafe_total: u64 = matrix
        .iter()
        .filter(|((_, s), _)| *s == Design::UnsafeNoAtomicity.label())
        .map(|(_, a)| a.violations)
        .sum();
    if unsafe_total == 0 {
        eprintln!("FAIL: the crash-unsafe baseline survived every enumerated image");
        failed = true;
    }
    if control.violations == 0 {
        eprintln!("FAIL: positive control found no violating image");
        failed = true;
    }

    let path = exp.save().expect("write results");
    println!("saved {}", path.display());
    let timing_path = timing.save().expect("write timing");
    println!("saved {}", timing_path.display());
    if failed {
        std::process::exit(1);
    }
    println!("crash matrix clean: counter-atomic designs survive every legal image");
}
