//! The parallel sweep engine behind every figure binary.
//!
//! An experiment is a grid of **cells** — (workload × design × cores ×
//! config-override), each simulated to completion. Running a grid
//! naively costs far more than it needs to: figure binaries normalize
//! against baselines (so the same baseline simulation is demanded many
//! times), and every simulation of the same spec re-executes the
//! workload functionally to regenerate identical traces. The sweep
//! runner deduplicates both:
//!
//! 1. **Trace cache** — one functional execution per unique
//!    (spec, cores), shared by every design/override simulated on it.
//! 2. **Sim dedupe** — one simulation per unique (spec, config, shape);
//!    cells demanding the same run (e.g. a design cell and the baseline
//!    it normalizes against) share one [`RunOutcome`].
//!
//! Unique trace generations and simulations are fanned out across
//! worker threads with [`std::thread::scope`] (thread count from
//! `NVMM_THREADS`, default: available parallelism). Work items are
//! independent — each simulation owns its whole system state — and
//! results are reassembled **by cell index**, so the outcome vector is
//! bit-identical whatever the thread count or completion order. The
//! determinism test in `tests/sweep.rs` pins this.
//!
//! Telemetry: setting `NVMM_EPOCH_NS` enables per-epoch telemetry
//! ([`nvmm_sim::telemetry`]) for every cell that does not already carry
//! an explicit epoch, and the timelines land in the experiment artifact
//! next to each cell's stats.
//!
//! Memory: outcomes have their final NVMM image dropped before being
//! retained — most figures never consume it, and a large grid would
//! otherwise hold every image live at once. A cell that *does* need its
//! image (e.g. `fig_integrity` pricing boot-time tree rebuilds) opts in
//! with [`SweepCell::with_kept_image`].
//!
//! Crash experiments do not run here: they need one execution to judge
//! every crash image against, so they sweep that execution's crash
//! breakpoints themselves (`table1`, `recovery_cost`).

use crate::{env_u64, CellRecord, Experiment};
use nvmm_sim::config::{Design, SimConfig};
use nvmm_sim::nvmm::NvmmImage;
use nvmm_sim::parallel::{host_cores, run_parallel};
use nvmm_sim::system::{CrashSpec, RunOutcome, System};
use nvmm_sim::time::Time;
use nvmm_sim::trace::Trace;
use nvmm_workloads::{shape_open_loop, traces_for_cores, ArrivalCurve, WorkloadSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// One point of an experiment grid.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Row label in the experiment (e.g. the workload).
    pub row: String,
    /// Series label in the experiment (e.g. the design).
    pub series: String,
    /// Workload to execute.
    pub spec: WorkloadSpec,
    /// Full simulator configuration, including the design and any
    /// overrides; `cfg.cores` is the core count simulated.
    pub cfg: SimConfig,
    /// Open-loop arrival shaping applied to the generated traces
    /// (`None` = closed-loop replay, the paper's methodology).
    pub shape: Option<ArrivalCurve>,
    /// Retain the final NVMM image (see the module docs on image
    /// dropping).
    pub keep_image: bool,
}

impl SweepCell {
    /// A cell with an explicit configuration.
    pub fn new(row: &str, series: &str, spec: &WorkloadSpec, cfg: SimConfig) -> Self {
        Self {
            row: row.to_string(),
            series: series.to_string(),
            spec: *spec,
            cfg,
            shape: None,
            keep_image: false,
        }
    }

    /// A cell using the paper's Table 2 configuration for `design` at
    /// `cores` — what the figure experiments run.
    pub fn eval(
        row: &str,
        series: &str,
        spec: &WorkloadSpec,
        design: Design,
        cores: usize,
    ) -> Self {
        Self::new(row, series, spec, SimConfig::table2(design, cores))
    }

    /// Returns the cell with its final image retained (see the module
    /// docs on image dropping).
    pub fn with_kept_image(mut self) -> Self {
        self.keep_image = true;
        self
    }

    /// Returns the cell with open-loop arrival shaping.
    pub fn with_shape(mut self, curve: ArrivalCurve) -> Self {
        self.shape = Some(curve);
        self
    }

    /// Trace-cache key: one functional execution (plus shaping) per
    /// unique value. The derived `Debug` forms show every field, so
    /// equal keys mean equal inputs.
    fn trace_key(&self) -> String {
        format!("{:?}|{}|{:?}", self.spec, self.cfg.cores, self.shape)
    }

    /// Sim-dedupe key: one simulation per unique value.
    fn sim_key(&self) -> String {
        format!("{:?}|{:?}|{:?}", self.spec, self.cfg, self.shape)
    }
}

/// Executes sweep grids over a bounded worker pool.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// Thread count from the `NVMM_THREADS` environment variable,
    /// defaulting to the machine's available parallelism.
    ///
    /// # Panics
    ///
    /// Panics when `NVMM_THREADS` is set but is not an unsigned integer
    /// ([`env_u64`]).
    pub fn from_env() -> Self {
        Self::with_threads(env_u64("NVMM_THREADS", host_cores() as u64) as usize)
    }

    /// An explicit thread count (clamped to at least 1). `1` runs every
    /// work item on the calling thread, in order.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Runs the grid: generates each unique trace set once, simulates
    /// each unique (spec, config, shape) once, and returns the outcomes
    /// aligned with `cells` — deterministic for any thread count.
    pub fn run(&self, mut cells: Vec<SweepCell>) -> SweepOutcomes {
        // Env-driven telemetry: cells without an explicit epoch inherit
        // NVMM_EPOCH_NS. Applied before keying so the dedupe sees it.
        let ns = env_u64("NVMM_EPOCH_NS", 0);
        if ns > 0 {
            for cell in &mut cells {
                if cell.cfg.telemetry_epoch.is_none() {
                    cell.cfg.telemetry_epoch = Some(Time::from_ns(ns));
                }
            }
        }

        // Phase 1: functional execution of each unique
        // (spec, cores, shape).
        let mut trace_index: HashMap<String, usize> = HashMap::new();
        let mut trace_jobs: Vec<(WorkloadSpec, usize, Option<ArrivalCurve>)> = Vec::new();
        for cell in &cells {
            trace_index.entry(cell.trace_key()).or_insert_with(|| {
                trace_jobs.push((cell.spec, cell.cfg.cores, cell.shape));
                trace_jobs.len() - 1
            });
        }
        let traces: Vec<Arc<Vec<Trace>>> = run_parallel(self.threads, &trace_jobs, |job| {
            let traces = traces_for_cores(&job.0, job.1);
            Arc::new(match &job.2 {
                Some(curve) => shape_open_loop(traces, curve),
                None => traces,
            })
        });

        // Phase 2: one simulation per unique (spec, config, shape).
        let mut sim_index: HashMap<String, usize> = HashMap::new();
        let mut sim_jobs: Vec<usize> = Vec::new(); // representative cell index
        for (i, cell) in cells.iter().enumerate() {
            sim_index.entry(cell.sim_key()).or_insert_with(|| {
                sim_jobs.push(i);
                sim_jobs.len() - 1
            });
        }
        // A dedupe group keeps its image if *any* of its cells asked to.
        let mut keep_image = vec![false; sim_jobs.len()];
        for cell in &cells {
            if cell.keep_image {
                keep_image[sim_index[&cell.sim_key()]] = true;
            }
        }
        let sim_jobs: Vec<(usize, bool)> = sim_jobs
            .iter()
            .zip(&keep_image)
            .map(|(&ci, &keep)| (ci, keep))
            .collect();
        let unique: Vec<Arc<RunOutcome>> = run_parallel(self.threads, &sim_jobs, |&(ci, keep)| {
            let cell = &cells[ci];
            let t = &traces[trace_index[&cell.trace_key()]];
            let mut out = System::new(cell.cfg.clone(), (**t).clone()).run(CrashSpec::None);
            if !keep {
                // No consumer reads this run's image; drop it so big
                // grids don't hold every image live at once.
                out.image = NvmmImage::new();
            }
            Arc::new(out)
        });

        // Phase 3: deterministic reassembly in cell order.
        let outcomes = cells
            .iter()
            .map(|cell| unique[sim_index[&cell.sim_key()]].clone())
            .collect();
        SweepOutcomes { cells, outcomes }
    }
}

/// The result of a sweep: outcomes aligned one-to-one with the cells
/// that produced them (shared when cells deduplicated to one run).
#[derive(Debug)]
pub struct SweepOutcomes {
    cells: Vec<SweepCell>,
    outcomes: Vec<Arc<RunOutcome>>,
}

impl SweepOutcomes {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the sweep was empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The `i`-th cell, in submission order.
    pub fn cell(&self, i: usize) -> &SweepCell {
        &self.cells[i]
    }

    /// The `i`-th cell's outcome, in submission order.
    pub fn outcome(&self, i: usize) -> &RunOutcome {
        &self.outcomes[i]
    }

    /// Iterates (cell, outcome) pairs in submission order.
    pub fn iter(&self) -> impl Iterator<Item = (&SweepCell, &RunOutcome)> {
        self.cells
            .iter()
            .zip(self.outcomes.iter().map(|o| o.as_ref()))
    }

    /// The outcome of the cell labelled (`row`, `series`).
    ///
    /// # Panics
    ///
    /// Panics if no such cell exists — a typo in an experiment's labels,
    /// caught loudly rather than plotted wrongly.
    pub fn get(&self, row: &str, series: &str) -> &RunOutcome {
        self.cells
            .iter()
            .position(|c| c.row == row && c.series == series)
            .map(|i| self.outcomes[i].as_ref())
            .unwrap_or_else(|| panic!("no sweep cell labelled ({row}, {series})"))
    }

    /// Records the (`row`, `series`) cell into `exp` with the given
    /// metric value, carrying its stats and timeline into the artifact.
    pub fn record(&self, exp: &mut Experiment, row: &str, series: &str, value: f64) {
        let i = self
            .cells
            .iter()
            .position(|c| c.row == row && c.series == series)
            .unwrap_or_else(|| panic!("no sweep cell labelled ({row}, {series})"));
        let cell = &self.cells[i];
        let out = &self.outcomes[i];
        exp.insert_cell(CellRecord {
            row: cell.row.clone(),
            series: cell.series.clone(),
            design: cell.cfg.design.label().to_string(),
            cores: cell.cfg.cores,
            value,
            stats: out.stats.clone(),
            timeline: out.timeline.clone(),
        });
    }

    /// Records every cell into `exp`, computing each value with `f` —
    /// for experiments whose metric is a plain per-cell quantity.
    pub fn record_all(&self, exp: &mut Experiment, f: impl Fn(&SweepCell, &RunOutcome) -> f64) {
        for (cell, out) in self.iter() {
            let value = f(cell, out);
            self.record(exp, &cell.row.clone(), &cell.series.clone(), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm_workloads::{WorkloadKind, WorkloadSpec};

    fn smoke_cells() -> Vec<SweepCell> {
        let spec = WorkloadSpec::smoke(WorkloadKind::Queue);
        vec![
            SweepCell::eval("q", "Sca", &spec, Design::Sca, 1),
            SweepCell::eval("q", "NoEnc", &spec, Design::NoEncryption, 1),
            // Duplicate of the first cell under a different label:
            // must dedupe to the same simulation.
            SweepCell::eval("q", "Sca-again", &spec, Design::Sca, 1),
        ]
    }

    #[test]
    fn duplicate_cells_share_one_outcome() {
        let outs = SweepRunner::with_threads(1).run(smoke_cells());
        assert_eq!(outs.len(), 3);
        assert!(
            Arc::ptr_eq(&outs.outcomes[0], &outs.outcomes[2]),
            "dedupe must share"
        );
        assert!(!Arc::ptr_eq(&outs.outcomes[0], &outs.outcomes[1]));
    }

    #[test]
    fn lookup_by_labels() {
        let outs = SweepRunner::with_threads(1).run(smoke_cells());
        let sca = outs.get("q", "Sca");
        assert!(sca.stats.runtime > Time::ZERO);
        assert_eq!(
            sca.stats.transactions_committed,
            outs.get("q", "Sca-again").stats.transactions_committed
        );
    }

    #[test]
    #[should_panic(expected = "no sweep cell labelled")]
    fn unknown_label_panics() {
        let outs = SweepRunner::with_threads(1).run(smoke_cells());
        let _ = outs.get("q", "nope");
    }

    #[test]
    fn images_drop_without_the_opt_in() {
        let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap);
        let cell = SweepCell::eval("a", "done", &spec, Design::Sca, 1);
        let outs = SweepRunner::with_threads(1).run(vec![cell]);
        assert_eq!(outs.get("a", "done").image.data_lines(), 0, "image dropped");
    }

    #[test]
    fn kept_image_opt_in_survives_completion_and_dedupe() {
        let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap);
        // Two cells deduping to one simulation; only one opts in, and
        // the shared outcome must keep the image for both.
        let cells = vec![
            SweepCell::eval("a", "plain", &spec, Design::Sca, 1),
            SweepCell::eval("a", "kept", &spec, Design::Sca, 1).with_kept_image(),
        ];
        let outs = SweepRunner::with_threads(1).run(cells);
        assert!(
            outs.get("a", "kept").image.data_lines() > 0,
            "opted-in completion image retained"
        );
        assert!(Arc::ptr_eq(&outs.outcomes[0], &outs.outcomes[1]));
    }

    #[test]
    fn record_all_fills_rows_and_cells() {
        let outs = SweepRunner::with_threads(1).run(smoke_cells());
        let mut exp = Experiment::new("sweep-test", "runtime ns");
        outs.record_all(&mut exp, |_, out| out.stats.runtime.as_ns_f64());
        assert_eq!(exp.cells.len(), 3);
        assert!(exp.rows["q"]["Sca"] > 0.0);
        assert_eq!(
            exp.cells[0].design,
            "SCA".to_string().as_str(),
            "design label recorded"
        );
    }
}
