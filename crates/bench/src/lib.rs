//! # nvmm-bench
//!
//! Experiment harnesses that regenerate **every table and figure** of the
//! paper's evaluation (§6). Each figure has a binary:
//!
//! | binary      | reproduces |
//! |-------------|------------|
//! | `table1`    | Table 1 — consistency states per transaction stage (stdout only) |
//! | `table2`    | Table 2 — system configuration (stdout only) |
//! | `timelines` | Figs. 7/8 — write timelines under FCA vs SCA (stdout only) |
//! | `fig12`     | Fig. 12 — single-core runtime by design |
//! | `fig13`     | Fig. 13 — multi-core throughput scaling |
//! | `fig14`     | Fig. 14 — NVMM write traffic |
//! | `fig15`     | Fig. 15 — counter-cache size sensitivity |
//! | `fig16`     | Fig. 16 — transaction-size sensitivity |
//! | `fig17`     | Fig. 17 — NVM latency sensitivity |
//! | `overhead`  | §6.3.7 — hardware overhead accounting (stdout only) |
//! | `crash_matrix` | adversarial crash-image model check: five workloads × designs (including SCA+strict / SCA+lazy integrity) over every ADR-legal image (self-checking; no paper figure) |
//! | `fig_integrity` | integrity-policy cost: runtime and metadata write amplification of mac-only / lazy / strict on top of SCA (self-checking; no paper figure) |
//! | `fig_mc_perf` | model-checker throughput: the fused delta walk (enumeration plus incremental re-verification) vs full-pass verification of the same images, both on one thread (self-checking; no paper figure) |
//! | `fig_service` | open-loop service throughput and p50/p95/p99/p999 arrival-to-commit tails: steady/burst/diurnal arrival curves over 1–4 controller shards, plus a generator-backed streamed-ingest demo with batched journaling (self-checking; no paper figure) |
//! | `fig_attack` | adversarial detection matrix — six integrity policies × {replay, counter-rollback, torn-write, split-replay} judged against per-policy freshness anchors, with `mac-only × {replay, counter-rollback}` the only permitted misses — plus each policy's wear report and lifetime estimate (self-checking; no paper figure) |
//!
//! Run e.g. `cargo run --release -p nvmm-bench --bin fig12`. Each binary
//! prints a human-readable table. All but the four stdout-only ones also
//! write machine-readable JSON to `target/experiments/<id>.json` — the
//! plotted `rows` plus a `cells` array
//! carrying the full [`Stats`] (and optional
//! [`nvmm_sim::telemetry::Timeline`]) behind every number.
//!
//! The binaries enumerate their grids as [`sweep::SweepCell`]s and run
//! them through the [`sweep`] engine, which caches functional
//! executions, deduplicates identical simulations (baselines in
//! particular), and fans unique simulations across worker threads with
//! bit-identical results for any thread count.
//!
//! Environment knobs, honored by every binary:
//!
//! * `NVMM_OPS` — transactions per core (default 400; a few binaries
//!   document larger defaults). Smaller runs faster and noisier.
//! * `NVMM_THREADS` — sweep worker threads (default: available
//!   parallelism; `1` forces sequential execution).
//! * `NVMM_EPOCH_NS` — when set, enables per-epoch telemetry with this
//!   epoch length on every sweep cell; the timelines land in the JSON
//!   artifacts' `cells` entries.
//!
//! Every integer knob, `NVMM_THREADS`, `NVMM_MC_THREADS` and
//! `NVMM_EPOCH_NS` included, is read through [`env_u64`], which stops
//! the binary when the knob is set to something that is not an unsigned
//! integer.
//!
//! `fig_service` additionally honors `NVMM_SHARDS`, `NVMM_STREAM_OPS`,
//! and `NVMM_SERVICE_BATCH` (see its binary docs); those only affect
//! its `*_timing.json` companion, never the main artifact. `fig_attack`
//! honors `NVMM_SHARDS`, which sizes its runtime cross-check only — its
//! artifact is likewise knob-invariant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sweep;

use nvmm_json::{Json, ToJson};
use nvmm_sim::stats::Stats;
use nvmm_sim::telemetry::Timeline;
use nvmm_workloads::{WorkloadKind, WorkloadSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;

pub use nvmm_sim::knob::env_u64;

/// Transactions per core used by the experiments, overridable via the
/// `NVMM_OPS` environment variable.
pub fn experiment_ops() -> usize {
    env_u64("NVMM_OPS", 400) as usize
}

/// The evaluation-default spec with the experiment op count applied.
pub fn eval_spec(kind: WorkloadKind) -> WorkloadSpec {
    WorkloadSpec::evaluation_default(kind).with_ops(experiment_ops())
}

/// One fully resolved sweep cell in an experiment artifact: the metric
/// value plus the complete [`Stats`] (and [`Timeline`], when telemetry
/// was enabled) of the run it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Row label (matches a key of [`Experiment::rows`]).
    pub row: String,
    /// Series label within the row.
    pub series: String,
    /// Display label of the design simulated.
    pub design: String,
    /// Core count simulated.
    pub cores: usize,
    /// The metric value plotted for this cell.
    pub value: f64,
    /// Full end-of-run statistics.
    pub stats: Stats,
    /// Per-epoch telemetry, when the run had it enabled.
    pub timeline: Option<Timeline>,
}

impl ToJson for CellRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("row".to_string(), self.row.to_json()),
            ("series".to_string(), self.series.to_json()),
            ("design".to_string(), self.design.to_json()),
            ("cores".to_string(), self.cores.to_json()),
            ("value".to_string(), self.value.to_json()),
            ("stats".to_string(), self.stats.to_json()),
            ("timeline".to_string(), self.timeline.to_json()),
        ])
    }
}

/// A generic experiment record serialized to `target/experiments/`.
#[derive(Debug)]
pub struct Experiment {
    /// Experiment id, e.g. `"fig12"`.
    pub id: String,
    /// What the numbers mean.
    pub metric: String,
    /// Row label → series label → value.
    pub rows: BTreeMap<String, BTreeMap<String, f64>>,
    /// Full per-cell records (stats and telemetry), in insertion order.
    /// Populated by sweep-driven experiments; plain `insert` calls leave
    /// it untouched.
    pub cells: Vec<CellRecord>,
}

impl ToJson for Experiment {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".to_string(), self.id.to_json()),
            ("metric".to_string(), self.metric.to_json()),
            ("rows".to_string(), self.rows.to_json()),
            ("cells".to_string(), self.cells.to_json()),
        ])
    }
}

impl Experiment {
    /// Creates an empty experiment record.
    pub fn new(id: &str, metric: &str) -> Self {
        Self {
            id: id.to_string(),
            metric: metric.to_string(),
            rows: BTreeMap::new(),
            cells: Vec::new(),
        }
    }

    /// Inserts one cell.
    pub fn insert(&mut self, row: &str, series: &str, value: f64) {
        self.rows
            .entry(row.to_string())
            .or_default()
            .insert(series.to_string(), value);
    }

    /// Inserts one fully resolved cell: the value lands in [`rows`]
    /// (like [`insert`]) and the complete record in [`cells`].
    ///
    /// [`rows`]: Experiment::rows
    /// [`insert`]: Experiment::insert
    /// [`cells`]: Experiment::cells
    pub fn insert_cell(&mut self, record: CellRecord) {
        self.insert(&record.row, &record.series, record.value);
        self.cells.push(record);
    }

    /// Writes the record to `target/experiments/<id>.json`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("target/experiments");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json().to_pretty())?;
        Ok(path)
    }
}

/// Prints a fixed-width table: rows × series.
pub fn print_table(title: &str, series: &[&str], rows: &[(String, Vec<f64>)]) {
    println!("\n== {title} ==");
    print!("{:<12}", "");
    for s in series {
        print!("{s:>22}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:<12}");
        for v in values {
            print!("{v:>22.3}");
        }
        println!();
    }
}

/// Geometric mean; `NaN` for an empty slice.
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Pretty one-line summary of a run's headline stats.
pub fn summarize(s: &Stats) -> String {
    format!(
        "runtime={} tx={} reads={} data-writes={} counter-writes={} cc-miss={:.1}%",
        s.runtime,
        s.transactions_committed,
        s.nvmm_reads,
        s.nvmm_data_writes,
        s.nvmm_counter_writes,
        s.counter_cache_miss_rate() * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geo_mean(&[]).is_nan());
    }

    #[test]
    fn experiment_writes_id_metric_rows_and_cells() {
        let mut e = Experiment::new("test", "unitless");
        e.insert("row", "series", 1.5);
        assert_eq!(e.rows["row"]["series"], 1.5);
        assert_eq!(
            e.to_json().to_compact(),
            r#"{"id":"test","metric":"unitless","rows":{"row":{"series":1.5}},"cells":[]}"#
        );
    }
}
