//! Metric names, units and values. The names are the ones
//! `BENCHMARK.json` declares; the in-binary test holds the two equal.

use crate::spans::Spans;
use crate::workloads::Outcome;
use nvmm_sim::{Stats, Time};

/// One reported value.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sum(runs: &[Stats], f: impl Fn(&Stats) -> u64) -> f64 {
    runs.iter().map(f).sum::<u64>() as f64
}

fn sum_ns(runs: &[Stats], f: impl Fn(&Stats) -> Time) -> f64 {
    runs.iter().map(|s| f(s).as_ns_f64()).sum()
}

/// Host-side measurements of the untraced runs.
pub struct HostTimes {
    /// Median set-up time.
    pub setup_s: f64,
    /// Median repetition time.
    pub rep_s: f64,
    pub peak_rss_mib: f64,
}

/// The end-to-end metrics of one workload. Every one applies to every
/// workload and is never zero.
pub fn end_to_end(out: &Outcome, host: &HostTimes) -> Vec<Metric> {
    let tx = sum(&out.runs, |s| s.transactions_committed);
    // The data structures run back to back in simulated time.
    let runtime_s: f64 = out.runs.iter().map(|s| s.runtime.as_secs_f64()).sum();
    vec![
        m("setup_s", "s", host.setup_s),
        m("items_per_s", "1/s", out.items as f64 / host.rep_s),
        m("peak_rss_mib", "MiB", host.peak_rss_mib),
        m("sim_tps", "tx/s", ratio(tx, runtime_s)),
        m(
            "nvmm_bytes_per_tx",
            "B/tx",
            ratio(sum(&out.runs, |s| s.bytes_written), tx),
        ),
    ]
}

/// Measurements of the traced pass.
pub struct TracedTimes {
    /// The host probe, timed before the workload.
    pub calib_s: f64,
    /// Traced repetition wall time over the untraced median, minus one.
    pub overhead: f64,
    /// Top-level span sum over the thread time they must cover.
    pub coverage: f64,
}

/// The per-layer metrics of one workload's traced pass. A layer the
/// workload does not exercise reads 0.
pub fn per_layer(out: &Outcome, spans: &Spans, t: &TracedTimes) -> Vec<Metric> {
    let r = &out.runs;
    let reports = &out.reports;
    let rsum = |f: &dyn Fn(&nvmm_workloads::ModelCheckReport) -> u64| -> f64 {
        reports.iter().map(f).sum::<u64>() as f64
    };
    let groups = rsum(&|x| x.stats.groups as u64);
    let pruned = rsum(&|x| x.stats.groups_pruned as u64);
    let masks = rsum(&|x| x.stats.masks_explored);
    let deduped = rsum(&|x| x.stats.images_deduped);
    let exhaustive = rsum(&|x| x.stats.exhaustive as u64);
    let quantile = |q| out.latency.as_ref().map_or(0.0, |h| h.quantile(q) as f64);
    let hits = sum(r, |s| s.counter_cache_hits);
    let misses = sum(r, |s| s.counter_cache_misses);
    let run_s = spans.get("system.run_s");
    vec![
        m("host.calib_s", "s", t.calib_s),
        m("bench.trace_overhead", "ratio", t.overhead),
        m("bench.layer_coverage", "ratio", t.coverage),
        m("bench.inputs_s", "s", spans.get("bench.inputs_s")),
        m("bench.generate_s", "s", spans.get("bench.generate_s")),
        m("workloads.execute_s", "s", spans.get("workloads.execute_s")),
        m(
            "workloads.crash_instants_s",
            "s",
            spans.get("workloads.crash_instants_s"),
        ),
        m("system.build_s", "s", spans.get("system.build_s")),
        m("system.run_s", "s", run_s),
        m("system.events", "count", out.events as f64),
        m(
            "system.ns_per_event",
            "ns",
            ratio(run_s * 1e9, out.events as f64),
        ),
        m("system.crash_run_s", "s", spans.get("system.crash_run_s")),
        m("crashmc.walk_s", "s", spans.get("crashmc.walk_s")),
        m(
            "integrity.delta_verify_s",
            "s",
            spans.get("integrity.delta_verify_s"),
        ),
        m("harness.check_s", "s", spans.get("harness.check_s")),
        m(
            "harness.judge_s",
            "s",
            (spans.get("harness.check_s") - spans.get("crashmc.walk_s")).max(0.0),
        ),
        m("crashmc.instants", "count", reports.len() as f64),
        m("crashmc.groups", "count", groups),
        m("crashmc.groups_pruned", "count", pruned),
        m("crashmc.prune_ratio", "ratio", ratio(pruned, groups)),
        m("crashmc.masks_explored", "count", masks),
        m("crashmc.images_deduped", "count", deduped),
        m("crashmc.dedupe_ratio", "ratio", ratio(deduped, masks)),
        m(
            "crashmc.exhaustive_frac",
            "ratio",
            ratio(exhaustive, reports.len() as f64),
        ),
        m(
            "images_checked",
            "count",
            rsum(&|x| x.images_checked as u64),
        ),
        m(
            "harness.violations",
            "count",
            rsum(&|x| x.violations as u64),
        ),
        m(
            "harness.witness_groups",
            "count",
            rsum(&|x| x.minimal.as_ref().map_or(0, |v| v.landed.len() as u64)),
        ),
        m("sim_p50_ns", "ns", quantile(0.50)),
        m("sim_p99_ns", "ns", quantile(0.99)),
        m("sim_p999_ns", "ns", quantile(0.999)),
        m("cache.counter_hits", "count", hits),
        m("cache.counter_misses", "count", misses),
        m(
            "cache.counter_miss_rate",
            "ratio",
            ratio(misses, hits + misses),
        ),
        m(
            "cache.counter_evictions",
            "count",
            sum(r, |s| s.counter_cache_evictions),
        ),
        m(
            "cache.counter_writebacks",
            "count",
            sum(r, |s| s.counter_cache_writebacks),
        ),
        m("wq.pairing_stalls", "count", sum(r, |s| s.pairing_stalls)),
        m("wq.pairing_stall_ns", "ns", sum_ns(r, |s| s.pairing_stall)),
        m(
            "wq.queue_full_stall_ns",
            "ns",
            sum_ns(r, |s| s.queue_full_stall),
        ),
        m(
            "system.barrier_stall_ns",
            "ns",
            sum_ns(r, |s| s.barrier_stall),
        ),
        m(
            "integrity.tree_cache_hits",
            "count",
            sum(r, |s| s.tree_cache_hits),
        ),
        m(
            "integrity.tree_cache_misses",
            "count",
            sum(r, |s| s.tree_cache_misses),
        ),
        m(
            "integrity.metadata_writes",
            "count",
            sum(r, |s| s.nvmm_metadata_writes),
        ),
        m(
            "integrity.root_update_stalls",
            "count",
            sum(r, |s| s.root_update_stalls),
        ),
        m(
            "integrity.root_update_stall_ns",
            "ns",
            sum_ns(r, |s| s.root_update_stall),
        ),
        m("device.reads", "count", sum(r, |s| s.nvmm_reads)),
        m(
            "device.data_writes",
            "count",
            sum(r, |s| s.nvmm_data_writes),
        ),
        m(
            "device.counter_writes",
            "count",
            sum(r, |s| s.nvmm_counter_writes),
        ),
        m(
            "device.counter_reads",
            "count",
            sum(r, |s| s.nvmm_counter_reads),
        ),
        m("device.bytes_written", "B", sum(r, |s| s.bytes_written)),
        m(
            "device.max_line_writes",
            "count",
            r.iter().map(|s| s.max_line_writes).max().unwrap_or(0) as f64,
        ),
        m(
            "wq.coalesced_data_writes",
            "count",
            sum(r, |s| s.coalesced_data_writes),
        ),
        m(
            "wq.coalesced_counter_writes",
            "count",
            sum(r, |s| s.coalesced_counter_writes),
        ),
        m(
            "wq.counter_atomic_writes",
            "count",
            sum(r, |s| s.counter_atomic_writes),
        ),
        m("wq.plain_writes", "count", sum(r, |s| s.plain_writes)),
    ]
}
