//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in the benchmark, not in the program: each one brackets a
//! public call (`System::run`, `CrashSet::enumerate_verified_timed`,
//! ...). A disabled recorder runs the closure without reading the clock,
//! so the untraced repetitions that produce the end-to-end metrics pay
//! nothing for it.

use std::collections::BTreeMap;
use std::time::Instant;

/// Spans that do not nest inside one another: on every thread their sum
/// covers the traced wall time, up to the benchmark's own glue code.
/// `bench.generate_s` (inside `system.run_s`) and
/// `integrity.delta_verify_s` (inside `crashmc.walk_s`) are children and
/// are left out of the sum.
pub const TOP_LEVEL: [&str; 8] = [
    "bench.inputs_s",
    "workloads.execute_s",
    "workloads.crash_instants_s",
    "system.build_s",
    "system.run_s",
    "system.crash_run_s",
    "crashmc.walk_s",
    "harness.check_s",
];

/// Accumulated host seconds per span name.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    secs: BTreeMap<&'static str, f64>,
    /// Job seconds beyond the wall time the recording thread spent
    /// waiting for parallel jobs: a parallel phase's spans sum over its
    /// jobs, so the wall time they reconcile against must too.
    parallel_excess_s: f64,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::default()
    }

    /// A recorder that records every span.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, adding its host time to span `name` when enabled.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed().as_secs_f64());
        out
    }

    /// Adds `secs` to span `name` (for times a layer reports itself).
    pub fn add(&mut self, name: &'static str, secs: f64) {
        if self.enabled {
            *self.secs.entry(name).or_default() += secs;
        }
    }

    /// Seconds recorded under `name`, 0 when the layer never ran.
    pub fn get(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    /// Folds the spans of parallel jobs into this recorder. `busy_s` is
    /// the jobs' summed time and `wall_s` the wall time this thread
    /// spent waiting for them.
    pub fn absorb_jobs(&mut self, jobs: Vec<Spans>, busy_s: f64, wall_s: f64) {
        for w in jobs {
            for (name, secs) in w.secs {
                self.add(name, secs);
            }
        }
        if self.enabled {
            self.parallel_excess_s += busy_s - wall_s;
        }
    }

    /// Sum of the top-level spans over every thread.
    pub fn top_level_sum(&self) -> f64 {
        TOP_LEVEL.iter().map(|name| self.get(name)).sum()
    }

    /// Thread-seconds the top-level spans must cover, given the
    /// recording thread's wall time.
    pub fn covered_s(&self, wall_s: f64) -> f64 {
        wall_s + self.parallel_excess_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::off();
        assert_eq!(s.time("system.run_s", || 7), 7);
        s.add("system.run_s", 1.0);
        assert_eq!(s.get("system.run_s"), 0.0);
    }

    #[test]
    fn job_spans_sum_and_widen_the_covered_time() {
        let mut s = Spans::on();
        s.add("system.build_s", 0.5);
        let mut w = Spans::on();
        w.add("crashmc.walk_s", 2.0);
        w.add("integrity.delta_verify_s", 1.0);
        s.absorb_jobs(vec![w], 2.0, 1.0);
        assert_eq!(s.top_level_sum(), 2.5);
        assert_eq!(s.covered_s(1.5), 2.5);
    }
}
