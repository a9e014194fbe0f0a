//! Per-epoch telemetry: time-resolved views of the controller pressure
//! that the paper's aggregate numbers average away.
//!
//! Figures 12–17 report end-of-run totals; *when* the counter write
//! queue backs up, or how the pairing coordinator saturates in bursts,
//! is invisible in them. When [`crate::config::SimConfig::telemetry_epoch`]
//! is set, the replay engine attaches an [`EpochSampler`] that slices
//! simulated time into fixed-width epochs and records, per epoch:
//!
//! * the instantaneous data/counter write-queue depth at the epoch
//!   boundary, summed over channel shards
//!   ([`crate::shard::ShardedController::write_queue_depths`]),
//! * deltas of the write-path counters (NVMM writes, coalesces, pairing
//!   stalls, counter-cache probes, bytes written).
//!
//! The resulting [`Timeline`] rides along in
//! [`crate::system::RunOutcome::timeline`] and serializes next to
//! [`crate::stats::Stats`] in experiment artifacts. Epoch deltas are
//! exact: summing any counter over all epochs reproduces the final
//! cumulative value (see `epoch_totals_reconcile_with_stats`).
//!
//! The sampler only observes — it never schedules anything — so enabling
//! it cannot perturb timing, and the default (`telemetry_epoch: None`)
//! skips even the observation.

use crate::shard::ShardedController;
use crate::stats::Stats;
use crate::time::Time;
use nvmm_json::{Json, ToJson};

/// Field list shared by [`EpochSample`]'s JSON writer, delta
/// computation and idle test, so none of them can drift:
/// every `u64` field that is a *delta of a cumulative [`Stats`] counter*
/// over the epoch. Queue depths and the time bounds are handled
/// explicitly. The `sample_to_json_writes_every_field_under_its_own_key`
/// test fails when a field is added to [`EpochSample`] but not written.
macro_rules! epoch_delta_fields {
    ($m:ident) => {
        $m!(
            nvmm_data_writes,
            nvmm_counter_writes,
            coalesced_data_writes,
            coalesced_counter_writes,
            pairing_stalls,
            counter_cache_hits,
            counter_cache_misses,
            counter_cache_evictions,
            counter_cache_writebacks,
            nvmm_metadata_writes,
            bytes_written,
            wear_line_writes
        );
    };
}

/// One telemetry interval: `[start, end)` in simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochSample {
    /// Start of the interval (inclusive).
    pub start: Time,
    /// End of the interval (exclusive; the sampling instant).
    pub end: Time,
    /// Data write-queue occupancy at `end`.
    pub data_queue_depth: u64,
    /// Counter write-queue occupancy at `end`.
    pub counter_queue_depth: u64,
    /// Data-line NVMM writes accepted during the epoch.
    pub nvmm_data_writes: u64,
    /// Counter-line NVMM writes accepted during the epoch.
    pub nvmm_counter_writes: u64,
    /// Data writes that merged into a pending same-line entry.
    pub coalesced_data_writes: u64,
    /// Counter writes that merged into a pending same-line entry.
    pub coalesced_counter_writes: u64,
    /// Counter-atomic pairs that waited on the pairing coordinator.
    pub pairing_stalls: u64,
    /// Counter-cache hits during the epoch.
    pub counter_cache_hits: u64,
    /// Counter-cache misses during the epoch.
    pub counter_cache_misses: u64,
    /// Dirty counter-cache victims written back during the epoch.
    pub counter_cache_evictions: u64,
    /// `counter_cache_writeback` operations executed during the epoch.
    pub counter_cache_writebacks: u64,
    /// MAC-line and tree-node NVMM writes accepted during the epoch.
    pub nvmm_metadata_writes: u64,
    /// Bytes written to NVMM during the epoch.
    pub bytes_written: u64,
    /// Line-write requests during the epoch (all regions) — the
    /// time-resolved wear series.
    pub wear_line_writes: u64,
}

impl EpochSample {
    /// Counter-cache hit rate within this epoch, or 0.0 if unprobed.
    pub fn counter_cache_hit_rate(&self) -> f64 {
        let total = self.counter_cache_hits + self.counter_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.counter_cache_hits as f64 / total as f64
        }
    }

    /// True when nothing happened and no queue entry was outstanding —
    /// such epochs are dropped from the timeline.
    fn is_idle(&self) -> bool {
        let mut active = self.data_queue_depth + self.counter_queue_depth;
        macro_rules! add_delta {
            ($($name:ident),*) => { $( active += self.$name; )* };
        }
        epoch_delta_fields!(add_delta);
        active == 0
    }
}

impl ToJson for EpochSample {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("start".to_string(), self.start.to_json()),
            ("end".to_string(), self.end.to_json()),
            (
                "data_queue_depth".to_string(),
                self.data_queue_depth.to_json(),
            ),
            (
                "counter_queue_depth".to_string(),
                self.counter_queue_depth.to_json(),
            ),
        ];
        macro_rules! push_delta {
            ($($name:ident),*) => {
                $( members.push((stringify!($name).to_string(), self.$name.to_json())); )*
            };
        }
        epoch_delta_fields!(push_delta);
        Json::Obj(members)
    }
}

/// The full per-epoch record of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// The configured epoch width.
    pub epoch: Time,
    /// Non-idle epochs, in time order. Fully idle intervals are elided,
    /// so consecutive entries need not be adjacent.
    pub epochs: Vec<EpochSample>,
}

impl Timeline {
    /// Sums `f` over all epochs — e.g.
    /// `timeline.total(|e| e.bytes_written)` equals the run's final
    /// `Stats::bytes_written`.
    pub fn total(&self, f: impl Fn(&EpochSample) -> u64) -> u64 {
        self.epochs.iter().map(f).sum()
    }
}

impl ToJson for Timeline {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("epoch".to_string(), self.epoch.to_json()),
            ("epochs".to_string(), self.epochs.to_json()),
        ])
    }
}

/// The sampler the replay engine drives while telemetry is enabled.
///
/// [`observe`](EpochSampler::observe) is called after every trace event
/// with the stepped core's clock; whenever the clock crosses one or more
/// epoch boundaries, the elapsed epochs are closed. Counter deltas since
/// the previous boundary are attributed to the first epoch closed (the
/// one in which they were observed); any further epochs skipped over in
/// the same jump are idle and elided.
#[derive(Debug)]
pub struct EpochSampler {
    epoch: Time,
    epoch_start: Time,
    /// The cumulative [`Stats`] value of every delta field at the last
    /// closed epoch boundary.
    last: EpochSample,
    timeline: Timeline,
}

impl EpochSampler {
    /// Creates a sampler with the given epoch width.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    pub fn new(epoch: Time) -> Self {
        assert!(epoch > Time::ZERO, "telemetry epoch must be positive");
        Self {
            epoch,
            epoch_start: Time::ZERO,
            last: EpochSample::default(),
            timeline: Timeline {
                epoch,
                epochs: Vec::new(),
            },
        }
    }

    fn close_epoch(&mut self, end: Time, stats: &Stats, controller: &ShardedController) {
        let (dq, cq) = controller.write_queue_depths(end);
        let mut sample = EpochSample {
            start: self.epoch_start,
            end,
            data_queue_depth: dq as u64,
            counter_queue_depth: cq as u64,
            ..EpochSample::default()
        };
        macro_rules! delta {
            ($($name:ident),*) => { $(
                sample.$name = stats.$name - self.last.$name;
                self.last.$name = stats.$name;
            )* };
        }
        epoch_delta_fields!(delta);
        if !sample.is_idle() {
            self.timeline.epochs.push(sample);
        }
        self.epoch_start = end;
    }

    /// Advances the sampler to `now`, closing every epoch whose boundary
    /// has been reached.
    pub fn observe(&mut self, now: Time, stats: &Stats, controller: &ShardedController) {
        while now >= self.epoch_start + self.epoch {
            let end = self.epoch_start + self.epoch;
            self.close_epoch(end, stats, controller);
        }
    }

    /// Closes the final (possibly partial) epoch at `now` and returns
    /// the finished timeline. Totals over the timeline reconcile exactly
    /// with the final cumulative `stats`.
    pub fn finish(mut self, now: Time, stats: &Stats, controller: &ShardedController) -> Timeline {
        self.observe(now, stats, controller);
        // The trailing epoch may be partial, or zero-width when `now`
        // sits exactly on a boundary — the latter only survives elision
        // if end-of-run bookkeeping bumped counters after the boundary.
        self.close_epoch(now, stats, controller);
        self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::config::{Design, SimConfig};
    use crate::system::{instant_after_events, run_to_completion, CrashSpec, System};
    use crate::trace::{Trace, TraceEvent};

    /// A write-heavy trace: enough distinct lines to miss the counter
    /// cache, enough same-counter-line traffic to hit and coalesce, and
    /// explicit persists so counter-atomic pairs chain on the
    /// coordinator.
    fn busy_trace(lines: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..lines {
            t.push(TraceEvent::Write {
                line: LineAddr(i * 3),
                data: [i as u8; 64],
                counter_atomic: true,
            });
            t.push(TraceEvent::Clwb {
                line: LineAddr(i * 3),
            });
            if i % 4 == 0 {
                t.push(TraceEvent::Compute {
                    duration: Time::from_ns(40),
                });
            }
            // Barrier only every few persists so consecutive pairs reach
            // the coordinator back to back and chain (Fig. 7a).
            if i % 8 == 7 {
                t.push(TraceEvent::PersistBarrier);
            }
        }
        t.push(TraceEvent::PersistBarrier);
        t
    }

    fn telemetry_cfg(design: Design, epoch_ns: u64) -> SimConfig {
        SimConfig::single_core(design).with_telemetry_epoch(Time::from_ns(epoch_ns))
    }

    #[test]
    fn telemetry_off_by_default() {
        let out = run_to_completion(SimConfig::single_core(Design::Fca), vec![busy_trace(20)]);
        assert!(out.timeline.is_none());
    }

    #[test]
    fn telemetry_on_yields_epochs() {
        let out = run_to_completion(telemetry_cfg(Design::Fca, 200), vec![busy_trace(20)]);
        let tl = out.timeline.expect("telemetry enabled");
        assert_eq!(tl.epoch, Time::from_ns(200));
        assert!(!tl.epochs.is_empty(), "a busy run must record activity");
        assert!(
            tl.epochs.windows(2).all(|w| w[0].end <= w[1].start),
            "epochs are ordered"
        );
    }

    #[test]
    fn epoch_totals_reconcile_with_stats() {
        for design in [Design::Fca, Design::Sca, Design::NoEncryption] {
            let out = run_to_completion(telemetry_cfg(design, 150), vec![busy_trace(40)]);
            let tl = out.timeline.expect("telemetry enabled");
            let s = &out.stats;
            assert_eq!(
                tl.total(|e| e.nvmm_data_writes),
                s.nvmm_data_writes,
                "{design:?}"
            );
            assert_eq!(
                tl.total(|e| e.nvmm_counter_writes),
                s.nvmm_counter_writes,
                "{design:?}"
            );
            assert_eq!(
                tl.total(|e| e.coalesced_data_writes),
                s.coalesced_data_writes,
                "{design:?}"
            );
            assert_eq!(
                tl.total(|e| e.coalesced_counter_writes),
                s.coalesced_counter_writes,
                "{design:?}"
            );
            assert_eq!(
                tl.total(|e| e.pairing_stalls),
                s.pairing_stalls,
                "{design:?}"
            );
            assert_eq!(
                tl.total(|e| e.counter_cache_hits),
                s.counter_cache_hits,
                "{design:?}"
            );
            assert_eq!(
                tl.total(|e| e.counter_cache_misses),
                s.counter_cache_misses,
                "{design:?}"
            );
            assert_eq!(
                tl.total(|e| e.counter_cache_evictions),
                s.counter_cache_evictions,
                "{design:?}"
            );
            assert_eq!(
                tl.total(|e| e.counter_cache_writebacks),
                s.counter_cache_writebacks,
                "{design:?}"
            );
            assert_eq!(
                tl.total(|e| e.nvmm_metadata_writes),
                s.nvmm_metadata_writes,
                "{design:?}"
            );
            assert_eq!(tl.total(|e| e.bytes_written), s.bytes_written, "{design:?}");
            assert_eq!(
                tl.total(|e| e.wear_line_writes),
                s.wear_line_writes,
                "{design:?}"
            );
            assert_eq!(
                s.wear_line_writes,
                s.nvmm_writes() + s.coalesced_writes(),
                "every NVMM write request is charged to wear ({design:?})"
            );
        }
    }

    #[test]
    fn integrity_run_reconciles_metadata_deltas() {
        let cfg =
            telemetry_cfg(Design::Sca, 150).with_integrity(crate::config::IntegrityPolicy::Strict);
        let out = run_to_completion(cfg, vec![busy_trace(40)]);
        let tl = out.timeline.expect("telemetry enabled");
        assert!(
            out.stats.nvmm_metadata_writes > 0,
            "strict integrity must write MAC/tree metadata"
        );
        assert_eq!(
            tl.total(|e| e.nvmm_metadata_writes),
            out.stats.nvmm_metadata_writes
        );
    }

    #[test]
    fn fca_records_pairing_stalls() {
        let out = run_to_completion(telemetry_cfg(Design::Fca, 150), vec![busy_trace(40)]);
        assert!(
            out.stats.pairing_stalls > 0,
            "back-to-back CA pairs must chain"
        );
        assert!(out.stats.pairing_stall > Time::ZERO);
        let tl = out.timeline.unwrap();
        assert!(tl.total(|e| e.pairing_stalls) > 0);
    }

    #[test]
    fn telemetry_does_not_perturb_stats() {
        let plain = run_to_completion(SimConfig::single_core(Design::Fca), vec![busy_trace(30)]);
        let sampled = run_to_completion(telemetry_cfg(Design::Fca, 100), vec![busy_trace(30)]);
        assert_eq!(plain.stats, sampled.stats, "the sampler must only observe");
    }

    #[test]
    fn telemetry_is_deterministic() {
        let a = run_to_completion(telemetry_cfg(Design::Sca, 120), vec![busy_trace(25)]);
        let b = run_to_completion(telemetry_cfg(Design::Sca, 120), vec![busy_trace(25)]);
        assert_eq!(a.timeline, b.timeline);
    }

    #[test]
    fn crashed_run_still_closes_timeline() {
        let cfg = telemetry_cfg(Design::Fca, 100);
        let t = instant_after_events(&cfg, &busy_trace(40), 31);
        let out = System::new(cfg, vec![busy_trace(40)]).run(CrashSpec::AtTime(t));
        assert!(out.crash_time.is_some(), "the crash lands mid-run");
        let tl = out.timeline.expect("telemetry enabled");
        assert_eq!(tl.total(|e| e.bytes_written), out.stats.bytes_written);
    }

    #[test]
    fn run_shorter_than_one_epoch_yields_single_partial_epoch() {
        // Epoch far wider than the whole run: `observe` never closes
        // anything and `finish` emits exactly one partial epoch that
        // covers the run and carries every counter.
        let out = run_to_completion(telemetry_cfg(Design::Fca, 1_000_000), vec![busy_trace(6)]);
        let tl = out.timeline.expect("telemetry enabled");
        assert!(
            out.stats.runtime < Time::from_ns(1_000_000),
            "trace must fit inside one epoch for this edge case"
        );
        assert_eq!(tl.epochs.len(), 1, "one partial epoch covers the run");
        let e = &tl.epochs[0];
        assert_eq!(e.start, Time::ZERO);
        assert_eq!(e.end, out.stats.runtime);
        assert_eq!(tl.total(|e| e.bytes_written), out.stats.bytes_written);
        assert_eq!(tl.total(|e| e.nvmm_data_writes), out.stats.nvmm_data_writes);
        assert_eq!(
            tl.total(|e| e.nvmm_counter_writes),
            out.stats.nvmm_counter_writes
        );
    }

    #[test]
    fn crash_on_exact_epoch_boundary_reconciles() {
        // Crash at an instant that is an exact multiple of the epoch
        // width: interior epochs still close on boundaries and the
        // truncated run's totals still reconcile.
        let epoch = Time::from_ns(100);
        let out = System::new(telemetry_cfg(Design::Fca, 100), vec![busy_trace(40)])
            .run(CrashSpec::AtTime(Time::from_ns(300)));
        assert_eq!(
            out.crash_time,
            Some(Time::from_ns(300)),
            "crash lands exactly on the third boundary"
        );
        let tl = out.timeline.expect("telemetry enabled");
        for w in tl.epochs.windows(2) {
            assert_eq!(
                w[0].end.0 % epoch.0,
                0,
                "interior epoch must end on a boundary"
            );
        }
        assert_eq!(tl.total(|e| e.bytes_written), out.stats.bytes_written);
        assert_eq!(tl.total(|e| e.pairing_stalls), out.stats.pairing_stalls);
        assert_eq!(
            tl.total(|e| e.nvmm_data_writes + e.nvmm_counter_writes),
            out.stats.nvmm_data_writes + out.stats.nvmm_counter_writes
        );
    }

    #[test]
    fn boundary_instant_closes_epoch_exactly_once() {
        // Observing exactly on a boundary closes that epoch; finishing
        // at the same instant must not double-count the activity — the
        // trailing zero-width epoch carries no deltas (it survives
        // elision only to report residual queue depth).
        let cfg = SimConfig::single_core(Design::Sca);
        let mut c = ShardedController::new(&cfg);
        let mut s = Stats::new(1);
        let mut sampler = EpochSampler::new(Time::from_ns(100));
        c.writeback(LineAddr(1), [1; 64], false, Time::from_ns(10), &mut s);
        sampler.observe(Time::from_ns(100), &s, &c);
        let tl = sampler.finish(Time::from_ns(100), &s, &c);
        assert_eq!(tl.total(|e| e.bytes_written), s.bytes_written);
        assert_eq!(tl.total(|e| e.nvmm_data_writes), s.nvmm_data_writes);
        assert_eq!(tl.epochs[0].start, Time::ZERO);
        assert_eq!(tl.epochs[0].end, Time::from_ns(100));
        for e in &tl.epochs {
            if e.start == e.end {
                assert_eq!(e.bytes_written, 0, "zero-width epoch must carry no deltas");
                assert_eq!(e.nvmm_data_writes, 0);
            }
        }
    }

    #[test]
    fn sample_to_json_writes_every_field_under_its_own_key() {
        // As `Stats`' writer test: an exhaustive literal with a distinct
        // value per field, each expected under its own key.
        macro_rules! literal_and_expected {
            ($($name:ident: $value:expr),* $(,)?) => {{
                let e = EpochSample { $($name: $value),* };
                let expected: Vec<(String, Json)> =
                    vec![$((stringify!($name).to_string(), e.$name.to_json())),*];
                (e, expected)
            }};
        }
        let (e, mut expected) = literal_and_expected!(
            start: Time(1),
            end: Time(2),
            data_queue_depth: 3,
            counter_queue_depth: 4,
            nvmm_data_writes: 5,
            nvmm_counter_writes: 6,
            coalesced_data_writes: 7,
            coalesced_counter_writes: 8,
            pairing_stalls: 9,
            counter_cache_hits: 10,
            counter_cache_misses: 11,
            counter_cache_evictions: 12,
            counter_cache_writebacks: 13,
            nvmm_metadata_writes: 14,
            bytes_written: 15,
            wear_line_writes: 16,
        );
        let Json::Obj(mut written) = e.to_json() else {
            panic!("an epoch sample must be written as an object");
        };
        written.sort_by(|a, b| a.0.cmp(&b.0));
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(written, expected);
        let tl = Timeline {
            epoch: Time(17),
            epochs: vec![e],
        };
        assert_eq!(
            tl.to_json(),
            Json::Obj(vec![
                ("epoch".to_string(), Json::U64(17)),
                ("epochs".to_string(), Json::Arr(vec![e.to_json()])),
            ])
        );
    }

    #[test]
    fn hit_rate_handles_unprobed_epoch() {
        assert_eq!(EpochSample::default().counter_cache_hit_rate(), 0.0);
        let e = EpochSample {
            counter_cache_hits: 3,
            counter_cache_misses: 1,
            ..Default::default()
        };
        assert!((e.counter_cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_epoch_rejected() {
        let _ = EpochSampler::new(Time::ZERO);
    }
}
