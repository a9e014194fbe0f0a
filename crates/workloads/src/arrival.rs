//! Open-loop arrival shaping for service-scale benchmarks.
//!
//! The harness's traces are *closed-loop*: each transaction issues the
//! instant the previous one finishes, so measured latency is pure
//! service time and throughput is bounded by one outstanding request
//! per core. A service under load is *open-loop*: requests arrive on
//! their own schedule whether or not the system has caught up, and
//! tail latency grows with queueing delay. [`shape_open_loop`] converts
//! a closed-loop trace into an open-loop one by inserting a
//! [`TraceEvent::WaitUntil`] arrival gate before every transaction and
//! stamping the transaction's `TxCommit` id with the arrival instant,
//! so the replay engine reports arrival-to-commit latency
//! ([`nvmm_sim::system::RunOutcome::latency`]).
//!
//! Three deterministic arrival models are provided (the `fig_service`
//! bench drives all of them):
//!
//! * **steady** — constant inter-arrival gap;
//! * **burst** — alternating fast/slow phases of `phase_txs`
//!   transactions at half and 1.5× the mean gap;
//! * **diurnal** — a triangular ramp between 0.5× and 1.5× the mean
//!   gap with period `2 * phase_txs` transactions, a scaled-down
//!   day/night load cycle.
//!
//! All models preserve the configured mean gap, and per-core arrival
//! schedules are phase-staggered so cores do not arrive in lockstep.

use nvmm_sim::time::Time;
use nvmm_sim::trace::{Trace, TraceEvent};

/// The shape of the inter-arrival gap sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalModel {
    /// Constant gap.
    Steady,
    /// Alternating fast/slow phases (0.5× / 1.5× the mean gap).
    Burst,
    /// Triangular ramp between 0.5× and 1.5× the mean gap.
    Diurnal,
}

impl ArrivalModel {
    /// Stable lowercase label (artifact series names).
    pub fn label(self) -> &'static str {
        match self {
            ArrivalModel::Steady => "steady",
            ArrivalModel::Burst => "burst",
            ArrivalModel::Diurnal => "diurnal",
        }
    }
}

/// A deterministic open-loop arrival schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalCurve {
    /// Gap-sequence shape.
    pub model: ArrivalModel,
    /// Mean inter-arrival gap per core.
    pub mean_gap: Time,
    /// Phase length in transactions for `Burst` (one fast or slow
    /// phase) and `Diurnal` (half a ramp period); ignored by `Steady`.
    pub phase_txs: u64,
}

impl ArrivalCurve {
    /// A constant-rate schedule.
    pub fn steady(mean_gap: Time) -> Self {
        Self {
            model: ArrivalModel::Steady,
            mean_gap,
            phase_txs: 1,
        }
    }

    /// An alternating fast/slow schedule.
    pub fn burst(mean_gap: Time, phase_txs: u64) -> Self {
        Self {
            model: ArrivalModel::Burst,
            mean_gap,
            phase_txs: phase_txs.max(1),
        }
    }

    /// A triangular day/night ramp.
    pub fn diurnal(mean_gap: Time, phase_txs: u64) -> Self {
        Self {
            model: ArrivalModel::Diurnal,
            mean_gap,
            phase_txs: phase_txs.max(1),
        }
    }

    /// The gap preceding transaction `k` (0-based) on one core. Every
    /// model's gaps average to `mean_gap` over a whole phase period.
    fn gap(&self, k: u64) -> Time {
        let g = self.mean_gap.0;
        let ticks = match self.model {
            ArrivalModel::Steady => g,
            ArrivalModel::Burst => {
                if (k / self.phase_txs).is_multiple_of(2) {
                    g / 2
                } else {
                    g + g / 2
                }
            }
            ArrivalModel::Diurnal => {
                let period = 2 * self.phase_txs;
                let pos = k % period;
                // Factor ramps 0.5 → 1.5 over the first half-period and
                // back down over the second, in 1/phase_txs steps.
                let x = pos.min(period - pos); // 0..=phase_txs
                g / 2 + g * x / self.phase_txs
            }
        };
        Time(ticks)
    }
}

/// Converts per-core closed-loop traces into open-loop ones: before
/// each transaction (the events up to and including its `TxCommit`) a
/// [`TraceEvent::WaitUntil`] arrival gate is inserted, and the
/// `TxCommit` id is rewritten to the arrival instant's raw tick count.
/// Core `c` of `n` starts with a stagger offset of `c/n` of one mean
/// gap. Events after the last commit (teardown flushes) are untouched.
pub fn shape_open_loop(traces: Vec<Trace>, curve: &ArrivalCurve) -> Vec<Trace> {
    let cores = traces.len().max(1) as u64;
    traces
        .into_iter()
        .enumerate()
        .map(|(core, trace)| {
            let offset = Time(curve.mean_gap.0 * core as u64 / cores);
            shape_core(trace, curve, offset)
        })
        .collect()
}

fn shape_core(trace: Trace, curve: &ArrivalCurve, offset: Time) -> Trace {
    let mut out = Trace::new();
    let mut segment: Vec<TraceEvent> = Vec::new();
    let mut arrival = offset;
    let mut k = 0u64;
    for ev in trace.iter() {
        match ev {
            TraceEvent::TxCommit { .. } => {
                arrival += curve.gap(k);
                k += 1;
                out.push(TraceEvent::WaitUntil { at: arrival });
                out.extend(segment.drain(..));
                out.push(TraceEvent::TxCommit { id: arrival.0 });
            }
            other => segment.push(other),
        }
    }
    // Teardown events after the last commit replay unshaped.
    out.extend(segment);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm_sim::addr::LineAddr;

    fn closed_loop(txs: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..txs {
            t.push(TraceEvent::Write {
                line: LineAddr(i),
                data: [i as u8; 64],
                counter_atomic: false,
            });
            t.push(TraceEvent::Clwb { line: LineAddr(i) });
            t.push(TraceEvent::PersistBarrier);
            t.push(TraceEvent::TxCommit { id: i });
        }
        t.push(TraceEvent::PersistBarrier); // teardown
        t
    }

    fn arrivals(t: &Trace) -> Vec<Time> {
        t.iter()
            .filter_map(|e| match e {
                TraceEvent::WaitUntil { at } => Some(at),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn shaping_preserves_work_and_tags_commits() {
        let orig = closed_loop(10);
        let shaped = &shape_open_loop(
            vec![orig.clone()],
            &ArrivalCurve::steady(Time::from_ns(100)),
        )[0];
        assert_eq!(shaped.tx_count(), orig.tx_count());
        assert_eq!(shaped.write_count(), orig.write_count());
        assert_eq!(
            arrivals(shaped).len() as u64,
            orig.tx_count(),
            "one gate per transaction"
        );
        // Every commit id equals the preceding gate's instant.
        let mut gate = None;
        for ev in shaped.iter() {
            match ev {
                TraceEvent::WaitUntil { at } => gate = Some(at),
                TraceEvent::TxCommit { id } => assert_eq!(Some(Time(id)), gate),
                _ => {}
            }
        }
    }

    #[test]
    fn steady_gaps_are_constant() {
        let shaped = &shape_open_loop(
            vec![closed_loop(8)],
            &ArrivalCurve::steady(Time::from_ns(50)),
        )[0];
        let at = arrivals(shaped);
        for w in at.windows(2) {
            assert_eq!(w[1] - w[0], Time::from_ns(50));
        }
    }

    #[test]
    fn burst_alternates_and_preserves_mean() {
        let curve = ArrivalCurve::burst(Time::from_ns(100), 4);
        let shaped = &shape_open_loop(vec![closed_loop(16)], &curve)[0];
        let at = arrivals(shaped);
        let gaps: Vec<u64> = at.windows(2).map(|w| (w[1] - w[0]).0).collect();
        assert!(gaps.iter().any(|&g| g == Time::from_ns(50).0));
        assert!(gaps.iter().any(|&g| g == Time::from_ns(150).0));
        // One full fast+slow period averages to the mean gap.
        let period: u64 = gaps[..8].iter().sum();
        assert_eq!(period, 8 * Time::from_ns(100).0);
    }

    #[test]
    fn diurnal_ramps_up_and_down() {
        let curve = ArrivalCurve::diurnal(Time::from_ns(100), 4);
        let shaped = &shape_open_loop(vec![closed_loop(16)], &curve)[0];
        let at = arrivals(shaped);
        let gaps: Vec<u64> = at.windows(2).map(|w| (w[1] - w[0]).0).collect();
        let peak = *gaps.iter().max().unwrap();
        let trough = *gaps.iter().min().unwrap();
        assert!(peak > trough, "ramp must vary the gap");
        assert!(peak <= Time::from_ns(150).0);
        assert!(trough >= Time::from_ns(50).0);
    }

    #[test]
    fn cores_are_staggered() {
        let curve = ArrivalCurve::steady(Time::from_ns(100));
        let shaped = shape_open_loop(vec![closed_loop(4), closed_loop(4)], &curve);
        let first0 = arrivals(&shaped[0])[0];
        let first1 = arrivals(&shaped[1])[0];
        assert_eq!(first1 - first0, Time::from_ns(50), "half-gap stagger");
    }
}
