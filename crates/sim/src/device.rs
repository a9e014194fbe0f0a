//! The NVMM device timing model: banked PCM behind a DDR3 interface,
//! with read priority.
//!
//! The model is a deterministic resource-reservation scheduler. Real
//! memory controllers prioritize demand reads and drain buffered writes
//! into idle gaps; reproducing that exactly would require speculative
//! rescheduling of already-reserved slots. Instead, reads and writes are
//! served by *separate* per-bank reservations (and separate bus
//! channels): reads never queue behind the write backlog — the paper's
//! write-pressure effects reach the cores through write-queue
//! *acceptance* stalls (and thus `persist_barrier` waits), which is
//! exactly the path the paper's §4.1 describes. Within each direction,
//! banks serialize accesses and the bus serializes bursts.
//!
//! Service times follow Table 2: a read occupies its bank for
//! tRCD + tCL, a write for tCWD + tWR (the dominant PCM cell-programming
//! cost). Absolute fidelity to a full FR-FCFS scheduler is a non-goal
//! (see DESIGN.md).

use crate::addr::NvmmTarget;
use crate::config::{PcmTiming, SimConfig};
use crate::time::Time;

/// Kind of device access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Array read (line fetch). Prioritized: never waits on writes.
    Read,
    /// Array write (line drain from the write queues).
    Write,
}

/// A scheduled device access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledAccess {
    /// When the access begins occupying its bank.
    pub start: Time,
    /// When the requested data is available (reads) or durably written
    /// (writes).
    pub done: Time,
}

#[derive(Debug, Clone)]
struct Direction {
    bank_free: Vec<Time>,
    bus_free: Time,
}

impl Direction {
    fn new(banks: usize) -> Self {
        Self {
            bank_free: vec![Time::ZERO; banks],
            bus_free: Time::ZERO,
        }
    }
}

/// Banked PCM device with read-priority scheduling.
#[derive(Debug, Clone)]
pub struct PcmDevice {
    timing: PcmTiming,
    reads: Direction,
    writes: Direction,
    bus_transfer: Time,
}

impl PcmDevice {
    /// Builds the device described by `config`.
    pub fn new(config: &SimConfig) -> Self {
        Self {
            timing: config.pcm,
            reads: Direction::new(config.banks),
            writes: Direction::new(config.banks),
            bus_transfer: config.bus_transfer,
        }
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.reads.bank_free.len()
    }

    /// Reserves bank and bus time for an access to `target` starting no
    /// earlier than `earliest`, returning the reservation.
    pub fn schedule(
        &mut self,
        target: NvmmTarget,
        kind: AccessKind,
        earliest: Time,
    ) -> ScheduledAccess {
        let dir = match kind {
            AccessKind::Read => &mut self.reads,
            AccessKind::Write => &mut self.writes,
        };
        let bi = target.bank(dir.bank_free.len());
        let start = dir.bank_free[bi].max(dir.bus_free).max(earliest);
        dir.bus_free = start + self.bus_transfer;
        let service = match kind {
            AccessKind::Read => self.timing.read_service() + self.bus_transfer,
            AccessKind::Write => self.timing.write_service(),
        };
        let done = start + service;
        dir.bank_free[bi] = done;
        ScheduledAccess { start, done }
    }

    /// The latest write-drain completion currently reserved on any bank.
    pub fn write_horizon(&self) -> Time {
        self.writes
            .bank_free
            .iter()
            .copied()
            .max()
            .unwrap_or(Time::ZERO)
    }
}

/// PCM cell endurance behind every [`WearReport::lifetime_runs`]: the
/// writes one cell survives before wearing out (10⁸, mid-range for
/// PCM). It only interprets the wear tally and never changes simulated
/// behavior.
pub const CELL_ENDURANCE: u64 = 100_000_000;

/// A deterministic wear/endurance summary of one run.
///
/// PCM cells endure a bounded number of SET/RESET cycles (~10⁷–10⁹);
/// a controller's write *placement* therefore matters as much as its
/// write *count*. The report covers every line-write *request* at line
/// granularity across all regions (data, counter, MAC, tree, packed
/// metadata) — including requests the write queues later coalesce — so
/// counter-write-heavy integrity policies expose their lifetime cost,
/// not just their bandwidth cost.
///
/// Every request journals exactly one record, so
/// `ShardedController::wear_report` builds the per-line counts by
/// tallying journal targets: per compaction batch as batches fold, plus
/// the live journals at the end of the run. Every field is a pure
/// function of those counts, so the report is byte-identical across
/// thread and shard counts whenever the write stream is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WearReport {
    /// Distinct lines written, across every region.
    pub distinct_lines: u64,
    /// Total array writes.
    pub total_writes: u64,
    /// Writes absorbed by the hottest line.
    pub max_line_writes: u64,
    /// Mean writes per written line, in thousandths (milli-writes), so
    /// the artifact stays integer-exact across platforms.
    pub mean_line_writes_milli: u64,
    /// Hottest-line histogram: `histogram[i]` counts lines whose write
    /// count falls in `[2^i, 2^(i+1))`. Trimmed to the last non-empty
    /// bucket.
    pub histogram: Vec<u64>,
    /// Lifetime estimate: how many times this workload could repeat
    /// before the hottest line exceeds [`CELL_ENDURANCE`] writes (without
    /// wear leveling). `CELL_ENDURANCE` itself when nothing was written.
    pub lifetime_runs: u64,
}

impl WearReport {
    /// Builds a report from raw per-line write counts.
    pub fn from_counts(counts: impl Iterator<Item = u64>) -> Self {
        let mut distinct = 0u64;
        let mut total = 0u64;
        let mut max = 0u64;
        let mut histogram: Vec<u64> = Vec::new();
        for c in counts {
            if c == 0 {
                continue;
            }
            distinct += 1;
            total += c;
            max = max.max(c);
            let bucket = 63 - c.leading_zeros() as usize; // floor(log2(c))
            if histogram.len() <= bucket {
                histogram.resize(bucket + 1, 0);
            }
            histogram[bucket] += 1;
        }
        let mean_milli = total
            .saturating_mul(1000)
            .checked_div(distinct)
            .unwrap_or(0);
        Self {
            distinct_lines: distinct,
            total_writes: total,
            max_line_writes: max,
            mean_line_writes_milli: mean_milli,
            histogram,
            lifetime_runs: CELL_ENDURANCE / max.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::config::Design;

    fn device() -> PcmDevice {
        PcmDevice::new(&SimConfig::single_core(Design::Sca))
    }

    fn data(l: u64) -> NvmmTarget {
        NvmmTarget::Data(LineAddr(l))
    }

    #[test]
    fn read_latency_matches_timing() {
        let mut d = device();
        let a = d.schedule(data(0), AccessKind::Read, Time::ZERO);
        assert_eq!(a.start, Time::ZERO);
        // 48 + 15 + 7.5 ns
        assert_eq!(a.done, Time::from_ns_f64(70.5));
    }

    #[test]
    fn write_latency_matches_timing() {
        let mut d = device();
        let a = d.schedule(data(0), AccessKind::Write, Time::ZERO);
        assert_eq!(a.done, Time::from_ns(313));
    }

    /// Finds a line sharing `data(0)`'s bank under hashed interleaving.
    fn same_bank_as_zero(banks: usize) -> u64 {
        let b0 = data(0).bank(banks);
        (1..)
            .find(|&i| data(i).bank(banks) == b0)
            .expect("some line collides")
    }

    #[test]
    fn same_bank_reads_serialize() {
        let mut d = device();
        let other = same_bank_as_zero(d.bank_count());
        let a = d.schedule(data(0), AccessKind::Read, Time::ZERO);
        let b = d.schedule(data(other), AccessKind::Read, Time::ZERO);
        assert!(b.start >= a.done);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = device();
        let a = d.schedule(data(1), AccessKind::Write, Time::ZERO);
        let b = d.schedule(data(2), AccessKind::Write, Time::ZERO);
        // Bank-parallel: only the bus burst separates the starts.
        assert!(b.start < a.done);
    }

    #[test]
    fn bus_serializes_bursts_within_direction() {
        let mut d = device();
        let a = d.schedule(data(1), AccessKind::Read, Time::ZERO);
        let b = d.schedule(data(2), AccessKind::Read, Time::ZERO);
        assert_eq!(b.start, a.start + Time::from_ns_f64(7.5));
    }

    #[test]
    fn reads_bypass_the_write_backlog() {
        // Read priority: a deep write backlog must not delay a read.
        let mut d = device();
        for i in 0..100 {
            d.schedule(data(i), AccessKind::Write, Time::ZERO);
        }
        let r = d.schedule(data(0), AccessKind::Read, Time::ZERO);
        assert_eq!(r.start, Time::ZERO, "demand reads are prioritized");
    }

    #[test]
    fn earliest_respected() {
        let mut d = device();
        let a = d.schedule(data(0), AccessKind::Read, Time::from_ns(500));
        assert_eq!(a.start, Time::from_ns(500));
    }

    #[test]
    fn write_horizon_tracks_backlog() {
        let mut d = device();
        let other = same_bank_as_zero(d.bank_count());
        d.schedule(data(0), AccessKind::Write, Time::ZERO);
        d.schedule(data(other), AccessKind::Write, Time::ZERO);
        assert_eq!(d.write_horizon(), Time::from_ns(626));
    }

    #[test]
    fn writes_saturate_bank_bandwidth() {
        // 16 same-bank writes serialize: horizon = 16 * 313 ns.
        let mut d = device();
        for _ in 0..16 {
            d.schedule(data(0), AccessKind::Write, Time::ZERO);
        }
        assert_eq!(d.write_horizon(), Time::from_ns(16 * 313));
    }

    #[test]
    fn wear_report_summarizes_counts() {
        // Five writes to one line, one to another.
        let r = WearReport::from_counts([5, 1].into_iter());
        assert_eq!(r.distinct_lines, 2);
        assert_eq!(r.total_writes, 6);
        assert_eq!(r.max_line_writes, 5);
        assert_eq!(r.mean_line_writes_milli, 3000);
        // 1 line in [1,2), 1 line in [4,8).
        assert_eq!(r.histogram, vec![1, 0, 1]);
        assert_eq!(r.lifetime_runs, CELL_ENDURANCE / 5);
    }

    #[test]
    fn wear_report_of_no_writes_is_inert() {
        let r = WearReport::from_counts(std::iter::empty());
        assert_eq!(r.distinct_lines, 0);
        assert_eq!(r.max_line_writes, 0);
        assert_eq!(r.mean_line_writes_milli, 0);
        assert!(r.histogram.is_empty());
        assert_eq!(r.lifetime_runs, CELL_ENDURANCE);
    }
}
