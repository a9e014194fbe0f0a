//! Simulation statistics.
//!
//! Everything the paper's figures report is derived from these counters:
//! runtime and throughput (Figs. 12, 13, 16, 17), NVMM write traffic
//! (Fig. 14), and counter-cache miss rates (Fig. 15).

use crate::time::Time;
use nvmm_json::{Json, ToJson};

/// Counters accumulated over one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Simulated end time (max over cores).
    pub runtime: Time,
    /// Per-core end times.
    pub core_runtimes: Vec<Time>,
    /// Demand reads that reached the memory controller (LLC misses).
    pub nvmm_reads: u64,
    /// Data-line writes drained (or guaranteed) to NVMM.
    pub nvmm_data_writes: u64,
    /// Counter-line writes drained (or guaranteed) to NVMM.
    pub nvmm_counter_writes: u64,
    /// Counter-line reads from NVMM (counter cache miss fills and
    /// write-miss background fetches).
    pub nvmm_counter_reads: u64,
    /// Total bytes written to the NVMM device, including the 8-byte
    /// counter widening in co-located designs.
    pub bytes_written: u64,
    /// Counter cache hits (read + write path probes).
    pub counter_cache_hits: u64,
    /// Counter cache misses.
    pub counter_cache_misses: u64,
    /// L1 hits / misses (demand accesses).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Cumulative core time spent waiting in `persist_barrier`.
    pub barrier_stall: Time,
    /// Never charged: always zero. No core waits for write-queue space.
    /// A full queue delays the write's ADR guarantee instead, and that
    /// delay shows up in `barrier_stall`.
    pub queue_full_stall: Time,
    /// Writes that were annotated (and enforced as) counter-atomic.
    pub counter_atomic_writes: u64,
    /// Writes that were not counter-atomic.
    pub plain_writes: u64,
    /// Counter-atomic pairs whose submission waited on the serialized
    /// pairing coordinator (the ready-bit handshake of Fig. 7a).
    pub pairing_stalls: u64,
    /// Cumulative time counter-atomic pairs spent queued on the pairing
    /// coordinator before their handshake began.
    pub pairing_stall: Time,
    /// Write-queue entries merged into an existing same-line entry.
    pub coalesced_data_writes: u64,
    /// Counter write-queue entries merged into an existing same-line
    /// entry.
    pub coalesced_counter_writes: u64,
    /// Transactions committed (workload-level; populated by the runtime).
    pub transactions_committed: u64,
    /// `counter_cache_writeback` operations executed.
    pub counter_cache_writebacks: u64,
    /// Distinct NVMM targets (data or counter lines) ever written —
    /// wear-leveling footprint (§6.3.3).
    pub distinct_lines_written: u64,
    /// Maximum writes absorbed by any single NVMM target — the wear
    /// hot spot a leveling scheme must spread.
    pub max_line_writes: u64,
    /// Dirty counter-cache victims written back on eviction (as opposed
    /// to explicit `counter_cache_writeback` flushes).
    pub counter_cache_evictions: u64,
    /// Integrity-metadata cache hits (MAC lines + tree nodes).
    pub tree_cache_hits: u64,
    /// Integrity-metadata cache misses.
    pub tree_cache_misses: u64,
    /// Dirty integrity-metadata victims persisted on eviction.
    pub tree_cache_evictions: u64,
    /// MAC-line and tree-node writes drained (or guaranteed) to NVMM.
    pub nvmm_metadata_writes: u64,
    /// Metadata write-queue entries merged into an existing same-line
    /// entry.
    pub coalesced_metadata_writes: u64,
    /// Strict-policy writes that waited on the serialized root-update
    /// engine.
    pub root_update_stalls: u64,
    /// Cumulative time strict-policy writes waited for the root-update
    /// engine.
    pub root_update_stall: Time,
    /// Pipelined-policy root updates that overlapped an earlier root
    /// update still in flight (where strict would have stalled).
    pub root_update_overlaps: u64,
    /// Packed counter+MAC metadata lines written to NVMM (colocated
    /// policy).
    pub nvmm_packed_meta_writes: u64,
    /// Packed-metadata write-queue entries merged into an existing
    /// same-line entry.
    pub coalesced_packed_meta_writes: u64,
    /// Phoenix epoch summaries persisted inside counter-atomic pairs.
    pub phoenix_epoch_writes: u64,
    /// Line-write *requests* — one per architectural NVMM write across
    /// every region, counting writes the queues later coalesce (always
    /// equals [`Stats::nvmm_writes`] plus [`Stats::coalesced_writes`]).
    /// Counting requests rather than drains keeps wear a conserved
    /// quantity — identical across shard and thread counts — and makes
    /// the lifetime estimate conservative: a cell's endurance budget
    /// should not depend on queue-drain timing. Kept as a live counter
    /// so telemetry can expose a per-epoch wear series, and as the
    /// independent total the wear report's journal tally
    /// ([`crate::device::WearReport::total_writes`]) must equal.
    pub wear_line_writes: u64,
}

/// Every `u64` counter of [`Stats`], in the order the `ToJson` impl
/// writes them after the `Time`/`Vec` fields it handles explicitly.
/// The `to_json_writes_every_field_under_its_own_key` test fails when a
/// field is added to [`Stats`] but not written.
macro_rules! stats_u64_fields {
    ($m:ident) => {
        $m!(
            nvmm_reads,
            nvmm_data_writes,
            nvmm_counter_writes,
            nvmm_counter_reads,
            bytes_written,
            counter_cache_hits,
            counter_cache_misses,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            counter_atomic_writes,
            plain_writes,
            pairing_stalls,
            coalesced_data_writes,
            coalesced_counter_writes,
            transactions_committed,
            counter_cache_writebacks,
            distinct_lines_written,
            max_line_writes,
            counter_cache_evictions,
            tree_cache_hits,
            tree_cache_misses,
            tree_cache_evictions,
            nvmm_metadata_writes,
            coalesced_metadata_writes,
            root_update_stalls,
            root_update_overlaps,
            nvmm_packed_meta_writes,
            coalesced_packed_meta_writes,
            phoenix_epoch_writes,
            wear_line_writes
        );
    };
}

impl Stats {
    /// Creates a zeroed statistics block for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Self {
            core_runtimes: vec![Time::ZERO; cores],
            ..Self::default()
        }
    }

    /// Counter cache miss rate over all probes, or 0.0 if never probed.
    pub fn counter_cache_miss_rate(&self) -> f64 {
        let total = self.counter_cache_hits + self.counter_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.counter_cache_misses as f64 / total as f64
        }
    }

    /// Total NVMM write accesses (data + counter + integrity metadata,
    /// split or packed).
    pub fn nvmm_writes(&self) -> u64 {
        self.nvmm_data_writes
            + self.nvmm_counter_writes
            + self.nvmm_metadata_writes
            + self.nvmm_packed_meta_writes
    }

    /// Write-queue entries that merged into an existing same-line
    /// entry instead of costing a fresh drain, across every region.
    /// `nvmm_writes() + coalesced_writes()` is the conserved
    /// request-level write count wear is measured in.
    pub fn coalesced_writes(&self) -> u64 {
        self.coalesced_data_writes
            + self.coalesced_counter_writes
            + self.coalesced_metadata_writes
            + self.coalesced_packed_meta_writes
    }

    /// Metadata write amplification: counter + MAC/tree + packed
    /// metadata writes per data write (0.0 for a run with no data
    /// writes). A packed counter+MAC line counts once — that is the
    /// colocated policy's halving.
    pub fn metadata_write_amplification(&self) -> f64 {
        if self.nvmm_data_writes == 0 {
            0.0
        } else {
            (self.nvmm_counter_writes + self.nvmm_metadata_writes + self.nvmm_packed_meta_writes)
                as f64
                / self.nvmm_data_writes as f64
        }
    }

    /// Mean array writes per distinct written line in thousandths
    /// (milli-writes), or 0 for a run with no writes — the flip side of
    /// `max_line_writes` for wear-leveling headroom.
    pub fn mean_line_writes_milli(&self) -> u64 {
        self.wear_line_writes
            .saturating_mul(1000)
            .checked_div(self.distinct_lines_written)
            .unwrap_or(0)
    }

    /// Transactions per simulated second; 0.0 for a zero-length run.
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.runtime.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.transactions_committed as f64 / secs
        }
    }
}

/// A log-linear latency histogram for open-loop tail-latency reporting.
///
/// Values (nanoseconds) below 32 get exact buckets; above that, each
/// power-of-two range is split into 32 sub-buckets, bounding relative
/// quantile error at ~3% while keeping the structure fixed-size and
/// deterministic. `fig_service` derives p50/p95/p99/p999 from it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHist {
    /// Sparse `(bucket index, count)` pairs, index-ordered.
    buckets: Vec<(u32, u64)>,
    /// Total recorded samples.
    count: u64,
    /// Largest recorded value (exact, for the p100 endpoint).
    max: u64,
}

impl LatencyHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: u64) -> u32 {
        if v < 32 {
            v as u32
        } else {
            let msb = 63 - v.leading_zeros(); // >= 5
            (msb - 4) * 32 + ((v >> (msb - 5)) & 31) as u32
        }
    }

    /// Representative (lower-bound) value of a bucket, inverse of
    /// [`LatencyHist::bucket_of`].
    fn bucket_floor(b: u32) -> u64 {
        if b < 32 {
            b as u64
        } else {
            let msb = b / 32 + 4;
            let sub = (b % 32) as u64;
            (1u64 << msb) | (sub << (msb - 5))
        }
    }

    /// Records one latency sample (nanoseconds).
    pub fn record(&mut self, v: u64) {
        let b = Self::bucket_of(v);
        match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (b, 1)),
        }
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The latency (ns) at quantile `q` in `[0, 1]`: the smallest
    /// bucket floor such that at least `ceil(q * count)` samples fall
    /// at or below it. Returns 0 for an empty histogram; `q >= 1`
    /// returns the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(b, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Self::bucket_floor(b);
            }
        }
        self.max
    }

    /// Merges another histogram into this one (for multi-core runs).
    pub fn merge(&mut self, other: &LatencyHist) {
        for &(b, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (b, n)),
            }
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

impl ToJson for Stats {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("runtime".to_string(), self.runtime.to_json()),
            ("core_runtimes".to_string(), self.core_runtimes.to_json()),
            ("barrier_stall".to_string(), self.barrier_stall.to_json()),
            (
                "queue_full_stall".to_string(),
                self.queue_full_stall.to_json(),
            ),
            ("pairing_stall".to_string(), self.pairing_stall.to_json()),
            (
                "root_update_stall".to_string(),
                self.root_update_stall.to_json(),
            ),
        ];
        macro_rules! push_u64 {
            ($($name:ident),*) => {
                $( members.push((stringify!($name).to_string(), self.$name.to_json())); )*
            };
        }
        stats_u64_fields!(push_u64);
        Json::Obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_handles_zero() {
        assert_eq!(Stats::default().counter_cache_miss_rate(), 0.0);
    }

    #[test]
    fn miss_rate_basic() {
        let s = Stats {
            counter_cache_hits: 3,
            counter_cache_misses: 1,
            ..Stats::default()
        };
        assert!((s.counter_cache_miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn throughput() {
        let s = Stats {
            runtime: Time::from_ns(1_000_000), // 1 ms
            transactions_committed: 500,
            ..Stats::default()
        };
        assert!((s.throughput_tps() - 500_000.0).abs() / 500_000.0 < 1e-9);
        assert_eq!(Stats::default().throughput_tps(), 0.0);
    }

    #[test]
    fn mean_line_writes_handles_zero_and_rounds_down() {
        assert_eq!(Stats::default().mean_line_writes_milli(), 0);
        let s = Stats {
            wear_line_writes: 7,
            distinct_lines_written: 2,
            ..Stats::default()
        };
        assert_eq!(s.mean_line_writes_milli(), 3500);
    }

    #[test]
    fn new_sizes_core_vector() {
        assert_eq!(Stats::new(4).core_runtimes.len(), 4);
    }

    #[test]
    fn latency_hist_buckets_are_monotone_and_invertible() {
        let mut last = 0;
        for v in (0..4096u64).chain((1 << 20)..(1 << 20) + 64) {
            let b = LatencyHist::bucket_of(v);
            assert!(b >= last, "bucket index must be monotone in value");
            last = b;
            let floor = LatencyHist::bucket_floor(b);
            assert!(floor <= v, "floor must lower-bound the bucket");
            // Relative error bound for the log-linear layout.
            assert!(
                v - floor <= (v / 32).max(1),
                "floor of {v} too coarse: {floor}"
            );
        }
    }

    #[test]
    fn latency_hist_quantiles() {
        let mut h = LatencyHist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        let p50 = h.quantile(0.50);
        assert!((470..=500).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((960..=990).contains(&p99), "p99 = {p99}");
        assert_eq!(LatencyHist::new().quantile(0.5), 0);
    }

    #[test]
    fn latency_hist_merge_matches_combined_recording() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut both = LatencyHist::new();
        for v in 0..500u64 {
            let x = v * 37 % 8192;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn to_json_writes_every_field_under_its_own_key() {
        // One list names each field once: it builds an exhaustive
        // literal (a new field does not compile until it is listed) and
        // the value expected under that field's key. Distinct values
        // catch a field written under another's key.
        macro_rules! literal_and_expected {
            ($($name:ident: $value:expr),* $(,)?) => {{
                let s = Stats { $($name: $value),* };
                let expected: Vec<(String, Json)> =
                    vec![$((stringify!($name).to_string(), s.$name.to_json())),*];
                (s, expected)
            }};
        }
        let (s, mut expected) = literal_and_expected!(
            runtime: Time(1),
            core_runtimes: vec![Time(2), Time(3)],
            nvmm_reads: 4,
            nvmm_data_writes: 5,
            nvmm_counter_writes: 6,
            nvmm_counter_reads: 7,
            bytes_written: 8,
            counter_cache_hits: 9,
            counter_cache_misses: 10,
            l1_hits: 11,
            l1_misses: 12,
            l2_hits: 13,
            l2_misses: 14,
            barrier_stall: Time(15),
            queue_full_stall: Time(16),
            counter_atomic_writes: 17,
            plain_writes: 18,
            pairing_stalls: 19,
            pairing_stall: Time(20),
            coalesced_data_writes: 21,
            coalesced_counter_writes: 22,
            transactions_committed: 23,
            counter_cache_writebacks: 24,
            distinct_lines_written: 25,
            max_line_writes: 26,
            counter_cache_evictions: 27,
            tree_cache_hits: 28,
            tree_cache_misses: 29,
            tree_cache_evictions: 30,
            nvmm_metadata_writes: 31,
            coalesced_metadata_writes: 32,
            root_update_stalls: 33,
            root_update_stall: Time(34),
            root_update_overlaps: 35,
            nvmm_packed_meta_writes: 36,
            coalesced_packed_meta_writes: 37,
            phoenix_epoch_writes: 38,
            wear_line_writes: 39,
        );
        let Json::Obj(mut written) = s.to_json() else {
            panic!("Stats must be written as an object");
        };
        written.sort_by(|a, b| a.0.cmp(&b.0));
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(written, expected);
    }
}
