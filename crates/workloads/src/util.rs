//! Shared plumbing for the workload implementations.

use crate::spec::WorkloadSpec;
use nvmm_core::pmem::{Pmem, RegionPlanner};
use nvmm_core::txn::{Mechanism, Txn};
use nvmm_core::undo::UndoLog;
use nvmm_sim::addr::{ByteAddr, LINE_BYTES};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A structural-consistency violation found in a recovered memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyError(pub String);

impl std::fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "consistency violation: {}", self.0)
    }
}

impl std::error::Error for ConsistencyError {}

/// Fails with a formatted [`ConsistencyError`] when `cond` is false.
macro_rules! ensure {
    ($cond:expr, $($arg:tt)+) => {
        if !($cond) {
            return Err($crate::util::ConsistencyError(format!($($arg)+)));
        }
    };
}
pub(crate) use ensure;

/// Common per-core scaffolding shared by every workload: the persistent
/// context, undo log, the durable operation counter, and a
/// fresh-per-transaction payload arena.
///
/// Each transaction writes its payload blob into a *fresh* arena slot —
/// new data needs no undo backup (an aborted transaction simply orphans
/// the slot), exactly like a freshly allocated object in a persistent
/// heap. Only the operation counter is logged.
pub(crate) struct Scaffold {
    pub pm: Pmem,
    pub plan: RegionPlanner,
    pub log: UndoLog,
    /// Durable operation counter (its own cache line, undo-logged).
    pub ops_cell: ByteAddr,
    payload_arena: ByteAddr,
    pub payload_bytes: usize,
    pub rng: StdRng,
    skew: f64,
    mechanism: Mechanism,
    /// Trace length at each [`Scaffold::begin_tx`]: where every
    /// operation starts, in op order.
    pub op_starts: Vec<usize>,
}

impl Scaffold {
    /// Builds the scaffold for `core`. `max_log_entries` /
    /// `max_entry_bytes` size the undo log for the workload's worst-case
    /// transaction. The arena is sized from `spec.ops` so the layout is
    /// identical regardless of how many operations actually execute: a
    /// `k`-op execution's trace is a prefix of any longer one, which the
    /// recovery oracle's ground truth relies on.
    pub fn new(
        spec: &WorkloadSpec,
        core: usize,
        max_log_entries: u64,
        max_entry_bytes: u64,
    ) -> Self {
        let mut pm = Pmem::for_core(core);
        let mut plan = RegionPlanner::new(pm.region());
        // +1 entry for the ops counter; redo logging stages one entry
        // per dirty line, so reserve room for the payload blob and a few
        // structure lines beyond the undo-region count.
        let entries = max_log_entries + spec.payload_lines.max(1) as u64 + 8;
        let log_bytes = UndoLog::layout_bytes(entries, max_entry_bytes.max(LINE_BYTES));
        let log = UndoLog::new(
            plan.alloc_lines(log_bytes.div_ceil(LINE_BYTES)),
            entries,
            max_entry_bytes.max(LINE_BYTES),
        );
        let ops_cell = plan.alloc_lines(1);
        let payload_lines = spec.payload_lines.max(1) as u64;
        let payload_bytes = (payload_lines * LINE_BYTES) as usize;
        let payload_arena = plan.alloc_lines(payload_lines * spec.ops.max(1) as u64);
        log.format(&mut pm);
        let rng = StdRng::seed_from_u64(spec.seed ^ (core as u64).wrapping_mul(0x9e37_79b9));
        Self {
            pm,
            plan,
            log,
            ops_cell,
            payload_arena,
            payload_bytes,
            rng,
            skew: spec.probe_skew,
            mechanism: spec.mechanism,
            op_starts: Vec::new(),
        }
    }

    /// The fresh payload slot for transaction `op`.
    pub fn payload_slot(&self, op: u64) -> ByteAddr {
        ByteAddr(self.payload_arena.0 + op * self.payload_bytes as u64)
    }

    /// Opens transaction `op` under the spec's mechanism, pre-declaring
    /// the ops counter mutation. Every workload starts each operation
    /// here, so this is where the op boundaries are recorded.
    pub fn begin_tx(&mut self, op: u64) -> Txn<'_> {
        self.op_starts.push(self.pm.trace().len());
        let mut tx = Txn::begin(&mut self.pm, &self.log, op, self.mechanism);
        tx.log_region(self.ops_cell, 8);
        tx
    }

    /// Standard transaction epilogue: writes the payload blob (a
    /// deterministic pattern) into the fresh slot and bumps the durable
    /// op counter, then the caller commits.
    pub fn finish_tx(
        tx: &mut Txn<'_>,
        ops_cell: ByteAddr,
        payload: ByteAddr,
        bytes: usize,
        op: u64,
    ) {
        let blob: Vec<u8> = (0..bytes)
            .map(|i| (op as u8).wrapping_add(i as u8))
            .collect();
        tx.write(payload, &blob);
        tx.write_u64(ops_cell, op + 1);
    }

    /// Issues `probes` random line reads over `[base, base + bytes)` —
    /// the non-transactional lookups/scans that accompany each operation,
    /// and the demand traffic the counter cache serves (Fig. 15).
    ///
    /// The spec's `probe_skew` exponent shapes the distribution: 1.0 is
    /// uniform; larger exponents concentrate probes toward low addresses
    /// (a structure's hot upper levels), giving the re-reference
    /// locality real traversals exhibit. Exactly one
    /// `gen_range(0..lines)` draw is consumed per probe regardless of
    /// skew, so checkers can skip the stream precisely.
    pub fn probe_reads(&mut self, base: ByteAddr, bytes: u64, probes: usize) {
        use rand::Rng;
        let lines = (bytes / LINE_BYTES).max(1);
        let skew = self.skew;
        for _ in 0..probes {
            let raw = self.rng.gen_range(0..lines);
            let line = if skew == 1.0 {
                raw
            } else {
                let frac = (raw as f64 + 0.5) / lines as f64;
                ((frac.powf(skew) * lines as f64) as u64).min(lines - 1)
            };
            let mut buf = [0u8; 8];
            self.pm.read(ByteAddr(base.0 + line * LINE_BYTES), &mut buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{WorkloadKind, WorkloadSpec};

    #[test]
    fn scaffold_allocations_are_disjoint() {
        let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap);
        let s = Scaffold::new(&spec, 0, 4, 64);
        // ops cell after the log; arena slots after the ops cell, and
        // per-op slots never overlap.
        assert!(s.ops_cell.0 >= s.log.end().0);
        assert!(s.payload_slot(0).0 > s.ops_cell.0);
        assert_eq!(
            s.payload_slot(1).0 - s.payload_slot(0).0,
            s.payload_bytes as u64,
            "arena slots are payload-sized and disjoint"
        );
    }

    #[test]
    fn scaffold_rng_deterministic_per_core() {
        use rand::Rng;
        let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap);
        let mut a = Scaffold::new(&spec, 1, 4, 64);
        let mut b = Scaffold::new(&spec, 1, 4, 64);
        let mut c = Scaffold::new(&spec, 2, 4, 64);
        let (x, y, z): (u64, u64, u64) = (a.rng.gen(), b.rng.gen(), c.rng.gen());
        assert_eq!(x, y, "same core, same stream");
        assert_ne!(x, z, "different cores, different streams");
    }

    #[test]
    fn tx_scaffold_commits_and_bumps_counter() {
        let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap);
        let mut s = Scaffold::new(&spec, 0, 4, 64);
        let (ops_cell, payload, bytes) = (s.ops_cell, s.payload_slot(0), s.payload_bytes);
        let mut tx = s.begin_tx(0);
        Scaffold::finish_tx(&mut tx, ops_cell, payload, bytes, 0);
        tx.commit();
        assert_eq!(s.pm.read_u64(ops_cell), 1);
    }
}
