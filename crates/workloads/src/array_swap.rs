//! Array Swap: swaps random items in a persistent array (§6.2).
//!
//! The array spans the configured footprint. A hot prefix is initialized
//! with distinct non-zero values so that swaps are observable; each
//! transaction swaps one slot drawn from the whole array with one drawn
//! from the hot prefix, migrating values across the footprint and
//! exercising the counter cache with low-locality writes.

use crate::spec::WorkloadSpec;
use crate::util::{ensure, ConsistencyError, Scaffold};
use nvmm_core::pmem::Pmem;
use nvmm_core::recovery::RecoveredMemory;
use nvmm_core::undo::UndoLog;
use nvmm_sim::addr::ByteAddr;
use rand::Rng;

/// Number of initialized hot slots.
const HOT_SLOTS: u64 = 512;

/// Addresses of the array-swap structure.
#[derive(Debug, Clone, Copy)]
pub struct ArrayLayout {
    /// First slot (8-byte little-endian values, one per 8 bytes).
    pub base: ByteAddr,
    /// Total slot count.
    pub slots: u64,
}

impl ArrayLayout {
    /// Address of slot `i`.
    pub fn slot(&self, i: u64) -> ByteAddr {
        ByteAddr(self.base.0 + i * 8)
    }
}

/// Executes `ops` swap transactions for `core`.
///
/// Returns the persistent context, the undo log, the op-counter cell, the
/// layout, and the trace length at the start of each operation (where
/// setup ends and every op begins).
pub fn execute(
    spec: &WorkloadSpec,
    core: usize,
    ops: usize,
) -> (Pmem, UndoLog, ByteAddr, ArrayLayout, Vec<usize>) {
    let mut s = Scaffold::new(spec, core, 2, 8);
    let slots = (spec.footprint_bytes / 8).max(HOT_SLOTS * 2);
    let base = s.plan.alloc(slots * 8, 64);
    let layout = ArrayLayout { base, slots };

    // Initialize the hot prefix with distinct non-zero values, persisted
    // before the measured ops begin.
    for i in 0..HOT_SLOTS {
        s.pm.write_u64(layout.slot(i), i + 1);
    }
    s.pm.clwb(layout.slot(0), (HOT_SLOTS * 8) as usize);
    s.pm.counter_cache_writeback(layout.slot(0), (HOT_SLOTS * 8) as usize);
    s.pm.persist_barrier();

    // Everything up to here is setup, persisted before the measured ops.
    for op in 0..ops as u64 {
        let i = s.rng.gen_range(0..slots);
        let j = s.rng.gen_range(0..HOT_SLOTS);
        let (ops_cell, payload, bytes) = (s.ops_cell, s.payload_slot(op), s.payload_bytes);
        let mut tx = s.begin_tx(op);
        tx.log_region(layout.slot(i), 8);
        if j != i {
            tx.log_region(layout.slot(j), 8);
        }
        let vi = tx.read_u64(layout.slot(i));
        let vj = tx.read_u64(layout.slot(j));
        tx.write_u64(layout.slot(i), vj);
        tx.write_u64(layout.slot(j), vi);
        Scaffold::finish_tx(&mut tx, ops_cell, payload, bytes, op);
        tx.commit();
        s.pm.compute(3500);
        s.probe_reads(layout.base, layout.slots * 8, spec.read_probes);
    }
    (s.pm, s.log, s.ops_cell, layout, s.op_starts)
}

/// Structural check: the multiset of non-zero values across the array is
/// exactly `{1, …, HOT_SLOTS}` — swaps move values but never create or
/// destroy them.
///
/// Only the hot prefix and the slots the operation stream actually
/// touched are read (reading a multi-hundred-MB array post-crash would
/// be pointless); the harness's replay-equality check covers exact
/// placement.
pub fn check(
    layout: &ArrayLayout,
    spec: &WorkloadSpec,
    core: usize,
    committed: u64,
    mem: &mut RecoveredMemory,
) -> Result<(), ConsistencyError> {
    // Re-derive the touched far slots from the deterministic stream.
    let mut s = Scaffold::new(spec, core, 2, 8);
    let mut touched = std::collections::BTreeSet::new();
    let probe_lines = (layout.slots * 8 / 64).max(1);
    for _ in 0..committed {
        let i = s.rng.gen_range(0..layout.slots);
        let _j: u64 = s.rng.gen_range(0..HOT_SLOTS);
        touched.insert(i);
        // Keep the stream aligned with execute(): skip the probe draws.
        for _ in 0..spec.read_probes {
            let _: u64 = s.rng.gen_range(0..probe_lines);
        }
    }
    let mut nonzero = Vec::new();
    for i in (0..HOT_SLOTS).chain(touched.into_iter().filter(|&i| i >= HOT_SLOTS)) {
        let v = mem.read_u64(layout.slot(i));
        if v != 0 {
            nonzero.push(v);
        }
    }
    nonzero.sort_unstable();
    let expected: Vec<u64> = (1..=HOT_SLOTS).collect();
    ensure!(
        nonzero == expected,
        "array multiset violated: {} non-zero values, expected {}",
        nonzero.len(),
        HOT_SLOTS
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{WorkloadKind, WorkloadSpec};

    #[test]
    fn execute_produces_trace_and_commits() {
        let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap);
        let (pm, _, ops_cell, _, _) = execute(&spec, 0, spec.ops);
        let mut pm = pm;
        assert_eq!(pm.read_u64(ops_cell), spec.ops as u64);
        assert_eq!(pm.trace().tx_count(), spec.ops as u64);
    }

    #[test]
    fn swaps_preserve_multiset_functionally() {
        let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap);
        let (pm, _, _, layout, _) = execute(&spec, 0, spec.ops);
        // Collect every non-zero slot value from the functional image.
        let mut vals = Vec::new();
        for i in 0..layout.slots {
            let mut b = [0u8; 8];
            pm.peek(layout.slot(i), &mut b);
            let v = u64::from_le_bytes(b);
            if v != 0 {
                vals.push(v);
            }
        }
        vals.sort_unstable();
        assert_eq!(vals, (1..=HOT_SLOTS).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap);
        let (pm1, ..) = execute(&spec, 0, spec.ops);
        let (pm2, ..) = execute(&spec, 0, spec.ops);
        assert_eq!(pm1.trace(), pm2.trace());
    }
}
