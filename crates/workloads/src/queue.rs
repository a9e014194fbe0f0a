//! Queue: randomly en/dequeues items to/from a persistent queue (§6.2).
//!
//! A ring buffer of one-line slots with a metadata line holding the
//! (monotonic) head and tail cursors. Enqueue writes the item line and
//! bumps the tail; dequeue bumps the head. Both are single undo-logged
//! transactions.

use crate::spec::WorkloadSpec;
use crate::util::{ensure, ConsistencyError, Scaffold};
use nvmm_core::pmem::Pmem;
use nvmm_core::recovery::RecoveredMemory;
use nvmm_core::undo::UndoLog;
use nvmm_sim::addr::{ByteAddr, LINE_BYTES};
use rand::Rng;

/// Addresses of the queue structure.
#[derive(Debug, Clone, Copy)]
pub struct QueueLayout {
    /// Metadata line: head (u64) at +0, tail (u64) at +8.
    pub meta: ByteAddr,
    /// First ring slot (one line per item).
    pub ring: ByteAddr,
    /// Ring capacity in slots.
    pub capacity: u64,
}

impl QueueLayout {
    /// Head cursor address.
    pub fn head_addr(&self) -> ByteAddr {
        self.meta
    }

    /// Tail cursor address.
    pub fn tail_addr(&self) -> ByteAddr {
        ByteAddr(self.meta.0 + 8)
    }

    /// Address of ring slot for monotonic index `i`.
    pub fn slot(&self, i: u64) -> ByteAddr {
        ByteAddr(self.ring.0 + (i % self.capacity) * LINE_BYTES)
    }
}

/// Executes `ops` random en/dequeue transactions for `core`.
///
/// Returns the persistent context, the undo log, the op-counter cell, the
/// layout, and the trace length at the start of each operation (where
/// setup ends and every op begins).
pub fn execute(
    spec: &WorkloadSpec,
    core: usize,
    ops: usize,
) -> (Pmem, UndoLog, ByteAddr, QueueLayout, Vec<usize>) {
    let mut s = Scaffold::new(spec, core, 2, LINE_BYTES);
    let capacity = (spec.footprint_bytes / LINE_BYTES).max(8);
    let meta = s.plan.alloc_lines(1);
    let ring = s.plan.alloc_lines(capacity);
    let layout = QueueLayout {
        meta,
        ring,
        capacity,
    };

    // Everything up to here is setup, persisted before the measured ops.
    for op in 0..ops as u64 {
        let (ops_cell, payload, bytes) = (s.ops_cell, s.payload_slot(op), s.payload_bytes);
        let want_dequeue: bool = s.rng.gen_bool(0.4);
        let mut tx = s.begin_tx(op);
        let head = tx.read_u64(layout.head_addr());
        let tail = tx.read_u64(layout.tail_addr());
        let size = tail - head;
        tx.log_region(layout.meta, 16);
        if (want_dequeue && size > 0) || size == layout.capacity {
            // Dequeue: read the item, advance head.
            let _item = tx.read_u64(layout.slot(head));
            tx.write_u64(layout.head_addr(), head + 1);
        } else {
            // Enqueue: the slot being filled is not part of the
            // consistent state until tail moves, but the slot may hold a
            // previously dequeued (stale) item that an aborted tx must
            // restore — log it.
            tx.log_region(layout.slot(tail), LINE_BYTES as usize);
            tx.write_u64(layout.slot(tail), op + 1);
            tx.write_u64(layout.tail_addr(), tail + 1);
        }
        Scaffold::finish_tx(&mut tx, ops_cell, payload, bytes, op);
        tx.commit();
        s.pm.compute(3500);
        s.probe_reads(layout.ring, layout.capacity * LINE_BYTES, spec.read_probes);
    }
    (s.pm, s.log, s.ops_cell, layout, s.op_starts)
}

/// Structural check: cursors sane, occupancy within capacity, and every
/// occupied slot holds a plausible (non-zero, in-range) item id.
pub fn check(
    layout: &QueueLayout,
    spec: &WorkloadSpec,
    _core: usize,
    committed: u64,
    mem: &mut RecoveredMemory,
) -> Result<(), ConsistencyError> {
    let head = mem.read_u64(layout.head_addr());
    let tail = mem.read_u64(layout.tail_addr());
    ensure!(head <= tail, "queue head {head} ahead of tail {tail}");
    ensure!(
        tail - head <= layout.capacity,
        "queue over capacity: {} > {}",
        tail - head,
        layout.capacity
    );
    ensure!(
        tail <= committed,
        "tail {tail} exceeds committed op count {committed}"
    );
    let _ = spec;
    for i in head..tail {
        let item = mem.read_u64(layout.slot(i));
        ensure!(item != 0, "occupied slot {i} is empty");
        ensure!(
            item <= committed,
            "slot {i} holds id {item} from the future (committed {committed})"
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{WorkloadKind, WorkloadSpec};

    #[test]
    fn fifo_order_preserved_functionally() {
        let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(40);
        let (pm, _, _, layout, _) = execute(&spec, 0, spec.ops);
        let mut b = [0u8; 8];
        pm.peek(layout.head_addr(), &mut b);
        let head = u64::from_le_bytes(b);
        pm.peek(layout.tail_addr(), &mut b);
        let tail = u64::from_le_bytes(b);
        assert!(head <= tail);
        assert!(tail - head <= layout.capacity);
        // Item ids in the occupied window must be strictly increasing
        // (FIFO of monotonically increasing enqueue ids).
        let mut last = 0;
        for i in head..tail {
            pm.peek(layout.slot(i), &mut b);
            let item = u64::from_le_bytes(b);
            assert!(item > last, "slot {i}: {item} <= {last}");
            last = item;
        }
    }

    #[test]
    fn ops_counter_reaches_total() {
        let spec = WorkloadSpec::smoke(WorkloadKind::Queue);
        let (mut pm, _, ops_cell, _, _) = execute(&spec, 0, spec.ops);
        assert_eq!(pm.read_u64(ops_cell), spec.ops as u64);
    }

    #[test]
    fn small_capacity_wraps_without_overflow() {
        let spec = WorkloadSpec::smoke(WorkloadKind::Queue)
            .with_footprint(8 * 64) // 8 slots
            .with_ops(64);
        let (pm, _, _, layout, _) = execute(&spec, 0, spec.ops);
        assert_eq!(layout.capacity, 8);
        let mut b = [0u8; 8];
        pm.peek(layout.tail_addr(), &mut b);
        let tail = u64::from_le_bytes(b);
        pm.peek(layout.head_addr(), &mut b);
        let head = u64::from_le_bytes(b);
        assert!(tail - head <= 8);
    }
}
