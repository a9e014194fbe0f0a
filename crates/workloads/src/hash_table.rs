//! Hash Table: inserts random values into a persistent hash table
//! (§6.2).
//!
//! Open chaining: a bucket array of 8-byte head pointers plus a
//! bump-allocated node pool. Each node occupies one line:
//! `key (u64) | value (u64) | next (u64)`. An insert transaction logs the
//! bucket head and the pool cursor, writes the fresh node, links it in,
//! and bumps the cursor. Rolling back restores head and cursor; the
//! orphaned node line is simply dead space, exactly as in a real
//! persistent allocator.

use crate::spec::WorkloadSpec;
use crate::util::{ensure, ConsistencyError, Scaffold};
use nvmm_core::pmem::Pmem;
use nvmm_core::recovery::RecoveredMemory;
use nvmm_core::undo::UndoLog;
use nvmm_sim::addr::{ByteAddr, LINE_BYTES};
use rand::Rng;

/// Addresses of the hash-table structure.
#[derive(Debug, Clone, Copy)]
pub struct HashLayout {
    /// Bucket array base: `buckets` 8-byte head pointers.
    pub buckets_base: ByteAddr,
    /// Number of buckets.
    pub buckets: u64,
    /// Node-pool cursor cell (next free node index, u64).
    pub cursor: ByteAddr,
    /// Node pool base (one line per node).
    pub pool: ByteAddr,
    /// Pool capacity in nodes.
    pub pool_nodes: u64,
}

impl HashLayout {
    /// Address of bucket `b`'s head pointer.
    pub fn bucket(&self, b: u64) -> ByteAddr {
        ByteAddr(self.buckets_base.0 + b * 8)
    }

    /// Address of node `i` (index into the pool; 0 is reserved as null).
    pub fn node(&self, i: u64) -> ByteAddr {
        ByteAddr(self.pool.0 + i * LINE_BYTES)
    }

    /// The bucket a key hashes to.
    pub fn bucket_of(&self, key: u64) -> u64 {
        // Fibonacci hashing: cheap and well-spread.
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % self.buckets
    }
}

/// Executes `ops` insert transactions for `core`.
///
/// Returns the persistent context, the undo log, the op-counter cell, the
/// layout, and the trace length at the start of each operation (where
/// setup ends and every op begins).
pub fn execute(
    spec: &WorkloadSpec,
    core: usize,
    ops: usize,
) -> (Pmem, UndoLog, ByteAddr, HashLayout, Vec<usize>) {
    let mut s = Scaffold::new(spec, core, 3, LINE_BYTES);
    // Split the footprint: half buckets, half node pool.
    let buckets = (spec.footprint_bytes / 2 / 8).max(16);
    let pool_nodes = (spec.ops as u64 + 2).max(16);
    let buckets_base = s.plan.alloc(buckets * 8, 64);
    let cursor = s.plan.alloc_lines(1);
    let pool = s.plan.alloc_lines(pool_nodes);
    let layout = HashLayout {
        buckets_base,
        buckets,
        cursor,
        pool,
        pool_nodes,
    };

    // Node index 0 is the null sentinel: start the cursor at 1.
    s.pm.write_u64(cursor, 1);
    s.pm.clwb(cursor, 8);
    s.pm.counter_cache_writeback(cursor, 8);
    s.pm.persist_barrier();

    // Everything up to here is setup, persisted before the measured ops.
    for op in 0..ops as u64 {
        let key: u64 = s.rng.gen_range(1..u64::MAX);
        let (ops_cell, payload, bytes) = (s.ops_cell, s.payload_slot(op), s.payload_bytes);
        let b = layout.bucket_of(key);
        let mut tx = s.begin_tx(op);
        tx.log_region(layout.bucket(b), 8);
        tx.log_region(layout.cursor, 8);
        let node_idx = tx.read_u64(layout.cursor);
        let old_head = tx.read_u64(layout.bucket(b));
        // Fresh node: key | value | next = old head.
        let node = layout.node(node_idx);
        tx.write_u64(node, key);
        tx.write_u64(ByteAddr(node.0 + 8), op + 1);
        tx.write_u64(ByteAddr(node.0 + 16), old_head);
        // Link in and bump the cursor.
        tx.write_u64(layout.bucket(b), node_idx);
        tx.write_u64(layout.cursor, node_idx + 1);
        Scaffold::finish_tx(&mut tx, ops_cell, payload, bytes, op);
        tx.commit();
        s.pm.compute(3500);
        s.probe_reads(layout.buckets_base, layout.buckets * 8, spec.read_probes);
    }
    (s.pm, s.log, s.ops_cell, layout, s.op_starts)
}

/// Structural check: exactly `committed` reachable nodes, chains
/// acyclic and in-pool, and every node hashes to the bucket its chain
/// hangs off.
pub fn check(
    layout: &HashLayout,
    spec: &WorkloadSpec,
    core: usize,
    committed: u64,
    mem: &mut RecoveredMemory,
) -> Result<(), ConsistencyError> {
    // Re-derive the inserted keys so only occupied buckets are read
    // (skipping the probe draws to stay stream-aligned with execute()).
    let mut s = Scaffold::new(spec, core, 3, LINE_BYTES);
    let probe_lines = (layout.buckets * 8 / 64).max(1);
    let keys: Vec<u64> = (0..committed)
        .map(|_| {
            let k = s.rng.gen_range(1..u64::MAX);
            for _ in 0..spec.read_probes {
                let _: u64 = s.rng.gen_range(0..probe_lines);
            }
            k
        })
        .collect();
    let cursor = mem.read_u64(layout.cursor);
    ensure!(
        cursor == committed + 1,
        "pool cursor {cursor} != committed {committed} + 1"
    );

    let mut reachable = 0u64;
    let mut seen = std::collections::HashSet::new();
    let mut buckets: Vec<u64> = keys.iter().map(|&k| layout.bucket_of(k)).collect();
    buckets.sort_unstable();
    buckets.dedup();
    for b in buckets {
        let mut idx = mem.read_u64(layout.bucket(b));
        while idx != 0 {
            ensure!(idx < layout.pool_nodes, "node index {idx} out of pool");
            ensure!(
                seen.insert((b, idx)),
                "cycle through node {idx} in bucket {b}"
            );
            let node = layout.node(idx);
            let key = mem.read_u64(node);
            ensure!(
                layout.bucket_of(key) == b,
                "node {idx} key {key} in wrong bucket {b}"
            );
            let value = mem.read_u64(ByteAddr(node.0 + 8));
            ensure!(
                value >= 1 && value <= committed,
                "node {idx} value {value} out of range"
            );
            reachable += 1;
            idx = mem.read_u64(ByteAddr(node.0 + 16));
        }
    }
    ensure!(
        reachable == committed,
        "{reachable} reachable nodes, expected {committed}"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{WorkloadKind, WorkloadSpec};

    fn peek_u64(pm: &Pmem, a: ByteAddr) -> u64 {
        let mut b = [0u8; 8];
        pm.peek(a, &mut b);
        u64::from_le_bytes(b)
    }

    #[test]
    fn all_inserted_keys_are_findable() {
        let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(30);
        let (pm, _, _, layout, _) = execute(&spec, 0, spec.ops);
        // Recompute the key stream.
        let mut s = Scaffold::new(&spec, 0, 3, LINE_BYTES);
        let probe_lines = (layout.buckets * 8 / 64).max(1);
        for _ in 0..30 {
            let key: u64 = s.rng.gen_range(1..u64::MAX);
            for _ in 0..spec.read_probes {
                let _: u64 = s.rng.gen_range(0..probe_lines);
            }
            let b = layout.bucket_of(key);
            let mut idx = peek_u64(&pm, layout.bucket(b));
            let mut found = false;
            while idx != 0 {
                if peek_u64(&pm, layout.node(idx)) == key {
                    found = true;
                    break;
                }
                idx = peek_u64(&pm, ByteAddr(layout.node(idx).0 + 16));
            }
            assert!(found, "key {key} not reachable");
        }
    }

    #[test]
    fn cursor_counts_inserts() {
        let spec = WorkloadSpec::smoke(WorkloadKind::HashTable);
        let (pm, _, _, layout, _) = execute(&spec, 0, spec.ops);
        assert_eq!(peek_u64(&pm, layout.cursor), spec.ops as u64 + 1);
    }

    #[test]
    fn distinct_cores_use_distinct_keys() {
        let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(5);
        let (pm0, _, _, l0, _) = execute(&spec, 0, 5);
        let (pm1, _, _, l1, _) = execute(&spec, 1, 5);
        let k0 = peek_u64(&pm0, l0.node(1));
        let k1 = peek_u64(&pm1, l1.node(1));
        assert_ne!(k0, k1);
    }
}
