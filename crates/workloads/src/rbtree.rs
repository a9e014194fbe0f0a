//! Red-Black Tree: inserts random values into a persistent red-black
//! tree (§6.2).
//!
//! Nodes have no parent pointers; insertion keeps an explicit ancestor
//! stack and runs the classic recolor/rotate fixup against it. Every
//! node a fixup can modify is either on the descent path, a sibling of a
//! path node (the "uncle" in recoloring), or the freshly allocated node —
//! so a read-only pre-pass over the descent path yields a sound undo-log
//! set for the transaction's prepare stage.
//!
//! Node layout (1 cache line): `key | color | left | right | value`
//! (five u64 words; color 0 = black, 1 = red; index 0 = nil, black).

use crate::spec::WorkloadSpec;
use crate::util::{ensure, ConsistencyError, Scaffold};
use nvmm_core::pmem::Pmem;
use nvmm_core::recovery::RecoveredMemory;
use nvmm_core::txn::Txn;
use nvmm_core::undo::UndoLog;
use nvmm_sim::addr::{ByteAddr, LINE_BYTES};
use rand::Rng;

const BLACK: u64 = 0;
const RED: u64 = 1;

const OFF_KEY: u64 = 0;
const OFF_COLOR: u64 = 8;
const OFF_LEFT: u64 = 16;
const OFF_RIGHT: u64 = 24;
const OFF_VALUE: u64 = 32;

/// Addresses of the red-black-tree structure.
#[derive(Debug, Clone, Copy)]
pub struct RbLayout {
    /// Metadata line: root index at +0, pool cursor at +8.
    pub meta: ByteAddr,
    /// Node pool base (one line per node; index 0 = nil).
    pub pool: ByteAddr,
    /// Pool capacity in nodes.
    pub pool_nodes: u64,
}

impl RbLayout {
    /// Root-index cell.
    pub fn root_addr(&self) -> ByteAddr {
        self.meta
    }

    /// Pool-cursor cell.
    pub fn cursor_addr(&self) -> ByteAddr {
        ByteAddr(self.meta.0 + 8)
    }

    /// Address of node `i`.
    pub fn node(&self, i: u64) -> ByteAddr {
        ByteAddr(self.pool.0 + i * LINE_BYTES)
    }

    fn field(&self, i: u64, off: u64) -> ByteAddr {
        ByteAddr(self.node(i).0 + off)
    }
}

/// Minimal memory interface shared by the transaction and the checker.
trait Mem {
    fn load(&mut self, a: ByteAddr) -> u64;
}

impl Mem for Txn<'_> {
    fn load(&mut self, a: ByteAddr) -> u64 {
        self.read_u64(a)
    }
}

impl Mem for RecoveredMemory<'_> {
    fn load(&mut self, a: ByteAddr) -> u64 {
        self.read_u64(a)
    }
}

impl Mem for Pmem {
    fn load(&mut self, a: ByteAddr) -> u64 {
        let mut b = [0u8; 8];
        self.peek(a, &mut b);
        u64::from_le_bytes(b)
    }
}

fn key<M: Mem>(m: &mut M, l: &RbLayout, i: u64) -> u64 {
    m.load(l.field(i, OFF_KEY))
}
fn color<M: Mem>(m: &mut M, l: &RbLayout, i: u64) -> u64 {
    if i == 0 {
        BLACK
    } else {
        m.load(l.field(i, OFF_COLOR))
    }
}
fn left<M: Mem>(m: &mut M, l: &RbLayout, i: u64) -> u64 {
    m.load(l.field(i, OFF_LEFT))
}
fn right<M: Mem>(m: &mut M, l: &RbLayout, i: u64) -> u64 {
    m.load(l.field(i, OFF_RIGHT))
}

fn set_color(tx: &mut Txn<'_>, l: &RbLayout, i: u64, c: u64) {
    tx.write_u64(l.field(i, OFF_COLOR), c);
}
fn set_left(tx: &mut Txn<'_>, l: &RbLayout, i: u64, v: u64) {
    tx.write_u64(l.field(i, OFF_LEFT), v);
}
fn set_right(tx: &mut Txn<'_>, l: &RbLayout, i: u64, v: u64) {
    tx.write_u64(l.field(i, OFF_RIGHT), v);
}

/// Replaces `old_child` of `parent` (or the root cell when `parent` is
/// nil) with `new_child`.
fn replace_child(tx: &mut Txn<'_>, l: &RbLayout, parent: u64, old_child: u64, new_child: u64) {
    if parent == 0 {
        tx.write_u64(l.root_addr(), new_child);
    } else if left(tx, l, parent) == old_child {
        set_left(tx, l, parent, new_child);
    } else {
        set_right(tx, l, parent, new_child);
    }
}

/// Left-rotates around `x` (whose right child `y` moves up). `parent` is
/// `x`'s parent (0 = root). Returns `y`.
fn rotate_left(tx: &mut Txn<'_>, l: &RbLayout, x: u64, parent: u64) -> u64 {
    let y = right(tx, l, x);
    let t = left(tx, l, y);
    set_right(tx, l, x, t);
    set_left(tx, l, y, x);
    replace_child(tx, l, parent, x, y);
    y
}

/// Right-rotates around `x` (whose left child `y` moves up). Returns `y`.
fn rotate_right(tx: &mut Txn<'_>, l: &RbLayout, x: u64, parent: u64) -> u64 {
    let y = left(tx, l, x);
    let t = right(tx, l, y);
    set_left(tx, l, x, t);
    set_right(tx, l, y, x);
    replace_child(tx, l, parent, x, y);
    y
}

/// Read-only pre-pass: the descent path for `key` plus both children of
/// every path node — a superset of everything the insert fixup can
/// modify.
fn plan_insert(tx: &mut Txn<'_>, l: &RbLayout, k: u64) -> Vec<u64> {
    let mut touched = Vec::new();
    let mut idx = tx.load(l.root_addr());
    while idx != 0 {
        touched.push(idx);
        let (lc, rc) = (left(tx, l, idx), right(tx, l, idx));
        for c in [lc, rc] {
            if c != 0 {
                touched.push(c);
            }
        }
        idx = if k < key(tx, l, idx) { lc } else { rc };
    }
    touched.sort_unstable();
    touched.dedup();
    touched
}

fn alloc_node(tx: &mut Txn<'_>, l: &RbLayout) -> u64 {
    let idx = tx.load(l.cursor_addr());
    assert!(idx < l.pool_nodes, "red-black node pool exhausted");
    tx.write_u64(l.cursor_addr(), idx + 1);
    idx
}

/// BST insert + red-black fixup (mutate stage).
fn do_insert(tx: &mut Txn<'_>, l: &RbLayout, k: u64, value: u64) {
    // Descend, recording the ancestor stack.
    let mut stack: Vec<u64> = Vec::new();
    let mut idx = tx.load(l.root_addr());
    while idx != 0 {
        stack.push(idx);
        idx = if k < key(tx, l, idx) {
            left(tx, l, idx)
        } else {
            right(tx, l, idx)
        };
    }
    let z = alloc_node(tx, l);
    tx.write_u64(l.field(z, OFF_KEY), k);
    tx.write_u64(l.field(z, OFF_COLOR), RED);
    tx.write_u64(l.field(z, OFF_LEFT), 0);
    tx.write_u64(l.field(z, OFF_RIGHT), 0);
    tx.write_u64(l.field(z, OFF_VALUE), value);
    match stack.last() {
        None => {
            tx.write_u64(l.root_addr(), z);
            set_color(tx, l, z, BLACK);
            return;
        }
        Some(&p) => {
            if k < key(tx, l, p) {
                set_left(tx, l, p, z);
            } else {
                set_right(tx, l, p, z);
            }
        }
    }

    // Fixup. `stack` holds the ancestors of `cur` (top = parent).
    let mut cur = z;
    loop {
        let Some(&parent) = stack.last() else {
            set_color(tx, l, cur, BLACK);
            return;
        };
        if color(tx, l, parent) == BLACK {
            return;
        }
        // Parent is red, so a grandparent exists (root is black).
        let grand = stack[stack.len() - 2];
        let great = if stack.len() >= 3 {
            stack[stack.len() - 3]
        } else {
            0
        };
        let parent_is_left = left(tx, l, grand) == parent;
        let uncle = if parent_is_left {
            right(tx, l, grand)
        } else {
            left(tx, l, grand)
        };
        if color(tx, l, uncle) == RED {
            set_color(tx, l, parent, BLACK);
            set_color(tx, l, uncle, BLACK);
            set_color(tx, l, grand, RED);
            stack.pop();
            stack.pop();
            cur = grand;
            continue;
        }
        // Rotations.
        let cur_is_left = left(tx, l, parent) == cur;
        if parent_is_left {
            let pivot = if cur_is_left {
                parent
            } else {
                rotate_left(tx, l, parent, grand);
                cur
            };
            set_color(tx, l, pivot, BLACK);
            set_color(tx, l, grand, RED);
            rotate_right(tx, l, grand, great);
        } else {
            let pivot = if cur_is_left {
                rotate_right(tx, l, parent, grand);
                cur
            } else {
                parent
            };
            set_color(tx, l, pivot, BLACK);
            set_color(tx, l, grand, RED);
            rotate_left(tx, l, grand, great);
        }
        return;
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
) -> (Pmem, UndoLog, ByteAddr, RbLayout, Vec<usize>) {
    // Path + sibling logging: ~3 nodes per level, depth ≤ 2·log2(n).
    let depth_bound = 2 * (64 - (spec.ops as u64 + 2).leading_zeros() as u64) + 4;
    let mut s = Scaffold::new(spec, core, 3 * depth_bound + 4, LINE_BYTES);
    // Pool sized by the configured footprint so probe reads span it.
    let pool_nodes = (ops as u64 + 2).max(spec.footprint_bytes / LINE_BYTES);
    let meta = s.plan.alloc_lines(1);
    let pool = s.plan.alloc_lines(pool_nodes);
    let layout = RbLayout {
        meta,
        pool,
        pool_nodes,
    };

    s.pm.write_u64(layout.cursor_addr(), 1);
    s.pm.clwb(layout.cursor_addr(), 8);
    s.pm.counter_cache_writeback(layout.cursor_addr(), 8);
    s.pm.persist_barrier();

    // Full-width random keys: collisions are negligible and keep the
    // BST-order check exact. The footprint is set by the node pool.
    let _ = spec.footprint_bytes;
    // Everything up to here is setup, persisted before the measured ops.
    for op in 0..ops as u64 {
        let k = s.rng.gen_range(1..u64::MAX);
        let (ops_cell, payload, bytes) = (s.ops_cell, s.payload_slot(op), s.payload_bytes);
        let mut tx = s.begin_tx(op);
        tx.log_region(layout.meta, 16);
        for idx in plan_insert(&mut tx, &layout, k) {
            tx.log_region(layout.node(idx), LINE_BYTES as usize);
        }
        do_insert(&mut tx, &layout, k, op + 1);
        Scaffold::finish_tx(&mut tx, ops_cell, payload, bytes, op);
        tx.commit();
        s.pm.compute(3500);
        s.probe_reads(
            layout.pool,
            layout.pool_nodes * LINE_BYTES,
            spec.read_probes,
        );
    }
    (s.pm, s.log, s.ops_cell, layout, s.op_starts)
}

fn walk<M: Mem>(
    m: &mut M,
    l: &RbLayout,
    idx: u64,
    lo: u64,
    hi: u64,
    depth: usize,
    count: &mut u64,
) -> Result<u64, ConsistencyError> {
    if idx == 0 {
        return Ok(1); // nil is black: black-height 1
    }
    ensure!(idx < l.pool_nodes, "node index {idx} out of pool");
    ensure!(depth < 128, "tree deeper than 128: cycle suspected");
    let k = key(m, l, idx);
    // Bounds are inclusive: duplicate keys route right on insert but may
    // migrate across rotations while preserving in-order adjacency.
    ensure!(
        k >= lo && k <= hi,
        "node {idx} key {k} violates BST order ({lo}..={hi})"
    );
    let c = color(m, l, idx);
    ensure!(c == RED || c == BLACK, "node {idx} has invalid color {c}");
    let (lc, rc) = (left(m, l, idx), right(m, l, idx));
    if c == RED {
        ensure!(
            color(m, l, lc) == BLACK && color(m, l, rc) == BLACK,
            "red node {idx} has a red child"
        );
    }
    *count += 1;
    let bh_l = walk(m, l, lc, lo, k, depth + 1, count)?;
    let bh_r = walk(m, l, rc, k, hi, depth + 1, count)?;
    ensure!(
        bh_l == bh_r,
        "node {idx}: black heights differ ({bh_l} vs {bh_r})"
    );
    Ok(bh_l + if c == BLACK { 1 } else { 0 })
}

/// Structural check: BST order, no red-red edges, uniform black height,
/// black root, and a node count equal to the committed insert count.
pub fn check(
    layout: &RbLayout,
    _spec: &WorkloadSpec,
    _core: usize,
    committed: u64,
    mem: &mut RecoveredMemory,
) -> Result<(), ConsistencyError> {
    let root = mem.read_u64(layout.root_addr());
    if committed == 0 {
        ensure!(root == 0, "empty tree must have null root");
        return Ok(());
    }
    ensure!(root != 0, "{committed} inserts but null root");
    ensure!(color(mem, layout, root) == BLACK, "root is red");
    let mut count = 0;
    walk(mem, layout, root, 0, u64::MAX, 0, &mut count)?;
    ensure!(
        count == committed,
        "tree holds {count} keys, expected {committed}"
    );
    let cursor = mem.read_u64(layout.cursor_addr());
    ensure!(
        cursor == committed + 1,
        "cursor {cursor} != committed {committed} + 1"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{WorkloadKind, WorkloadSpec};

    fn functional_walk(pm: &mut Pmem, layout: &RbLayout) -> u64 {
        let root = pm.load(layout.root_addr());
        assert_eq!(color(pm, layout, root), BLACK, "root must be black");
        let mut count = 0;
        walk(pm, layout, root, 0, u64::MAX, 0, &mut count).expect("valid RB tree");
        count
    }

    #[test]
    fn inserts_build_valid_rb_tree() {
        let spec = WorkloadSpec::smoke(WorkloadKind::RbTree).with_ops(300);
        let (mut pm, _, ops_cell, layout, _) = execute(&spec, 0, spec.ops);
        assert_eq!(pm.read_u64(ops_cell), 300);
        assert_eq!(functional_walk(&mut pm, &layout), 300);
    }

    #[test]
    fn sequential_keys_stay_balanced() {
        // Deterministic adversarial pattern: the rng may not produce it,
        // so drive do_insert directly through transactions.
        let spec = WorkloadSpec::smoke(WorkloadKind::RbTree).with_ops(1);
        let mut s = Scaffold::new(&spec, 0, 64, LINE_BYTES);
        let meta = s.plan.alloc_lines(1);
        let pool = s.plan.alloc_lines(128);
        let layout = RbLayout {
            meta,
            pool,
            pool_nodes: 128,
        };
        s.pm.write_u64(layout.cursor_addr(), 1);
        for op in 0..100u64 {
            let mut tx = Txn::begin(&mut s.pm, &s.log, op, nvmm_core::txn::Mechanism::UndoLog);
            tx.log_region(layout.meta, 16);
            for idx in plan_insert(&mut tx, &layout, op + 1) {
                tx.log_region(layout.node(idx), LINE_BYTES as usize);
            }
            do_insert(&mut tx, &layout, op + 1, op + 1);
            tx.commit();
        }
        assert_eq!(functional_walk(&mut s.pm, &layout), 100);
    }

    #[test]
    fn reverse_sequential_keys_stay_balanced() {
        let spec = WorkloadSpec::smoke(WorkloadKind::RbTree).with_ops(1);
        let mut s = Scaffold::new(&spec, 0, 64, LINE_BYTES);
        let meta = s.plan.alloc_lines(1);
        let pool = s.plan.alloc_lines(128);
        let layout = RbLayout {
            meta,
            pool,
            pool_nodes: 128,
        };
        s.pm.write_u64(layout.cursor_addr(), 1);
        for op in 0..100u64 {
            let mut tx = Txn::begin(&mut s.pm, &s.log, op, nvmm_core::txn::Mechanism::UndoLog);
            tx.log_region(layout.meta, 16);
            for idx in plan_insert(&mut tx, &layout, 1000 - op) {
                tx.log_region(layout.node(idx), LINE_BYTES as usize);
            }
            do_insert(&mut tx, &layout, 1000 - op, op + 1);
            tx.commit();
        }
        assert_eq!(functional_walk(&mut s.pm, &layout), 100);
    }

    #[test]
    fn tree_height_is_logarithmic() {
        let spec = WorkloadSpec::smoke(WorkloadKind::RbTree).with_ops(500);
        let (mut pm, _, _, layout, _) = execute(&spec, 0, spec.ops);
        // Measure max depth by walking.
        fn depth(pm: &mut Pmem, l: &RbLayout, idx: u64) -> usize {
            if idx == 0 {
                return 0;
            }
            let (lc, rc) = (left(pm, l, idx), right(pm, l, idx));
            1 + depth(pm, l, lc).max(depth(pm, l, rc))
        }
        let root = pm.load(layout.root_addr());
        let d = depth(&mut pm, &layout, root);
        // RB bound: height <= 2*log2(n+1); for 500 keys that's ~18.
        assert!(d <= 18, "depth {d} exceeds the red-black bound");
    }
}
