//! B-Tree: inserts random values into a persistent B-tree (§6.2).
//!
//! An insertion-only B-tree with top-down *preemptive splitting*: while
//! descending, any full child is split before entering it, so the set of
//! nodes an insert will modify is exactly the visited path plus the
//! freshly allocated siblings. A read-only pre-pass computes that set,
//! the transaction undo-logs it (prepare), and the insert then mutates in
//! place — the paper's three-stage protocol with batch logging.
//!
//! Node layout (4 cache lines = 256 B):
//!
//! ```text
//! word 0      : nkeys
//! word 1      : is_leaf (0/1)
//! words 2..16 : keys[14]
//! words 17..31: children[15] (node indices; 0 = none)
//! ```

use crate::spec::WorkloadSpec;
use crate::util::{ensure, ConsistencyError, Scaffold};
use nvmm_core::pmem::Pmem;
use nvmm_core::recovery::RecoveredMemory;
use nvmm_core::txn::Txn;
use nvmm_core::undo::UndoLog;
use nvmm_sim::addr::ByteAddr;
use rand::Rng;

/// Maximum keys per node.
pub const MAX_KEYS: usize = 14;
/// Bytes per node (4 lines).
pub const NODE_BYTES: u64 = 256;

/// Addresses of the B-tree structure.
#[derive(Debug, Clone, Copy)]
pub struct BTreeLayout {
    /// Metadata line: root index (u64) at +0, pool cursor (u64) at +8.
    pub meta: ByteAddr,
    /// Node pool base (index 0 is reserved/null).
    pub pool: ByteAddr,
    /// Pool capacity in nodes.
    pub pool_nodes: u64,
}

impl BTreeLayout {
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
        ByteAddr(self.pool.0 + i * NODE_BYTES)
    }
}

/// In-memory copy of one node, read/written through an accessor.
#[derive(Debug, Clone, Default)]
struct Node {
    nkeys: u64,
    is_leaf: bool,
    keys: [u64; MAX_KEYS],
    children: [u64; MAX_KEYS + 1],
}

/// Word-level node field offsets.
const OFF_NKEYS: u64 = 0;
const OFF_LEAF: u64 = 8;
const OFF_KEYS: u64 = 16;
const OFF_CHILDREN: u64 = 16 + 8 * MAX_KEYS as u64;

trait Mem {
    fn load_u64(&mut self, a: ByteAddr) -> u64;
    fn store_u64(&mut self, a: ByteAddr, v: u64);
}

impl Mem for Txn<'_> {
    fn load_u64(&mut self, a: ByteAddr) -> u64 {
        self.read_u64(a)
    }
    fn store_u64(&mut self, a: ByteAddr, v: u64) {
        self.write_u64(a, v)
    }
}

/// Read-only adapter over [`RecoveredMemory`] for the checker.
struct RecMem<'a, 'm>(&'a mut RecoveredMemory<'m>);

impl Mem for RecMem<'_, '_> {
    fn load_u64(&mut self, a: ByteAddr) -> u64 {
        self.0.read_u64(a)
    }
    fn store_u64(&mut self, _a: ByteAddr, _v: u64) {
        unreachable!("checker never writes")
    }
}

fn load_node<M: Mem>(m: &mut M, layout: &BTreeLayout, idx: u64) -> Node {
    let base = layout.node(idx);
    let mut n = Node {
        nkeys: m.load_u64(ByteAddr(base.0 + OFF_NKEYS)),
        is_leaf: m.load_u64(ByteAddr(base.0 + OFF_LEAF)) != 0,
        ..Node::default()
    };
    let nk = (n.nkeys as usize).min(MAX_KEYS);
    for k in 0..nk {
        n.keys[k] = m.load_u64(ByteAddr(base.0 + OFF_KEYS + 8 * k as u64));
    }
    if !n.is_leaf {
        for c in 0..=nk {
            n.children[c] = m.load_u64(ByteAddr(base.0 + OFF_CHILDREN + 8 * c as u64));
        }
    }
    n
}

fn store_node(tx: &mut Txn<'_>, layout: &BTreeLayout, idx: u64, n: &Node) {
    let base = layout.node(idx);
    tx.store_u64(ByteAddr(base.0 + OFF_NKEYS), n.nkeys);
    tx.store_u64(ByteAddr(base.0 + OFF_LEAF), n.is_leaf as u64);
    for k in 0..n.nkeys as usize {
        tx.store_u64(ByteAddr(base.0 + OFF_KEYS + 8 * k as u64), n.keys[k]);
    }
    if !n.is_leaf {
        for c in 0..=n.nkeys as usize {
            tx.store_u64(
                ByteAddr(base.0 + OFF_CHILDREN + 8 * c as u64),
                n.children[c],
            );
        }
    }
}

/// Read-only pre-pass: simulates the preemptive-split descent for `key`
/// and returns the node indices that the insert will modify (existing
/// nodes only — fresh allocations need no undo logging).
fn plan_insert(tx: &mut Txn<'_>, layout: &BTreeLayout, key: u64) -> Vec<u64> {
    let mut touched = Vec::new();
    let root = tx.load_u64(layout.root_addr());
    if root == 0 {
        return touched; // first insert allocates the root; nothing to log
    }
    // A full root is split: the root cell and the old root are modified.
    touched.push(root);
    let mut node = load_node(tx, layout, root);
    while !node.is_leaf {
        let mut ci = node.nkeys as usize;
        for k in 0..node.nkeys as usize {
            if key < node.keys[k] {
                ci = k;
                break;
            }
        }
        let child_idx = node.children[ci];
        let child = load_node(tx, layout, child_idx);
        // If `child` is full it will be split: the parent gains a key
        // (already in `touched`), the child is halved (pushed below) and
        // the sibling is fresh. Routing over the pre-split key array
        // visits the same physical grandchild the post-split descent
        // would, so walking the original child plans the true path.
        touched.push(child_idx);
        node = child;
    }
    touched
}

fn alloc_node(tx: &mut Txn<'_>, layout: &BTreeLayout) -> u64 {
    let idx = tx.load_u64(layout.cursor_addr());
    assert!(idx < layout.pool_nodes, "B-tree node pool exhausted");
    tx.store_u64(layout.cursor_addr(), idx + 1);
    idx
}

/// Splits full child `ci` of `parent_idx`. Returns nothing; the parent
/// gains the median key and a pointer to the fresh right sibling.
fn split_child(tx: &mut Txn<'_>, layout: &BTreeLayout, parent_idx: u64, ci: usize) {
    let mut parent = load_node(tx, layout, parent_idx);
    let left_idx = parent.children[ci];
    let mut left = load_node(tx, layout, left_idx);
    debug_assert_eq!(left.nkeys as usize, MAX_KEYS);

    let mid = MAX_KEYS / 2;
    let median = left.keys[mid];
    let right_idx = alloc_node(tx, layout);
    let mut right = Node {
        is_leaf: left.is_leaf,
        ..Node::default()
    };
    right.nkeys = (MAX_KEYS - mid - 1) as u64;
    for k in 0..right.nkeys as usize {
        right.keys[k] = left.keys[mid + 1 + k];
    }
    if !left.is_leaf {
        for c in 0..=right.nkeys as usize {
            right.children[c] = left.children[mid + 1 + c];
        }
    }
    left.nkeys = mid as u64;

    // Parent: shift keys/children right of ci.
    for k in (ci..parent.nkeys as usize).rev() {
        parent.keys[k + 1] = parent.keys[k];
    }
    for c in (ci + 1..=parent.nkeys as usize).rev() {
        parent.children[c + 1] = parent.children[c];
    }
    parent.keys[ci] = median;
    parent.children[ci + 1] = right_idx;
    parent.nkeys += 1;

    store_node(tx, layout, left_idx, &left);
    store_node(tx, layout, right_idx, &right);
    store_node(tx, layout, parent_idx, &parent);
}

/// Performs the actual insert (mutate stage).
fn do_insert(tx: &mut Txn<'_>, layout: &BTreeLayout, key: u64) {
    let root = tx.load_u64(layout.root_addr());
    if root == 0 {
        let idx = alloc_node(tx, layout);
        let node = Node {
            nkeys: 1,
            is_leaf: true,
            keys: {
                let mut k = [0; MAX_KEYS];
                k[0] = key;
                k
            },
            ..Node::default()
        };
        store_node(tx, layout, idx, &node);
        tx.store_u64(layout.root_addr(), idx);
        return;
    }
    let mut idx = root;
    let root_node = load_node(tx, layout, idx);
    if root_node.nkeys as usize == MAX_KEYS {
        // Grow: new root with the old root as only child, then split.
        let new_root = alloc_node(tx, layout);
        let node = Node {
            nkeys: 0,
            is_leaf: false,
            children: {
                let mut c = [0; MAX_KEYS + 1];
                c[0] = idx;
                c
            },
            ..Node::default()
        };
        store_node(tx, layout, new_root, &node);
        tx.store_u64(layout.root_addr(), new_root);
        split_child(tx, layout, new_root, 0);
        idx = new_root;
    }
    loop {
        let node = load_node(tx, layout, idx);
        if node.is_leaf {
            let mut n = node;
            let mut pos = n.nkeys as usize;
            for k in 0..n.nkeys as usize {
                if key < n.keys[k] {
                    pos = k;
                    break;
                }
            }
            for k in (pos..n.nkeys as usize).rev() {
                n.keys[k + 1] = n.keys[k];
            }
            n.keys[pos] = key;
            n.nkeys += 1;
            store_node(tx, layout, idx, &n);
            return;
        }
        let mut ci = node.nkeys as usize;
        for k in 0..node.nkeys as usize {
            if key < node.keys[k] {
                ci = k;
                break;
            }
        }
        let child = load_node(tx, layout, node.children[ci]);
        if child.nkeys as usize == MAX_KEYS {
            split_child(tx, layout, idx, ci);
            // Re-read the parent: the split inserted a key at ci.
            let parent = load_node(tx, layout, idx);
            if key >= parent.keys[ci] {
                idx = parent.children[ci + 1];
            } else {
                idx = parent.children[ci];
            }
        } else {
            idx = node.children[ci];
        }
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
) -> (Pmem, UndoLog, ByteAddr, BTreeLayout, Vec<usize>) {
    // Worst case per insert: path of splits — generous bound of 24
    // logged regions of one node each.
    let mut s = Scaffold::new(spec, core, 26, NODE_BYTES);
    // Pool sized by the configured footprint so probe reads span it.
    let pool_nodes = (2 * spec.ops as u64 + 4)
        .max(16)
        .max(spec.footprint_bytes / NODE_BYTES);
    let meta = s.plan.alloc_lines(1);
    let pool = s.plan.alloc(pool_nodes * NODE_BYTES, 64);
    let layout = BTreeLayout {
        meta,
        pool,
        pool_nodes,
    };

    // Node 0 is reserved (null); cursor starts at 1.
    s.pm.write_u64(layout.cursor_addr(), 1);
    s.pm.clwb(layout.cursor_addr(), 8);
    s.pm.counter_cache_writeback(layout.cursor_addr(), 8);
    s.pm.persist_barrier();

    // Full-width random keys keep duplicates vanishingly rare, so the
    // order check stays exact; the footprint is set by the node pool.
    let _ = spec.footprint_bytes;
    // Everything up to here is setup, persisted before the measured ops.
    for op in 0..ops as u64 {
        let key = s.rng.gen_range(1..u64::MAX);
        let (ops_cell, payload, bytes) = (s.ops_cell, s.payload_slot(op), s.payload_bytes);
        let mut tx = s.begin_tx(op);
        // Prepare: log meta + every node the insert will touch.
        tx.log_region(layout.meta, 16);
        let touched = plan_insert(&mut tx, &layout, key);
        for idx in &touched {
            tx.log_region(layout.node(*idx), NODE_BYTES as usize);
        }
        // Mutate.
        do_insert(&mut tx, &layout, key);
        Scaffold::finish_tx(&mut tx, ops_cell, payload, bytes, op);
        tx.commit();
        s.pm.compute(3500);
        s.probe_reads(
            layout.pool,
            layout.pool_nodes * NODE_BYTES,
            spec.read_probes,
        );
    }
    (s.pm, s.log, s.ops_cell, layout, s.op_starts)
}

#[allow(clippy::too_many_arguments)]
fn walk<M: Mem>(
    m: &mut M,
    layout: &BTreeLayout,
    idx: u64,
    lo: u64,
    hi: u64,
    depth: usize,
    leaf_depth: &mut Option<usize>,
    count: &mut u64,
) -> Result<(), ConsistencyError> {
    ensure!(
        idx != 0 && idx < layout.pool_nodes,
        "node index {idx} out of pool"
    );
    ensure!(depth < 64, "tree deeper than 64: cycle suspected");
    let node = load_node(m, layout, idx);
    ensure!(
        node.nkeys as usize <= MAX_KEYS,
        "node {idx} overfull ({} keys)",
        node.nkeys
    );
    ensure!(node.nkeys >= 1, "node {idx} empty");
    let mut prev = lo;
    for k in 0..node.nkeys as usize {
        let key = node.keys[k];
        // Inclusive bounds tolerate duplicate keys adjacent to separators.
        ensure!(
            key >= prev && key <= hi,
            "node {idx} key {key} violates order ({prev}..={hi})"
        );
        prev = key;
    }
    *count += node.nkeys;
    if node.is_leaf {
        match leaf_depth {
            None => *leaf_depth = Some(depth),
            Some(d) => ensure!(*d == depth, "leaf depth {depth} != {d}: unbalanced"),
        }
    } else {
        for c in 0..=node.nkeys as usize {
            let clo = if c == 0 { lo } else { node.keys[c - 1] };
            let chi = if c == node.nkeys as usize {
                hi
            } else {
                node.keys[c]
            };
            walk(
                m,
                layout,
                node.children[c],
                clo,
                chi,
                depth + 1,
                leaf_depth,
                count,
            )?;
        }
    }
    Ok(())
}

/// Structural check: BST ordering, uniform leaf depth, node fill bounds,
/// and a total key count equal to the committed insert count.
pub fn check(
    layout: &BTreeLayout,
    _spec: &WorkloadSpec,
    _core: usize,
    committed: u64,
    mem: &mut RecoveredMemory,
) -> Result<(), ConsistencyError> {
    let mut m = RecMem(mem);
    let root = m.load_u64(layout.root_addr());
    if committed == 0 {
        ensure!(root == 0, "empty tree must have null root, got {root}");
        return Ok(());
    }
    ensure!(root != 0, "{committed} inserts but null root");
    let mut leaf_depth = None;
    let mut count = 0;
    walk(
        &mut m,
        layout,
        root,
        0,
        u64::MAX,
        0,
        &mut leaf_depth,
        &mut count,
    )?;
    ensure!(
        count == committed,
        "tree holds {count} keys, expected {committed}"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{WorkloadKind, WorkloadSpec};

    #[test]
    fn inserts_build_valid_tree() {
        // Enough inserts to force multiple splits and a root grow.
        let spec = WorkloadSpec::smoke(WorkloadKind::BTree).with_ops(200);
        let (pm, _, ops_cell, layout, _) = execute(&spec, 0, spec.ops);
        let mut pm = pm;
        assert_eq!(pm.read_u64(ops_cell), 200);
        // Validate via the checker against the functional image: wrap it
        // as a "recovered" memory with everything clean.
        // (Full crash validation lives in the integration tests.)
        let root = pm.read_u64(layout.root_addr());
        assert_ne!(root, 0);
        let cursor = pm.read_u64(layout.cursor_addr());
        assert!(cursor > 1, "splits must allocate nodes");
    }

    #[test]
    fn keys_are_sorted_in_functional_leaves() {
        let spec = WorkloadSpec::smoke(WorkloadKind::BTree).with_ops(50);
        let (mut pm, _, _, layout, _) = execute(&spec, 0, spec.ops);
        struct PmMem<'a>(&'a mut Pmem);
        impl Mem for PmMem<'_> {
            fn load_u64(&mut self, a: ByteAddr) -> u64 {
                let mut b = [0u8; 8];
                self.0.peek(a, &mut b);
                u64::from_le_bytes(b)
            }
            fn store_u64(&mut self, _: ByteAddr, _: u64) {
                unreachable!()
            }
        }
        let mut m = PmMem(&mut pm);
        let root = m.load_u64(layout.root_addr());
        let mut leaf_depth = None;
        let mut count = 0;
        walk(
            &mut m,
            &layout,
            root,
            0,
            u64::MAX,
            0,
            &mut leaf_depth,
            &mut count,
        )
        .unwrap();
        assert_eq!(count, 50);
    }

    #[test]
    fn deep_tree_stays_balanced() {
        let spec = WorkloadSpec::smoke(WorkloadKind::BTree).with_ops(600);
        let (mut pm, _, _, layout, _) = execute(&spec, 0, spec.ops);
        struct PmMem<'a>(&'a mut Pmem);
        impl Mem for PmMem<'_> {
            fn load_u64(&mut self, a: ByteAddr) -> u64 {
                let mut b = [0u8; 8];
                self.0.peek(a, &mut b);
                u64::from_le_bytes(b)
            }
            fn store_u64(&mut self, _: ByteAddr, _: u64) {
                unreachable!()
            }
        }
        let mut m = PmMem(&mut pm);
        let root = m.load_u64(layout.root_addr());
        let mut leaf_depth = None;
        let mut count = 0;
        walk(
            &mut m,
            &layout,
            root,
            0,
            u64::MAX,
            0,
            &mut leaf_depth,
            &mut count,
        )
        .unwrap();
        assert_eq!(count, 600);
        assert!(
            leaf_depth.unwrap() >= 1,
            "600 keys must not fit in one node"
        );
    }
}
