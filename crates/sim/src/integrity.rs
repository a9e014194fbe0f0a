//! The integrity-verification subsystem: per-line MACs plus an N-ary
//! counter/integrity tree over the counter region.
//!
//! Encrypted NVMM needs more than confidentiality: a physical attacker
//! can splice stale (ciphertext, counter) pairs back into the DIMM, so
//! production designs pair counter-mode encryption with (i) a per-line
//! MAC binding address, counter, and content, and (ii) a Merkle-style
//! counter tree whose persistent root makes replay detectable (Bonsai
//! Merkle trees; SGX-style integrity engines). This module models both
//! on top of the crash-consistency machinery:
//!
//! * **Leaves** are the counter lines themselves (level 0). An internal
//!   node at `(level, index)` packs the eight digests of its children
//!   at `level − 1`; the single node at the configured top level is the
//!   persistent root.
//! * **MACs** live in their own region, packed eight to a line exactly
//!   like counters ([`nvmm_crypto::mac`]); MAC line `k` guards the same
//!   eight data lines as counter line `k`, so the two persist together.
//! * A shared **metadata cache** (one [`SetAssocCache`]) holds MAC
//!   lines and tree nodes on chip; the persistence policy decides when
//!   dirty metadata reaches NVMM.
//!
//! Six policies ([`IntegrityPolicy`]):
//!
//! * `strict` — every write persists its MAC line and full leaf-to-root
//!   tree path atomically with the (data, counter) pair; root updates
//!   serialize through a single engine. Post-crash, every persisted
//!   tree node verifies against its persisted children.
//! * `pipelined` — the same in-pair path persistence as `strict`, but
//!   with Freij-style in-cache dependency tracking in place of the
//!   serialized root engine: a pair's guarantee point is only *clamped*
//!   to never run ahead of the previous pair's (the dependency the
//!   coalesced root update carries), so root updates overlap instead of
//!   stalling. The crash invariant checked is identical to `strict`.
//! * `lazy` — MAC lines persist with their counter lines (counter-
//!   atomic writes, `counter_cache_writeback`, evictions); tree nodes
//!   stay dirty on chip and reach NVMM only on eviction. Recovery
//!   rebuilds the tree from the persisted leaves, so stale interior
//!   nodes are tolerated by construction.
//! * `phoenix` — tree nodes are *never* persisted (Phoenix, arXiv:
//!   1911.01922: the tree is reconstructible state). Every
//!   `phoenix_epoch_every`-th counter-atomic pair to a counter line
//!   instead persists an **epoch summary** inside the pair — a
//!   [`TreeNodeAddr`] at the reserved [`PHOENIX_SUMMARY_LEVEL`] whose
//!   [`DigestLine`] records `(counter line, wrapping counter sum,
//!   sequence)`. Recovery audits every persisted summary against the
//!   image's counter lines (a summary claiming counter state newer
//!   than what persisted is a *stale epoch*) and then reconstructs the
//!   full interior node set with [`reconstruct_tree`].
//! * `colocated` — SecPM-style (arXiv:1901.00620): a data line's
//!   counter and MAC pack into one metadata line
//!   ([`nvmm_crypto::pack`]), halving metadata writes; no tree. The
//!   oracle is the per-line MAC check over the packed halves.
//! * `mac-only` — no tree at all; the bound on replay is per-line.
//!
//! [`verify_image`] is the post-crash oracle the model checker runs on
//! every enumerated image; [`reconstruct_tree`] is the one fold of the
//! tree from its counter leaves: the lazy and phoenix recovery path
//! whose cost [`recovery_cost`] reports, and the root the freshness
//! checks compare.

use crate::addr::{CounterLineAddr, LineAddr, MacLineAddr, TreeNodeAddr};
use crate::cache::SetAssocCache;
use crate::config::{IntegrityPolicy, SimConfig, MAX_TREE_LEVELS};
use crate::crashmc::CellKey;
use crate::nvmm::{LineRead, NvmmImage};
use fxhash::FxHashMap;
use nvmm_crypto::counter::{CounterLine, LINE_BYTES};
use nvmm_crypto::engine::EncryptionEngine;
use nvmm_crypto::mac::{MacEngine, MacLine};
use nvmm_crypto::Counter;
use std::collections::BTreeMap;

/// Children per tree node: one 64-byte node packs eight 8-byte digests,
/// mirroring the counter region's eight-counters-per-line packing.
pub const TREE_ARITY: usize = 8;

/// A 64-byte integrity-tree node: eight packed child digests. Digest 0
/// is reserved to mean "child subtree never written".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DigestLine {
    digests: [u64; TREE_ARITY],
}

impl DigestLine {
    /// A node whose every child slot is unwritten.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the digest in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= TREE_ARITY`.
    pub fn get(&self, slot: usize) -> u64 {
        self.digests[slot]
    }

    /// Replaces the digest in `slot`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= TREE_ARITY`.
    pub fn set(&mut self, slot: usize, digest: u64) -> u64 {
        std::mem::replace(&mut self.digests[slot], digest)
    }

    /// Serializes the node to its 64-byte NVMM representation.
    pub fn to_bytes(&self) -> [u8; LINE_BYTES] {
        let mut out = [0u8; LINE_BYTES];
        for (i, d) in self.digests.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&d.to_le_bytes());
        }
        out
    }

    /// Iterates over `(slot, digest)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.digests.iter().copied().enumerate()
    }
}

/// FNV-1a 64 over `bytes`, with 0 remapped to 1 so the all-zero digest
/// keeps its reserved "never written" meaning in [`DigestLine`] slots.
pub fn digest64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// The parent of a level-0 leaf (counter line) or internal node.
fn parent_of(level: u32, index: u64) -> TreeNodeAddr {
    TreeNodeAddr {
        level: level + 1,
        index: index >> 3,
    }
}

/// Which slot of its parent a node at `(level, index)` occupies.
fn slot_in_parent(index: u64) -> usize {
    (index % TREE_ARITY as u64) as usize
}

/// The leaf-to-root tree path covering `cline`: node addresses at
/// levels `1..=levels`, ascending. The last element is the root
/// `(levels, 0)`.
///
/// # Panics
///
/// Panics if `levels` exceeds [`MAX_TREE_LEVELS`] or `cline` lies
/// outside the tree's coverage (its index has bits above `3 * levels`).
pub fn tree_path(cline: CounterLineAddr, levels: u32) -> Vec<TreeNodeAddr> {
    assert_covered(cline, levels);
    (1..=levels)
        .map(|l| TreeNodeAddr {
            level: l,
            index: cline.0 >> (3 * l),
        })
        .collect()
}

/// Panics unless `cline` lies inside a `levels`-level tree.
fn assert_covered(cline: CounterLineAddr, levels: u32) {
    assert_height(levels);
    assert!(
        levels == 0 || cline.0 >> (3 * levels) == 0,
        "counter line {cline} outside a {levels}-level tree's coverage; raise tree_levels"
    );
}

/// Panics if a `levels`-level tree exceeds [`MAX_TREE_LEVELS`]. The
/// integrity constructors ([`IntegritySpec::from_config`] and
/// [`IntegrityState::from_config`]) check every config with it.
fn assert_height(levels: u32) {
    assert!(
        levels <= MAX_TREE_LEVELS,
        "tree_levels {levels} exceeds the maximum of {MAX_TREE_LEVELS}: a 64-bit \
         counter-line index covers at most {MAX_TREE_LEVELS} arity-8 levels"
    );
}

/// The reserved tree level phoenix epoch summaries persist at. Real
/// tree nodes occupy levels `1..=tree_levels`; the sentinel keeps
/// summaries disjoint from any interior node address.
pub const PHOENIX_SUMMARY_LEVEL: u32 = u32::MAX;

/// The architectural quantity a phoenix epoch summary claims: the
/// wrapping sum of a counter line's eight counters. Each
/// counter-atomic pair bumps exactly one counter, so (short of a
/// 2^64-bump wraparound) the sum grows monotonically pair over pair —
/// a persisted image whose sum is *below* a persisted summary's claim
/// exposes a stale epoch.
pub fn counter_line_sum(counters: &CounterLine) -> u64 {
    (0..TREE_ARITY).fold(0u64, |acc, slot| acc.wrapping_add(counters.get(slot).0))
}

/// Encodes a phoenix epoch summary for `cline`: the node address at
/// [`PHOENIX_SUMMARY_LEVEL`] and the digest line carrying
/// `(cline, counter sum, seq)`.
pub fn phoenix_summary(
    cline: CounterLineAddr,
    counters: &CounterLine,
    seq: u64,
) -> (TreeNodeAddr, DigestLine) {
    let node = TreeNodeAddr {
        level: PHOENIX_SUMMARY_LEVEL,
        index: cline.0,
    };
    let mut d = DigestLine::new();
    d.set(0, cline.0);
    d.set(1, counter_line_sum(counters));
    d.set(2, seq);
    (node, d)
}

/// Decodes a persisted phoenix epoch summary back into
/// `(counter line, claimed sum, seq)`; `None` if `node` is not at the
/// summary level.
pub fn decode_phoenix_summary(
    node: TreeNodeAddr,
    digests: &DigestLine,
) -> Option<(CounterLineAddr, u64, u64)> {
    if node.level != PHOENIX_SUMMARY_LEVEL {
        return None;
    }
    Some((
        CounterLineAddr(digests.get(0)),
        digests.get(1),
        digests.get(2),
    ))
}

/// What the verification oracle checks for a given run configuration.
/// Built from [`SimConfig`] by the workload harness and threaded to
/// every post-crash image check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegritySpec {
    /// The persistence policy the run used.
    pub policy: IntegrityPolicy,
    /// Height of the counter tree (0 internal levels = no tree).
    pub levels: u32,
}

impl IntegritySpec {
    /// The spec for a run with integrity disabled: [`verify_image`]
    /// accepts every image.
    pub fn disabled() -> Self {
        Self {
            policy: IntegrityPolicy::None,
            levels: 0,
        }
    }

    /// The spec `config` implies.
    ///
    /// # Panics
    ///
    /// Panics if `config.tree_levels` exceeds [`MAX_TREE_LEVELS`].
    pub fn from_config(config: &SimConfig) -> Self {
        assert_height(config.tree_levels);
        Self {
            policy: config.integrity,
            levels: config.tree_levels,
        }
    }
}

/// A line resident in the integrity-metadata cache: a MAC line or a
/// tree node. Presence/dirtiness lives in the cache; values live in
/// [`IntegrityState`]'s architectural maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MetaKey {
    /// A MAC line.
    Mac(MacLineAddr),
    /// An internal integrity-tree node.
    Node(TreeNodeAddr),
}

/// The controller-resident half of the subsystem: the MAC engine, the
/// architecturally-latest MAC and tree values, the metadata cache, and
/// the root-update serialization point. The memory controller owns one
/// when [`SimConfig::integrity`] is enabled and drives it from the
/// write datapath; journaling of the resulting NVMM writes stays in the
/// controller.
#[derive(Debug)]
pub(crate) struct IntegrityState {
    policy: IntegrityPolicy,
    levels: u32,
    mac_engine: MacEngine,
    /// Architecturally latest MAC lines (cache plus everything below).
    mac_state: FxHashMap<MacLineAddr, MacLine>,
    /// Architecturally latest tree nodes.
    tree_state: FxHashMap<TreeNodeAddr, DigestLine>,
    /// Presence/dirtiness of metadata lines on chip.
    pub(crate) cache: SetAssocCache<MetaKey, ()>,
    /// Next instant the serialized root-update engine is free (strict),
    /// or the previous pair's guarantee point the dependency tracker
    /// clamps against (pipelined).
    pub(crate) root_free: crate::time::Time,
    /// Counter-atomic pairs between epoch summaries (phoenix).
    phoenix_epoch_every: u64,
    /// Per-counter-line CA pair counts (phoenix). Keyed by counter line
    /// — each line is owned by exactly one shard in any sharding, so
    /// summary emission is deterministic across shard counts.
    phoenix_pairs: FxHashMap<CounterLineAddr, u64>,
}

impl IntegrityState {
    /// Builds the state `config` asks for, or `None` when integrity is
    /// off.
    ///
    /// # Panics
    ///
    /// Panics if integrity is enabled on a design without a separate
    /// counter region (unencrypted or co-located): per-line MACs bind
    /// the separate counter, and the tree's leaves *are* the counter
    /// region. Panics too if `config.tree_levels` exceeds
    /// [`MAX_TREE_LEVELS`].
    pub(crate) fn from_config(config: &SimConfig) -> Option<Self> {
        if !config.integrity.enabled() {
            return None;
        }
        assert!(
            config.design.encrypted() && !config.design.co_located(),
            "integrity policy {} requires a separate-counter encrypted design, not {}",
            config.integrity,
            config.design
        );
        assert_height(config.tree_levels);
        Some(Self {
            policy: config.integrity,
            levels: config.tree_levels,
            mac_engine: MacEngine::new(config.key),
            mac_state: FxHashMap::default(),
            tree_state: FxHashMap::default(),
            cache: SetAssocCache::new(config.metadata_cache.sets(), config.metadata_cache.ways),
            root_free: crate::time::Time::ZERO,
            phoenix_epoch_every: config.phoenix_epoch_every.max(1),
            phoenix_pairs: FxHashMap::default(),
        })
    }

    /// The policy this state implements.
    pub(crate) fn policy(&self) -> IntegrityPolicy {
        self.policy
    }

    /// Recomputes and records the MAC of `line` after a write that
    /// encrypted `plaintext` under `counter`. Returns the MAC line the
    /// slot lives in.
    ///
    /// Every write draws a fresh counter, so the writer never sees an
    /// `(addr, counter)` pair twice and skips the tag memo the checkers
    /// rely on.
    pub(crate) fn record_mac(
        &mut self,
        line: LineAddr,
        counter: Counter,
        plaintext: &[u8; LINE_BYTES],
    ) -> MacLineAddr {
        let slot = line.mac_slot();
        let mac = self
            .mac_engine
            .line_mac_uncached(line.0, counter, plaintext);
        self.mac_state
            .entry(MacLineAddr(slot.mac_line))
            .or_default()
            .set(slot.slot, mac);
        MacLineAddr(slot.mac_line)
    }

    /// The architecturally latest content of a MAC line.
    pub(crate) fn mac_snapshot(&self, mline: MacLineAddr) -> MacLine {
        self.mac_state.get(&mline).copied().unwrap_or_default()
    }

    /// The architecturally latest content of a tree node.
    pub(crate) fn tree_snapshot(&self, node: TreeNodeAddr) -> DigestLine {
        self.tree_state.get(&node).copied().unwrap_or_default()
    }

    /// Propagates a counter-line update through the tree: recomputes the
    /// leaf digest from `counter_line_bytes` and folds it up to the
    /// root. Refills `path` with the updated path `(node, new content)`,
    /// leaf-most first — the write set a strict-policy write must
    /// persist. The caller keeps `path` across writes, so the walk
    /// allocates nothing once it has grown to the tree's height; the
    /// root's own digest has no parent slot and is not computed.
    pub(crate) fn update_tree_path(
        &mut self,
        cline: CounterLineAddr,
        counter_line_bytes: &[u8; LINE_BYTES],
        path: &mut Vec<(TreeNodeAddr, DigestLine)>,
    ) {
        assert_covered(cline, self.levels);
        path.clear();
        let mut digest = digest64(counter_line_bytes);
        let mut index = cline.0;
        for level in 0..self.levels {
            let node = parent_of(level, index);
            let entry = self.tree_state.entry(node).or_default();
            entry.set(slot_in_parent(index), digest);
            let snap = *entry;
            if node.level < self.levels {
                digest = digest64(&snap.to_bytes());
            }
            index = node.index;
            path.push((node, snap));
        }
    }

    /// Touches `key` in the metadata cache, marking it dirty or clean
    /// (clean = the current value just persisted). Returns the dirty
    /// victim's key if the insertion evicted one the caller must
    /// persist, plus whether the touch hit.
    pub(crate) fn touch(&mut self, key: MetaKey, dirty: bool) -> (Option<MetaKey>, bool) {
        let (hit, victim) = self.cache.touch(key, (), dirty);
        (victim.filter(|v| v.dirty).map(|v| v.key), hit)
    }

    /// Whether `key` is resident and dirty.
    pub(crate) fn is_dirty(&self, key: MetaKey) -> bool {
        self.cache.is_dirty(&key)
    }

    /// Clears `key`'s dirty bit after its current value persisted.
    pub(crate) fn clean(&mut self, key: MetaKey) {
        self.cache.clean(&key);
    }

    /// Counts one counter-atomic pair against `cline`'s phoenix epoch;
    /// returns `Some(seq)` when this pair must carry an epoch summary
    /// (every `phoenix_epoch_every`-th pair, `seq` starting at 1).
    pub(crate) fn phoenix_epoch(&mut self, cline: CounterLineAddr) -> Option<u64> {
        let count = self.phoenix_pairs.entry(cline).or_insert(0);
        *count += 1;
        if (*count).is_multiple_of(self.phoenix_epoch_every) {
            Some(*count / self.phoenix_epoch_every)
        } else {
            None
        }
    }
}

/// Rebuilds the integrity tree bottom-up from an image's persisted
/// counter lines — the lazy and phoenix recovery path (stale or missing
/// interior nodes are simply recomputed): the *entire* interior node
/// set, sorted by `(level, index)`. A node exists iff it has a present
/// child, and a zero-level tree folds as one level. Depends only on the
/// counter region, so running it on its own output image is a fixpoint:
/// re-deriving the tree from the same leaves reproduces it node for
/// node (the property the recovery proptests pin down). The root is
/// the top-level node with index 0.
pub fn reconstruct_tree(img: &NvmmImage, levels: u32) -> Vec<(TreeNodeAddr, DigestLine)> {
    let levels = levels.max(1);
    // Sorting the leaves once makes every subsequent level's child list
    // sorted by construction (a parent's index is its child's `>> 3`),
    // so each level folds contiguous runs of its predecessor in place
    // of the map-build + collect + sort the per-level version paid.
    // Two swapped buffers carry the levels; nothing else allocates.
    let mut kids: Vec<(u64, u64)> = img
        .counter_lines()
        .map(|(cline, counters)| (cline.0, digest64(&counters.to_bytes())))
        .collect();
    kids.sort_unstable_by_key(|&(index, _)| index);
    let mut out = Vec::new();
    let mut cur: Vec<(u64, DigestLine)> = Vec::new();
    let mut next: Vec<(u64, DigestLine)> = Vec::new();
    fold_sorted_children(kids.iter().copied(), &mut cur);
    for l in 1..=levels {
        out.extend(
            cur.iter()
                .map(|&(index, d)| (TreeNodeAddr { level: l, index }, d)),
        );
        if l == levels {
            break;
        }
        next.clear();
        fold_sorted_children(
            cur.iter()
                .map(|&(index, node)| (index, digest64(&node.to_bytes()))),
            &mut next,
        );
        std::mem::swap(&mut cur, &mut next);
    }
    out
}

/// The root of the tree [`reconstruct_tree`] rebuilds from `img`: its
/// top-level node with index 0, or all-zero digests when the image has
/// no counter lines.
fn tree_root(img: &NvmmImage, levels: u32) -> DigestLine {
    let nodes = reconstruct_tree(img, levels);
    let root = TreeNodeAddr {
        level: levels.max(1),
        index: 0,
    };
    nodes
        .binary_search_by_key(&root, |&(node, _)| node)
        .map_or_else(|_| DigestLine::new(), |i| nodes[i].1)
}

/// Folds a child list sorted by index into its parent nodes, appending
/// to `out` in ascending parent order. Children sharing `index >> 3`
/// are contiguous in a sorted list, so one pass with a last-entry
/// check reproduces exactly the map-based grouping.
fn fold_sorted_children(
    children: impl Iterator<Item = (u64, u64)>,
    out: &mut Vec<(u64, DigestLine)>,
) {
    for (index, digest) in children {
        let parent = index >> 3;
        match out.last_mut() {
            Some((p, node)) if *p == parent => {
                node.set(slot_in_parent(index), digest);
            }
            _ => {
                let mut node = DigestLine::new();
                node.set(slot_in_parent(index), digest);
                out.push((parent, node));
            }
        }
    }
}

/// The post-crash integrity oracle: checks one enumerated NVMM image
/// against the invariants `spec`'s policy promises to maintain across
/// any crash. Returns a description of the first violation found.
///
/// * **MAC** (all enabled policies): every data line that decrypts
///   cleanly under its persisted counter must carry a persisted MAC
///   matching a recomputation over (address, counter, plaintext).
///   Garbled lines are skipped — whether *they* are acceptable is the
///   crash-consistency oracle's question, not the integrity engine's.
/// * **Tree** (strict, pipelined): every persisted node's non-reserved
///   child digests must match a present, persisted child (the counter
///   line itself at level 1). Child-before-parent is the one legal
///   persistence order; a parent embedding a child state that never
///   reached NVMM is exactly the ordering bug the checker must catch.
/// * **Epoch summaries** (phoenix): every persisted summary's claimed
///   counter-line sum must be at or below what the image's counter
///   region persisted — a higher claim means the summary outran its
///   pair (a stale epoch).
/// * **Tree** (lazy): nothing — recovery rebuilds interior nodes from
///   the leaves ([`reconstruct_tree`]), so persisted interiors are never
///   trusted.
///
/// The engines are the caller's: the crash model checker verifies
/// hundreds of candidate images against one key, and one warmed
/// [`EncryptionEngine`] (whose OTP memo persists across images) saves
/// re-deriving AES key schedules per image.
pub fn verify_image(
    img: &NvmmImage,
    spec: IntegritySpec,
    engine: &EncryptionEngine,
    mac_engine: &MacEngine,
) -> Result<(), String> {
    if !spec.policy.enabled() {
        return Ok(());
    }
    // The sweeps run in sorted order so the *first* witness is a
    // function of image content alone — the image's hash maps iterate
    // in construction-history order, and two line-identical images
    // reached along different overlay walks would otherwise blame
    // different lines. [`DeltaVerifier`] exploits this: its check
    // outcomes are keyed by the same sorted positions, so "smallest
    // failing key" reproduces this pass's witness bit for bit.
    let mut lines: Vec<LineAddr> = img.data_line_addrs().collect();
    lines.sort_unstable();
    for line in lines {
        if let Some(err) = mac_check(img, line, engine, mac_engine) {
            return Err(err);
        }
    }
    if spec.policy.persists_path_in_pair() {
        let mut nodes: Vec<(TreeNodeAddr, DigestLine)> = img.tree_nodes().collect();
        nodes.sort_unstable_by_key(|&(node, _)| node);
        for (node, digests) in nodes {
            for (slot, digest) in digests.iter().filter(|&(_, d)| d != 0) {
                if let Some(err) = tree_link_check(img, node, slot, digest) {
                    return Err(err);
                }
            }
        }
    } else if spec.policy.phoenix() {
        let mut nodes: Vec<(TreeNodeAddr, DigestLine)> = img.tree_nodes().collect();
        nodes.sort_unstable_by_key(|&(node, _)| node);
        for (node, digests) in nodes {
            if let Some(err) = phoenix_node_check(img, node, &digests) {
                return Err(err);
            }
        }
    }
    Ok(())
}

/// The per-line MAC check: a data line that decrypts cleanly under its
/// persisted counter must carry a persisted MAC matching a
/// recomputation over (address, counter, plaintext). Shared verbatim
/// by the eager sweep and [`DeltaVerifier`]'s re-checks so both paths
/// produce byte-identical witness strings for a given image.
fn mac_check(
    img: &NvmmImage,
    line: LineAddr,
    engine: &EncryptionEngine,
    mac_engine: &MacEngine,
) -> Option<String> {
    let read = img.read_line(line, engine);
    let LineRead::Clean(plaintext) = read else {
        return None;
    };
    let counter = img.persisted_counter(line);
    if counter.is_unwritten() {
        return None;
    }
    let expect = mac_engine.line_mac(line.0, counter, &plaintext);
    let got = img.persisted_mac(line);
    if got != expect {
        return Some(format!(
            "MAC mismatch on {line}: persisted {got}, recomputed {expect} over {counter}"
        ));
    }
    None
}

/// One strict/pipelined parent→child link check: `node`'s non-reserved
/// `slot` digest must name a present, matching child (the counter line
/// itself at level 1). Shared by the eager sweep and [`DeltaVerifier`].
fn tree_link_check(
    img: &NvmmImage,
    node: TreeNodeAddr,
    slot: usize,
    digest: u64,
) -> Option<String> {
    // A forged node at level 0, or past the last index whose children
    // are addressable, has no child to name; `base + slot` cannot
    // overflow once the multiply did not.
    let (Some(child_level), Some(base)) = (
        node.level.checked_sub(1),
        node.index.checked_mul(TREE_ARITY as u64),
    ) else {
        return Some(format!(
            "tree node {node} slot {slot} names no child: the node lies \
             outside the tree's address space"
        ));
    };
    let child_index = base + slot as u64;
    let actual = if child_level == 0 {
        let cline = CounterLineAddr(child_index);
        if !img.counter_line_present(cline) {
            return Some(format!(
                "tree node {node} slot {slot} references counter line \
                 {cline} that never persisted"
            ));
        }
        digest64(&img.counter_line(cline).to_bytes())
    } else {
        let child = TreeNodeAddr {
            level: child_level,
            index: child_index,
        };
        match img.tree_node(child) {
            Some(c) => digest64(&c.to_bytes()),
            None => {
                return Some(format!(
                    "tree node {node} slot {slot} references child {child} \
                     that never persisted"
                ));
            }
        }
    };
    if actual != digest {
        return Some(format!(
            "tree node {node} slot {slot} digest {digest:#x} does not match \
             its persisted child ({actual:#x}): parent persisted ahead of child"
        ));
    }
    None
}

/// The phoenix check for one persisted tree node: it must decode as an
/// epoch summary (phoenix never persists interior nodes) whose claim
/// passes [`phoenix_claim_check`]. Shared by the eager sweep and
/// [`DeltaVerifier`].
fn phoenix_node_check(img: &NvmmImage, node: TreeNodeAddr, digests: &DigestLine) -> Option<String> {
    let Some((cline, claim, seq)) = decode_phoenix_summary(node, digests) else {
        return Some(format!(
            "phoenix image persisted interior tree node {node}, \
             but phoenix never writes the tree"
        ));
    };
    phoenix_claim_check(img, cline, claim, seq)
}

/// Audits one decoded phoenix epoch summary against the image's
/// counter region: the claimed sum may not run ahead of what
/// persisted. Split from [`phoenix_node_check`] because a counter-line
/// change re-runs only this half for the summaries claiming that line.
fn phoenix_claim_check(
    img: &NvmmImage,
    cline: CounterLineAddr,
    claim: u64,
    seq: u64,
) -> Option<String> {
    if !img.counter_line_present(cline) {
        return Some(format!(
            "stale epoch: summary #{seq} claims counter line {cline} \
             at sum {claim:#x}, but the line never persisted"
        ));
    }
    let actual = counter_line_sum(&img.counter_line(cline));
    if actual < claim {
        return Some(format!(
            "stale epoch: summary #{seq} for {cline} claims sum {claim:#x} \
             ahead of the persisted {actual:#x}"
        ));
    }
    None
}

/// The verdict of the adversary oracle ([`verify_image_attack`]) on an
/// attacked post-crash image: either some policy mechanism flagged the
/// tampering (with a human-readable blame trail), or the image passed
/// every check the policy performs — the attack succeeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackVerdict {
    /// The policy caught the tampering; `blame` names the mechanism
    /// and the first witnessing line/node.
    Detected {
        /// Which check fired and on what address.
        blame: String,
    },
    /// Every check the policy performs passed: the adversary wins.
    Undetected,
}

impl AttackVerdict {
    /// Whether the tampering was caught.
    pub fn detected(&self) -> bool {
        matches!(self, AttackVerdict::Detected { .. })
    }

    /// The blame trail, when detected.
    pub fn blame(&self) -> Option<&str> {
        match self {
            AttackVerdict::Detected { blame } => Some(blame),
            AttackVerdict::Undetected => None,
        }
    }
}

/// Per-counter-line latest persisted phoenix epoch summary sequence
/// numbers in `img` (each summary node overwrites its predecessor, so
/// the persisted node *is* the latest).
fn phoenix_seq_map(img: &NvmmImage) -> FxHashMap<CounterLineAddr, u64> {
    let mut seqs: FxHashMap<CounterLineAddr, u64> = FxHashMap::default();
    for (node, digests) in img.tree_nodes() {
        if let Some((cline, _claim, seq)) = decode_phoenix_summary(node, &digests) {
            let e = seqs.entry(cline).or_insert(0);
            *e = (*e).max(seq);
        }
    }
    seqs
}

/// Non-wrapping sum of every counter persisted in `img`'s counter
/// region — the quantity the co-located policy's freshness register
/// tracks. Each write bumps exactly one counter, so the sum is
/// strictly monotone run-forward; `u128` keeps it exact.
fn image_counter_sum(img: &NvmmImage) -> u128 {
    let mut sum = 0u128;
    for (_, counters) in img.counter_lines() {
        for slot in 0..TREE_ARITY {
            sum += counters.get(slot).0 as u128;
        }
    }
    sum
}

/// The freshness anchor a policy consults *in addition to* the
/// in-image checks when judging a suspect image: the model of the
/// small on-chip non-volatile state real designs reserve exactly so
/// replay has something to contradict.
///
/// * `root` — the tree root over the honest image's counter region
///   (the NV root register of lazy/strict/pipelined designs).
/// * `phoenix_seqs` — per counter line, the latest epoch-summary
///   sequence number the honest image persisted (the monotone epoch
///   counter phoenix recovery audits against).
/// * `counter_sum` — the non-wrapping sum of all persisted counters
///   (the co-located design's monotone write-counter register).
///
/// `mac-only` deliberately captures nothing beyond what the image
/// itself carries — that *absence* of a freshness root is the
/// vulnerability the detection matrix demonstrates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreshnessRef {
    root: DigestLine,
    phoenix_seqs: Vec<(CounterLineAddr, u64)>,
    counter_sum: u128,
}

impl FreshnessRef {
    /// Captures the anchor from an honest (trusted) image — in the
    /// attack pipeline, the *latest* crash-free snapshot the adversary
    /// tampers with.
    pub fn capture(img: &NvmmImage, spec: IntegritySpec) -> Self {
        let root = if spec.policy.has_tree() {
            tree_root(img, spec.levels)
        } else {
            DigestLine::new()
        };
        let mut phoenix_seqs: Vec<(CounterLineAddr, u64)> = if spec.policy.phoenix() {
            phoenix_seq_map(img).into_iter().collect()
        } else {
            Vec::new()
        };
        phoenix_seqs.sort_unstable_by_key(|&(cline, _)| cline);
        Self {
            root,
            phoenix_seqs,
            counter_sum: image_counter_sum(img),
        }
    }
}

/// The adversary oracle: judges a (possibly tampered) post-crash image
/// against both the in-image invariants ([`verify_image`]) and the
/// policy's freshness anchor `fresh`, with the caller's engines (the
/// detection matrix judges dozens of attacked images under one key).
///
/// Check order:
///
/// 1. **In-image invariants** — [`verify_image`]: MAC mismatches
///    (torn writes, split replays, any incoherent splice), tree
///    parent/child ordering (strict, pipelined), stale phoenix epoch
///    claims. Any error is a detection; its message is the blame.
/// 2. **Freshness** — policy-specific comparison against `fresh`:
///    * lazy/strict/pipelined: the root rebuilt from the image's
///      counter region must equal the NV root register;
///    * phoenix: no counter line's latest persisted summary sequence
///      may regress below the register's;
///    * colocated: the persisted counter sum may not fall behind the
///      monotone write-counter register;
///    * mac-only: **no freshness check exists** — a coherent stale
///      image sails through, which is the point.
///
/// An honest image judged against its own [`FreshnessRef`] is always
/// [`AttackVerdict::Undetected`] (no false positives); the soundness
/// proptest pins this down across policies and crash times.
pub fn verify_image_attack(
    img: &NvmmImage,
    spec: IntegritySpec,
    engine: &EncryptionEngine,
    mac_engine: &MacEngine,
    fresh: &FreshnessRef,
) -> AttackVerdict {
    if !spec.policy.enabled() {
        return AttackVerdict::Undetected;
    }
    if let Err(blame) = verify_image(img, spec, engine, mac_engine) {
        return AttackVerdict::Detected { blame };
    }
    if spec.policy.phoenix() {
        let got = phoenix_seq_map(img);
        for &(cline, want) in &fresh.phoenix_seqs {
            let seen = got.get(&cline).copied().unwrap_or(0);
            if seen < want {
                return AttackVerdict::Detected {
                    blame: format!(
                        "epoch regression: {cline}'s latest persisted summary is #{seen}, \
                         but the recovery register recorded #{want}"
                    ),
                };
            }
        }
    } else if spec.policy.has_tree() {
        if tree_root(img, spec.levels) != fresh.root {
            return AttackVerdict::Detected {
                blame: "root freshness: the root rebuilt from the persisted counter \
                        region does not match the NV root register (replayed or \
                        rolled-back counters)"
                    .to_string(),
            };
        }
    } else if spec.policy.packed_meta() {
        let (got, want) = (image_counter_sum(img), fresh.counter_sum);
        if got < want {
            return AttackVerdict::Detected {
                blame: format!(
                    "counter rollback: persisted counter sum {got:#x} fell behind \
                     the monotone write-counter register's {want:#x}"
                ),
            };
        }
    }
    AttackVerdict::Undetected
}

/// The incremental post-crash integrity oracle: [`verify_image`]'s
/// verdict maintained as live state over an image that changes a few
/// cells at a time.
///
/// The crash model checker walks its cut schedule with an overlay that
/// rewrites only the cells whose winning journal write changed between
/// consecutive masks. `DeltaVerifier` mirrors that walk: the checker
/// pairs every overlay apply/undo with a [`DeltaVerifier::changed`]
/// notification in the overlay's own cell vocabulary, and the verifier
/// re-runs exactly the checks that cell feeds:
///
/// * a data or co-located-counter cell → that line's MAC check;
/// * a counter line → the MAC checks of the eight data lines it
///   covers, its level-1 parent link (strict/pipelined), and the epoch
///   summaries claiming it (phoenix);
/// * a MAC line → the MAC checks of its eight data lines;
/// * a tree node → its own child links plus its parent's link to it
///   (strict/pipelined), or its summary decode and claim (phoenix).
///
/// Check outcomes live in `BTreeMap`s keyed by the sorted positions
/// the eager pass sweeps, so the *first* failing check — the witness
/// [`verify_image`] reports — is the smallest key present; and
/// both paths call the same check functions (`mac_check`,
/// `tree_link_check`, `phoenix_node_check`), so verdict and blame
/// strings are bit-identical by construction. The differential
/// proptests in `crashmc` pin this across all six policies.
pub(crate) struct DeltaVerifier {
    spec: IntegritySpec,
    engine: EncryptionEngine,
    mac_engine: MacEngine,
    /// Failing MAC checks, keyed by line — ascending `LineAddr` is the
    /// eager sweep's visit order.
    mac_errors: BTreeMap<LineAddr, String>,
    /// Failing strict/pipelined link checks, keyed by (parent, slot) —
    /// `(level, index, slot)` ascending is the eager sweep's order.
    link_errors: BTreeMap<(TreeNodeAddr, usize), String>,
    /// Failing phoenix per-node checks (interior-node and stale-epoch).
    phoenix_errors: BTreeMap<TreeNodeAddr, String>,
    /// Decoded epoch summary per persisted summary node (phoenix).
    summaries: FxHashMap<TreeNodeAddr, (CounterLineAddr, u64, u64)>,
    /// Reverse index: which summary nodes claim each counter line.
    claims: FxHashMap<CounterLineAddr, Vec<TreeNodeAddr>>,
    /// Last-processed counter-line contents per counter cell. A
    /// counter rewrite slot-diffs against this so only the covered
    /// lines whose counter value actually changed re-run their MAC
    /// check (the per-slot value is the only counter input a line's
    /// MAC/decrypt consumes, so an unchanged slot cannot change the
    /// verdict). Lazily seeded: the first notification for a cell
    /// re-checks all eight covered lines.
    ctr_cache: FxHashMap<CounterLineAddr, CounterLine>,
    /// Last-processed MAC-line contents per MAC cell, slot-diffed like
    /// `ctr_cache`.
    mac_cache: FxHashMap<MacLineAddr, MacLine>,
    /// Last-processed digests per tree node (`None` = absent),
    /// slot-diffed by [`DeltaVerifier::recheck_node_slots`]. Sound
    /// because a link check with an unchanged parent digest can only
    /// flip when the *child* changes — and child changes re-run the
    /// parent's slot through their own notifications.
    tree_cache: FxHashMap<TreeNodeAddr, Option<DigestLine>>,
}

impl DeltaVerifier {
    /// Builds the verifier's state with one full pass over `img` — the
    /// walk's base image. Engines are cloned (their memoization tables
    /// are shared, so a warm engine stays warm).
    pub(crate) fn new(
        img: &NvmmImage,
        spec: IntegritySpec,
        engine: &EncryptionEngine,
        mac_engine: &MacEngine,
    ) -> Self {
        let mut v = Self {
            spec,
            engine: engine.clone(),
            mac_engine: mac_engine.clone(),
            mac_errors: BTreeMap::new(),
            link_errors: BTreeMap::new(),
            phoenix_errors: BTreeMap::new(),
            summaries: FxHashMap::default(),
            claims: FxHashMap::default(),
            ctr_cache: FxHashMap::default(),
            mac_cache: FxHashMap::default(),
            tree_cache: FxHashMap::default(),
        };
        if !spec.policy.enabled() {
            return v;
        }
        for line in img.data_line_addrs() {
            v.recheck_line(img, line);
        }
        for (node, _) in img.tree_nodes() {
            if spec.policy.persists_path_in_pair() {
                v.recheck_node_slots(img, node);
            } else if spec.policy.phoenix() {
                v.recheck_phoenix_node(img, node);
            }
        }
        v
    }

    /// Re-runs the checks a rewritten (or cleared) cell of `img` feeds.
    pub(crate) fn changed(&mut self, img: &NvmmImage, cell: CellKey) {
        if !self.spec.policy.enabled() {
            return;
        }
        match cell {
            // A co-located counter feeds its line's MAC check and
            // nothing else, like the data cell itself.
            CellKey::Data(line) | CellKey::Co(line) => self.recheck_line(img, line),
            CellKey::Ctr(cline) => {
                let cur = img.counter_line(cline);
                let old = self.ctr_cache.insert(cline, cur);
                // Only the per-slot counter value feeds a covered
                // line's decrypt + MAC check, so unchanged slots keep
                // their verdict.
                self.recheck_covered(img, cline.0, |slot| {
                    old.is_none_or(|o| o.get(slot) != cur.get(slot))
                });
                if self.spec.policy.persists_path_in_pair() {
                    let parent = parent_of(0, cline.0);
                    self.recheck_slot(img, parent, slot_in_parent(cline.0));
                }
                // Only phoenix records claims.
                for &node in self.claims.get(&cline).into_iter().flatten() {
                    let (claimed, claim, seq) = self.summaries[&node];
                    debug_assert_eq!(claimed, cline);
                    let outcome = phoenix_claim_check(img, claimed, claim, seq);
                    record(&mut self.phoenix_errors, node, outcome);
                }
            }
            CellKey::Mac(mline) => {
                let cur = img.mac_line(mline);
                let old = self.mac_cache.insert(mline, cur);
                // Only the per-slot persisted tag feeds a covered
                // line's MAC check.
                self.recheck_covered(img, mline.0, |slot| {
                    old.is_none_or(|o| o.get(slot) != cur.get(slot))
                });
            }
            CellKey::Tree(node) => {
                if self.spec.policy.persists_path_in_pair() {
                    self.recheck_node_slots(img, node);
                    if node.level != u32::MAX {
                        let parent = parent_of(node.level, node.index);
                        self.recheck_slot(img, parent, slot_in_parent(node.index));
                    }
                } else if self.spec.policy.phoenix() {
                    self.recheck_phoenix_node(img, node);
                }
            }
        }
    }

    /// The current image's [`verify_image`] verdict: the smallest
    /// failing key of the eager sweep's first failing phase. Link and
    /// phoenix outcomes are recorded only under the policies whose
    /// sweep runs those checks.
    pub(crate) fn verdict(&self) -> Result<(), String> {
        let first = self.mac_errors.values().next();
        let first = first.or_else(|| self.link_errors.values().next());
        match first.or_else(|| self.phoenix_errors.values().next()) {
            Some(err) => Err(err.clone()),
            None => Ok(()),
        }
    }

    /// Recomputes one line's MAC check and records the outcome.
    fn recheck_line(&mut self, img: &NvmmImage, line: LineAddr) {
        let outcome = mac_check(img, line, &self.engine, &self.mac_engine);
        record(&mut self.mac_errors, line, outcome);
    }

    /// Re-checks the data lines metadata line `index` covers whose slot
    /// `moved`. A line past `u64::MAX / 8` covers no addressable data
    /// line, so there is no MAC to re-check.
    fn recheck_covered(&mut self, img: &NvmmImage, index: u64, moved: impl Fn(usize) -> bool) {
        if let Some(base) = index.checked_mul(TREE_ARITY as u64) {
            for slot in (0..TREE_ARITY).filter(|&slot| moved(slot)) {
                self.recheck_line(img, LineAddr(base + slot as u64));
            }
        }
    }

    /// Recomputes every link check `node` is the parent of,
    /// slot-diffing against the last-processed digests: a slot whose
    /// digest did not change keeps its verdict (child-side changes
    /// re-run the slot through [`DeltaVerifier::recheck_slot`]).
    fn recheck_node_slots(&mut self, img: &NvmmImage, node: TreeNodeAddr) {
        let cur = img.tree_node(node);
        let old = self.tree_cache.insert(node, cur).flatten();
        for slot in 0..TREE_ARITY {
            if cur.is_none() || old.map(|o| o.get(slot)) != cur.map(|c| c.get(slot)) {
                self.recheck_slot(img, node, slot);
            }
        }
    }

    /// Recomputes the single link check `(node, slot)` — also the
    /// parent's view of one child that changed underneath it.
    fn recheck_slot(&mut self, img: &NvmmImage, node: TreeNodeAddr, slot: usize) {
        let outcome = img
            .tree_node(node)
            .map(|digests| digests.get(slot))
            .filter(|&digest| digest != 0)
            .and_then(|digest| tree_link_check(img, node, slot, digest));
        record(&mut self.link_errors, (node, slot), outcome);
    }

    /// Re-decodes one persisted node as a phoenix summary, refreshing
    /// the summary and claim indexes and the node's check outcome.
    fn recheck_phoenix_node(&mut self, img: &NvmmImage, node: TreeNodeAddr) {
        if let Some((old_cline, _, _)) = self.summaries.remove(&node) {
            if let Some(list) = self.claims.get_mut(&old_cline) {
                list.retain(|&n| n != node);
            }
        }
        let Some(digests) = img.tree_node(node) else {
            self.phoenix_errors.remove(&node);
            return;
        };
        if let Some((cline, claim, seq)) = decode_phoenix_summary(node, &digests) {
            self.summaries.insert(node, (cline, claim, seq));
            self.claims.entry(cline).or_default().push(node);
        }
        let outcome = phoenix_node_check(img, node, &digests);
        record(&mut self.phoenix_errors, node, outcome);
    }
}

/// Records one check's outcome under `key`: a failure replaces the
/// key's earlier one, a pass clears it.
fn record<K: Ord>(errors: &mut BTreeMap<K, String>, key: K, outcome: Option<String>) {
    match outcome {
        Some(err) => {
            errors.insert(key, err);
        }
        None => {
            errors.remove(&key);
        }
    }
}

/// Boot-time recovery cost of `spec`'s policy on `img`, in tree nodes
/// materialized before the system can serve verified reads:
///
/// * **phoenix** — the full interior set ([`reconstruct_tree`]): the
///   tree is never persisted, so recovery rebuilds all of it.
/// * **lazy** — the same rebuild: stale persisted interiors can't be
///   trusted after a crash.
/// * **strict/pipelined** — `0`: every persisted node verified against
///   its children already; the tree is usable as-is.
/// * **mac-only/colocated/none** — `0`: there is no tree.
pub fn recovery_cost(img: &NvmmImage, spec: IntegritySpec) -> u64 {
    if spec.policy.has_tree() && !spec.policy.persists_path_in_pair() {
        reconstruct_tree(img, spec.levels).len() as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm_crypto::counter::CounterLine;
    use nvmm_crypto::mac::Mac;
    use proptest::prelude::*;

    #[test]
    fn digest_is_deterministic_and_never_reserved() {
        let a = digest64(&[1, 2, 3]);
        assert_eq!(a, digest64(&[1, 2, 3]));
        assert_ne!(a, digest64(&[1, 2, 4]));
        assert_ne!(digest64(&[]), 0);
    }

    #[test]
    fn digest_line_roundtrip_and_reserved_zero() {
        let mut d = DigestLine::new();
        assert_eq!(d.set(2, 42), 0);
        assert_eq!(d.set(2, 43), 42);
        assert_eq!(d.get(2), 43);
        assert_eq!(d.iter().filter(|&(_, v)| v != 0).count(), 1);
        assert_eq!(&d.to_bytes()[16..24], &43u64.to_le_bytes());
    }

    #[test]
    fn tree_path_walks_to_the_root() {
        let path = tree_path(CounterLineAddr(0o1234), 4);
        assert_eq!(path.len(), 4);
        assert_eq!(
            path[0],
            TreeNodeAddr {
                level: 1,
                index: 0o123
            }
        );
        assert_eq!(
            path[1],
            TreeNodeAddr {
                level: 2,
                index: 0o12
            }
        );
        assert_eq!(path[3], TreeNodeAddr { level: 4, index: 0 });
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn tree_path_rejects_uncovered_lines() {
        tree_path(CounterLineAddr(1 << 20), 2);
    }

    #[test]
    fn update_tree_path_binds_leaf_to_root() {
        let cfg = SimConfig::single_core(crate::config::Design::Sca)
            .with_integrity(IntegrityPolicy::Strict);
        let mut st = IntegrityState::from_config(&cfg).expect("enabled");
        let mut cl = CounterLine::new();
        cl.set(3, Counter(7));
        let mut path = vec![(TreeNodeAddr { level: 9, index: 9 }, DigestLine::new())];
        st.update_tree_path(CounterLineAddr(5), &cl.to_bytes(), &mut path);
        let levels = cfg.tree_levels;
        assert_eq!(path.len(), levels as usize, "the buffer is refilled");
        let nodes: Vec<TreeNodeAddr> = path.iter().map(|(node, _)| *node).collect();
        assert_eq!(nodes, tree_path(CounterLineAddr(5), levels));
        assert_eq!(path[0].1.get(5), digest64(&cl.to_bytes()));
        // Each parent embeds the digest of the freshly updated child.
        for pair in path.windows(2) {
            let (child, parent) = (&pair[0], &pair[1]);
            assert_eq!(
                parent.1.get(slot_in_parent(child.0.index)),
                digest64(&child.1.to_bytes())
            );
        }
        assert_eq!(path.last().unwrap().0.index, 0, "path ends at the root");
    }

    #[test]
    fn record_mac_lands_in_the_right_slot() {
        let cfg = SimConfig::single_core(crate::config::Design::Sca)
            .with_integrity(IntegrityPolicy::MacOnly);
        let mut st = IntegrityState::from_config(&cfg).expect("enabled");
        let mline = st.record_mac(LineAddr(9), Counter(4), &[1; 64]);
        assert_eq!(mline, MacLineAddr(1));
        let snap = st.mac_snapshot(mline);
        assert!(!snap.get(1).is_unwritten());
        assert!(snap.get(0).is_unwritten());
    }

    #[test]
    fn touch_reports_hits_and_dirty_victims() {
        let mut cfg = SimConfig::single_core(crate::config::Design::Sca)
            .with_integrity(IntegrityPolicy::Lazy);
        cfg.metadata_cache.capacity_bytes = 128; // two lines total
        cfg.metadata_cache.ways = 1;
        let mut st = IntegrityState::from_config(&cfg).expect("enabled");
        let (v, hit) = st.touch(MetaKey::Mac(MacLineAddr(1)), true);
        assert!(v.is_none() && !hit);
        let (_, hit) = st.touch(MetaKey::Mac(MacLineAddr(1)), true);
        assert!(hit);
        assert!(st.is_dirty(MetaKey::Mac(MacLineAddr(1))));
        st.clean(MetaKey::Mac(MacLineAddr(1)));
        assert!(!st.is_dirty(MetaKey::Mac(MacLineAddr(1))));
    }

    #[test]
    fn disabled_when_config_says_none() {
        let cfg = SimConfig::single_core(crate::config::Design::Sca);
        assert!(IntegrityState::from_config(&cfg).is_none());
    }

    #[test]
    #[should_panic(expected = "separate-counter")]
    fn co_located_designs_rejected() {
        let cfg = SimConfig::single_core(crate::config::Design::CoLocated)
            .with_integrity(IntegrityPolicy::Strict);
        IntegrityState::from_config(&cfg);
    }

    /// From 22 levels a counter-line index shifts by 66 bits or more:
    /// a release build would mask the shift and walk the wrong nodes.
    #[test]
    #[should_panic(expected = "tree_levels 22 exceeds the maximum of 21")]
    fn trees_taller_than_21_levels_rejected() {
        let mut cfg = SimConfig::single_core(crate::config::Design::Sca)
            .with_integrity(IntegrityPolicy::Strict);
        cfg.tree_levels = MAX_TREE_LEVELS + 1;
        IntegrityState::from_config(&cfg);
    }

    #[test]
    #[should_panic(expected = "tree_levels 22 exceeds the maximum of 21")]
    fn specs_taller_than_21_levels_rejected() {
        let mut cfg = SimConfig::single_core(crate::config::Design::Sca)
            .with_integrity(IntegrityPolicy::Lazy);
        cfg.tree_levels = MAX_TREE_LEVELS + 1;
        IntegritySpec::from_config(&cfg);
    }

    #[test]
    fn a_21_level_tree_walks_every_level_to_the_root() {
        let mut cfg = SimConfig::single_core(crate::config::Design::Sca)
            .with_integrity(IntegrityPolicy::Strict);
        cfg.tree_levels = MAX_TREE_LEVELS;
        let mut st = IntegrityState::from_config(&cfg).expect("enabled");
        let mut path = Vec::new();
        st.update_tree_path(CounterLineAddr(0o1234), &[1; LINE_BYTES], &mut path);
        assert_eq!(path.len(), 21);
        assert_eq!(
            path[2].0,
            TreeNodeAddr {
                level: 3,
                index: 0o1
            }
        );
        assert!(path[3..].iter().all(|(node, _)| node.index == 0));
    }

    #[test]
    fn reconstruct_tree_matches_strict_path_updates() {
        let cfg = SimConfig::single_core(crate::config::Design::Sca)
            .with_integrity(IntegrityPolicy::Strict);
        let mut st = IntegrityState::from_config(&cfg).expect("enabled");
        let mut img = NvmmImage::new();
        let mut path = Vec::new();
        for i in 0..3u64 {
            let mut cl = CounterLine::new();
            cl.set(0, Counter(i + 1));
            img.write_counter_line(CounterLineAddr(i * 9), cl);
            st.update_tree_path(CounterLineAddr(i * 9), &cl.to_bytes(), &mut path);
        }
        let levels = cfg.tree_levels;
        let nodes = reconstruct_tree(&img, levels);
        assert_eq!(
            tree_root(&img, levels),
            st.tree_snapshot(TreeNodeAddr {
                level: levels,
                index: 0
            }),
            "a full rebuild from leaves must reproduce the strict root"
        );
        assert!(nodes.len() >= levels as usize);
    }

    /// Known answers for the tree fold on one counter image, recorded
    /// from the hash-map fold `reconstruct_tree` replaced: the root's
    /// digest and the node count at levels 0–3. Counter lines 0, 9 and
    /// 70 have level-1 parents 0, 1 and 8, so below three levels the top
    /// level holds several nodes and the root is the first of them, and
    /// a zero-level tree folds as one level. Nodes come sorted by
    /// `(level, index)` and, once the tree covers every line, end at the
    /// root.
    #[test]
    fn reconstruct_tree_known_answers() {
        let img = counter_image(&[(0, 0, 3), (9, 1, 2), (70, 2, 8)]);
        for (levels, root_digest, count) in [
            (0, 0x444e_f208_9d2e_23f0, 3),
            (1, 0x444e_f208_9d2e_23f0, 3),
            (2, 0xffa4_85f6_b296_6258, 5),
            (3, 0x81ff_87d7_d92e_862f, 6),
        ] {
            let nodes = reconstruct_tree(&img, levels);
            assert!(nodes.windows(2).all(|w| w[0].0 < w[1].0), "levels {levels}");
            let root = tree_root(&img, levels);
            assert_eq!(digest64(&root.to_bytes()), root_digest, "levels {levels}");
            assert_eq!(nodes.len(), count, "levels {levels}");
        }
        let last = reconstruct_tree(&img, 3).last().map(|&(node, _)| node);
        assert_eq!(last, Some(TreeNodeAddr { level: 3, index: 0 }));
        // Empty image: nothing to reconstruct, and an all-zero root.
        assert!(reconstruct_tree(&NvmmImage::new(), 3).is_empty());
        assert_eq!(tree_root(&NvmmImage::new(), 3), DigestLine::new());
    }

    #[test]
    fn phoenix_summary_roundtrips_and_stays_off_real_levels() {
        let mut cl = CounterLine::new();
        cl.set(1, Counter(5));
        cl.set(7, Counter(9));
        let (node, d) = phoenix_summary(CounterLineAddr(42), &cl, 3);
        assert_eq!(node.level, PHOENIX_SUMMARY_LEVEL);
        assert_eq!(node.index, 42);
        let (cline, claim, seq) = decode_phoenix_summary(node, &d).expect("summary level");
        assert_eq!(cline, CounterLineAddr(42));
        assert_eq!(claim, 14);
        assert_eq!(seq, 3);
        // Real interior nodes never decode as summaries.
        assert!(decode_phoenix_summary(
            TreeNodeAddr {
                level: 1,
                index: 42
            },
            &d
        )
        .is_none());
    }

    #[test]
    fn counter_line_sum_wraps_instead_of_panicking() {
        let mut cl = CounterLine::new();
        cl.set(0, Counter(u64::MAX));
        cl.set(1, Counter(2));
        assert_eq!(counter_line_sum(&cl), 1);
    }

    #[test]
    fn phoenix_epoch_counts_per_counter_line() {
        let mut cfg = SimConfig::single_core(crate::config::Design::Sca)
            .with_integrity(IntegrityPolicy::Phoenix);
        cfg.phoenix_epoch_every = 2;
        let mut st = IntegrityState::from_config(&cfg).expect("enabled");
        let a = CounterLineAddr(0);
        let b = CounterLineAddr(5);
        assert_eq!(st.phoenix_epoch(a), None);
        // Pairs to another line do not advance `a`'s epoch.
        assert_eq!(st.phoenix_epoch(b), None);
        assert_eq!(st.phoenix_epoch(a), Some(1));
        assert_eq!(st.phoenix_epoch(b), Some(1));
        assert_eq!(st.phoenix_epoch(a), None);
        assert_eq!(st.phoenix_epoch(a), Some(2));
    }

    /// [`verify_image`] with fresh engines for `key`.
    fn verify(img: &NvmmImage, spec: IntegritySpec, key: [u8; 16]) -> Result<(), String> {
        verify_image(img, spec, &EncryptionEngine::new(key), &MacEngine::new(key))
    }

    /// [`verify_image_attack`] with fresh engines for the all-zero key.
    fn attack(img: &NvmmImage, spec: IntegritySpec, fresh: &FreshnessRef) -> AttackVerdict {
        let (engine, mac_engine) = (EncryptionEngine::new([0; 16]), MacEngine::new([0; 16]));
        verify_image_attack(img, spec, &engine, &mac_engine, fresh)
    }

    #[test]
    fn verify_flags_stale_phoenix_epoch() {
        let spec = IntegritySpec {
            policy: IntegrityPolicy::Phoenix,
            levels: 4,
        };
        // Summary present, counter line missing entirely.
        let mut img = NvmmImage::new();
        let mut cl = CounterLine::new();
        cl.set(2, Counter(9));
        let (node, d) = phoenix_summary(CounterLineAddr(3), &cl, 1);
        img.write_tree_node(node, d);
        let err = verify(&img, spec, [0; 16]).expect_err("must flag");
        assert!(err.contains("stale epoch"), "{err}");
        // Counter line persisted but older than the claim.
        let mut stale = CounterLine::new();
        stale.set(2, Counter(4));
        img.write_counter_line(CounterLineAddr(3), stale);
        let err = verify(&img, spec, [0; 16]).expect_err("must flag");
        assert!(
            err.contains("stale epoch") && err.contains("ahead of"),
            "{err}"
        );
        // Counter line at (or past) the claim: the epoch is fresh.
        img.write_counter_line(CounterLineAddr(3), cl);
        assert!(verify(&img, spec, [0; 16]).is_ok());
        // Phoenix never writes real interior nodes; finding one is a bug.
        img.write_tree_node(TreeNodeAddr { level: 1, index: 0 }, DigestLine::new());
        let err = verify(&img, spec, [0; 16]).expect_err("must flag");
        assert!(err.contains("never writes the tree"), "{err}");
    }

    #[test]
    fn verify_accepts_empty_and_disabled_images() {
        let img = NvmmImage::new();
        let spec = IntegritySpec {
            policy: IntegrityPolicy::Strict,
            levels: 4,
        };
        assert!(verify(&img, spec, [0; 16]).is_ok());
        assert!(verify(&img, IntegritySpec::disabled(), [0; 16]).is_ok());
    }

    #[test]
    fn verify_flags_parent_without_child() {
        let mut img = NvmmImage::new();
        let mut parent = DigestLine::new();
        parent.set(2, 0x1234);
        img.write_tree_node(TreeNodeAddr { level: 1, index: 0 }, parent);
        let spec = IntegritySpec {
            policy: IntegrityPolicy::Strict,
            levels: 4,
        };
        let err = verify(&img, spec, [0; 16]).expect_err("must flag");
        assert!(err.contains("never persisted"), "{err}");
    }

    #[test]
    fn verify_flags_stale_child_digest() {
        let mut img = NvmmImage::new();
        let mut cl = CounterLine::new();
        cl.set(2, Counter(9));
        img.write_counter_line(CounterLineAddr(2), cl);
        let mut parent = DigestLine::new();
        parent.set(2, digest64(&CounterLine::new().to_bytes()));
        img.write_tree_node(TreeNodeAddr { level: 1, index: 0 }, parent);
        let spec = IntegritySpec {
            policy: IntegrityPolicy::Strict,
            levels: 4,
        };
        let err = verify(&img, spec, [0; 16]).expect_err("must flag");
        assert!(err.contains("ahead of child"), "{err}");
    }

    #[test]
    fn verify_flags_missing_mac_on_clean_line() {
        let key = [3u8; 16];
        let mut e = EncryptionEngine::new(key);
        let mut img = NvmmImage::new();
        let w = e.encrypt(5, &[7; 64]);
        img.write_encrypted(LineAddr(5), w.ciphertext, w.counter);
        let slot = LineAddr(5).counter_slot();
        let mut cl = CounterLine::new();
        cl.set(slot.slot, w.counter);
        img.write_counter_line(CounterLineAddr(slot.counter_line), cl);
        let spec = IntegritySpec {
            policy: IntegrityPolicy::MacOnly,
            levels: 0,
        };
        let err = verify(&img, spec, key).expect_err("no MAC persisted");
        assert!(err.contains("MAC mismatch"), "{err}");
        // Persist the matching MAC: the image verifies.
        let m = MacEngine::new(key).line_mac(5, w.counter, &[7; 64]);
        let ms = LineAddr(5).mac_slot();
        let mut ml = MacLine::new();
        ml.set(ms.slot, m);
        img.write_mac_line(MacLineAddr(ms.mac_line), ml);
        assert!(verify(&img, spec, key).is_ok());
    }

    #[test]
    fn verify_skips_garbled_lines() {
        // A garbled line (counter lost) is the crash oracle's concern,
        // not the MAC verifier's.
        let key = [3u8; 16];
        let mut e = EncryptionEngine::new(key);
        let mut img = NvmmImage::new();
        let w = e.encrypt(5, &[7; 64]);
        img.write_encrypted(LineAddr(5), w.ciphertext, w.counter);
        let spec = IntegritySpec {
            policy: IntegrityPolicy::MacOnly,
            levels: 0,
        };
        assert!(verify(&img, spec, key).is_ok());
    }

    /// A small counter-region image: `pairs` of (counter line, slot,
    /// counter value).
    fn counter_image(pairs: &[(u64, usize, u64)]) -> NvmmImage {
        let mut img = NvmmImage::new();
        let mut lines: FxHashMap<u64, CounterLine> = FxHashMap::default();
        for &(cline, slot, value) in pairs {
            lines.entry(cline).or_default().set(slot, Counter(value));
        }
        for (cline, cl) in lines {
            img.write_counter_line(CounterLineAddr(cline), cl);
        }
        img
    }

    #[test]
    fn honest_image_matches_its_own_freshness_ref() {
        let img = counter_image(&[(0, 0, 3), (5, 2, 7)]);
        for policy in IntegrityPolicy::ALL {
            let spec = IntegritySpec { policy, levels: 4 };
            let fresh = FreshnessRef::capture(&img, spec);
            assert_eq!(
                attack(&img, spec, &fresh),
                AttackVerdict::Undetected,
                "false positive under {policy}"
            );
        }
    }

    #[test]
    fn tree_policies_detect_counter_rollback_via_root_register() {
        let latest = counter_image(&[(0, 0, 3)]);
        let stale = counter_image(&[(0, 0, 2)]);
        for policy in [
            IntegrityPolicy::Lazy,
            IntegrityPolicy::Strict,
            IntegrityPolicy::Pipelined,
        ] {
            let spec = IntegritySpec { policy, levels: 4 };
            let fresh = FreshnessRef::capture(&latest, spec);
            let v = attack(&stale, spec, &fresh);
            assert!(v.detected(), "{policy} missed the rollback");
            assert!(v.blame().unwrap().contains("root"), "{v:?}");
        }
    }

    #[test]
    fn mac_only_has_no_freshness_anchor() {
        let latest = counter_image(&[(0, 0, 3)]);
        let stale = counter_image(&[(0, 0, 2)]);
        let spec = IntegritySpec {
            policy: IntegrityPolicy::MacOnly,
            levels: 0,
        };
        let fresh = FreshnessRef::capture(&latest, spec);
        assert_eq!(
            attack(&stale, spec, &fresh),
            AttackVerdict::Undetected,
            "a coherent stale image must sail past mac-only"
        );
    }

    #[test]
    fn phoenix_detects_epoch_sequence_regression() {
        let spec = IntegritySpec {
            policy: IntegrityPolicy::Phoenix,
            levels: 4,
        };
        let mut cl = CounterLine::new();
        cl.set(0, Counter(4));
        let mut latest = NvmmImage::new();
        latest.write_counter_line(CounterLineAddr(0), cl);
        let (node, d) = phoenix_summary(CounterLineAddr(0), &cl, 2);
        latest.write_tree_node(node, d);
        let fresh = FreshnessRef::capture(&latest, spec);
        // The stale image is internally consistent (its summary #1
        // claims a sum its counters reach) — only the register's
        // sequence number exposes the replay.
        let mut old = CounterLine::new();
        old.set(0, Counter(2));
        let mut stale = NvmmImage::new();
        stale.write_counter_line(CounterLineAddr(0), old);
        let (node, d) = phoenix_summary(CounterLineAddr(0), &old, 1);
        stale.write_tree_node(node, d);
        assert!(verify(&stale, spec, [0; 16]).is_ok());
        let v = attack(&stale, spec, &fresh);
        assert!(v.detected());
        assert!(v.blame().unwrap().contains("epoch regression"), "{v:?}");
    }

    #[test]
    fn colocated_detects_rollback_via_counter_sum_register() {
        let latest = counter_image(&[(0, 0, 3), (1, 4, 6)]);
        let stale = counter_image(&[(0, 0, 3), (1, 4, 5)]);
        let spec = IntegritySpec {
            policy: IntegrityPolicy::Colocated,
            levels: 0,
        };
        let fresh = FreshnessRef::capture(&latest, spec);
        let v = attack(&stale, spec, &fresh);
        assert!(v.detected());
        assert!(v.blame().unwrap().contains("counter rollback"), "{v:?}");
    }

    /// A forged image drawn from `seed`: random data, counter and MAC
    /// cells, plus tree nodes at levels and indices an attacker can
    /// write but no honest run persists — level 0, the phoenix summary
    /// level and its neighbour, and indices whose children overflow.
    fn forged_image(seed: u64) -> NvmmImage {
        const LEVELS: [u32; 7] = [0, 1, 2, 3, 21, u32::MAX - 1, u32::MAX];
        const NEAR: [u64; 3] = [0, u64::MAX / 8, u64::MAX];
        let mut state = seed;
        let mut rng = move || crate::crashmc::splitmix64(&mut state);
        let mut img = NvmmImage::new();
        for _ in 0..rng() % 6 {
            let line = LineAddr(rng() % 16);
            img.write_encrypted(line, [rng() as u8; LINE_BYTES], Counter(rng() % 4));
        }
        for _ in 0..rng() % 4 {
            let mut counters = CounterLine::new();
            counters.set((rng() % 8) as usize, Counter(rng() % 4));
            let near = NEAR[(rng() % 3) as usize];
            img.write_counter_line(CounterLineAddr(near ^ (rng() % 2)), counters);
        }
        for _ in 0..rng() % 3 {
            let mut macs = MacLine::new();
            macs.set((rng() % 8) as usize, Mac(rng()));
            img.write_mac_line(MacLineAddr(rng() % 2), macs);
        }
        for _ in 0..1 + rng() % 4 {
            let near = NEAR[(rng() % 3) as usize];
            let node = TreeNodeAddr {
                level: LEVELS[(rng() % 7) as usize],
                index: near.wrapping_add(rng() % 3).wrapping_sub(1),
            };
            let mut digests = DigestLine::new();
            for slot in 0..TREE_ARITY {
                if rng() % 2 == 0 {
                    digests.set(slot, rng());
                }
            }
            img.write_tree_node(node, digests);
        }
        img
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Every oracle returns a verdict on a forged image under every
        /// policy — none panics on a node that names no child — and the
        /// delta verifier's base pass agrees with the full pass.
        fn forged_images_get_a_verdict_under_every_policy(
            seed in 0u64..1_000_000,
            levels in 0u32..5,
        ) {
            let img = forged_image(seed);
            let (engine, mac_engine) = (EncryptionEngine::new([0; 16]), MacEngine::new([0; 16]));
            let honest = counter_image(&[(0, 0, 3)]);
            for policy in IntegrityPolicy::ALL {
                let spec = IntegritySpec { policy, levels };
                let full = verify_image(&img, spec, &engine, &mac_engine);
                let delta = DeltaVerifier::new(&img, spec, &engine, &mac_engine).verdict();
                prop_assert_eq!(delta, full, "seed {} under {}", seed, policy);
                for anchor in [&img, &honest] {
                    let fresh = FreshnessRef::capture(anchor, spec);
                    verify_image_attack(&img, spec, &engine, &mac_engine, &fresh);
                }
            }
        }
    }

    #[test]
    fn recovery_cost_prices_phoenix_and_lazy_rebuilds() {
        let img = counter_image(&[(0, 0, 3), (9, 1, 2), (70, 2, 8)]);
        let at = |policy| recovery_cost(&img, IntegritySpec { policy, levels: 4 });
        let phoenix = at(IntegrityPolicy::Phoenix);
        let lazy = at(IntegrityPolicy::Lazy);
        assert_eq!(phoenix, reconstruct_tree(&img, 4).len() as u64);
        assert_eq!(phoenix, lazy, "same interior set, different trust model");
        assert!(phoenix > 0);
        for free in [
            IntegrityPolicy::Strict,
            IntegrityPolicy::Pipelined,
            IntegrityPolicy::MacOnly,
            IntegrityPolicy::Colocated,
            IntegrityPolicy::None,
        ] {
            assert_eq!(at(free), 0, "{free} pays no rebuild at boot");
        }
    }
}
