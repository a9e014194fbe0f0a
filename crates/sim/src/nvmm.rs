//! The persistent NVMM image: ciphertext data lines plus the counter
//! region. This is the *only* state that survives a crash (together with
//! whatever ADR drains from the write queues).
//!
//! Alongside the architectural state, the image keeps a ground-truth
//! record of which counter each resident ciphertext was encrypted with.
//! Recovery uses it to *detect* the paper's Eq. 4 failure — a counter
//! mismatch — exactly; the garbled bytes handed to the recovery procedure
//! are still produced by genuinely decrypting with the (wrong) persisted
//! counter.

use crate::addr::{CounterLineAddr, LineAddr, MacLineAddr, TreeNodeAddr};
use crate::crashmc::CellKey;
use crate::integrity::DigestLine;
use fxhash::FxHashMap;
use nvmm_crypto::counter::CounterLine;
use nvmm_crypto::engine::EncryptionEngine;
use nvmm_crypto::mac::{Mac, MacLine};
use nvmm_crypto::{Counter, LineData};

/// Outcome of decrypting one line from the post-crash image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineRead {
    /// The persisted counter matches the counter the ciphertext was
    /// encrypted with; `0` is the correctly decrypted plaintext.
    Clean(LineData),
    /// Counter/data version mismatch (paper Eq. 4). The payload is the
    /// garbage produced by decrypting with the stale counter — this is
    /// what a real system would observe.
    Garbled(LineData),
    /// The line was never written; fresh NVMM reads as zeros.
    Unwritten,
}

impl LineRead {
    /// The bytes a real system would observe, regardless of cleanliness.
    pub fn bytes(&self) -> LineData {
        match self {
            LineRead::Clean(d) | LineRead::Garbled(d) => *d,
            LineRead::Unwritten => [0; 64],
        }
    }

    /// Whether decryption used a matching counter (or the line is fresh).
    pub fn is_clean(&self) -> bool {
        !matches!(self, LineRead::Garbled(_))
    }
}

/// A data line as stored in NVMM: ciphertext (or plaintext when the
/// design is unencrypted / the line predates encryption) plus the
/// ground-truth counter used at encryption time.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
struct StoredLine {
    bytes: LineData,
    /// Counter the ciphertext was produced with; `Counter::ZERO` means
    /// `bytes` is plaintext (no-encryption design).
    encrypted_with: Counter,
}

/// FNV-1a-128 over a sequence of byte slices — the per-entry hash the
/// incremental fingerprint folds over.
fn fnv128(parts: &[&[u8]]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for part in parts {
        for &b in *part {
            h = (h ^ b as u128).wrapping_mul(PRIME);
        }
    }
    h
}

fn hash_data_entry(line: LineAddr, s: &StoredLine) -> u128 {
    fnv128(&[
        b"d",
        &line.0.to_le_bytes(),
        &s.bytes,
        &s.encrypted_with.to_bytes(),
    ])
}

fn hash_counter_entry(addr: CounterLineAddr, cl: &CounterLine) -> u128 {
    fnv128(&[b"c", &addr.0.to_le_bytes(), &cl.to_bytes()])
}

fn hash_co_entry(line: LineAddr, ctr: Counter) -> u128 {
    fnv128(&[b"o", &line.0.to_le_bytes(), &ctr.to_bytes()])
}

fn hash_mac_entry(addr: MacLineAddr, ml: &MacLine) -> u128 {
    fnv128(&[b"m", &addr.0.to_le_bytes(), &ml.to_bytes()])
}

fn hash_tree_entry(addr: TreeNodeAddr, node: &DigestLine) -> u128 {
    fnv128(&[
        b"t",
        &u64::from(addr.level).to_le_bytes(),
        &addr.index.to_le_bytes(),
        &node.to_bytes(),
    ])
}

/// The NVMM image: data region, counter region, (for co-located
/// designs) per-line co-located counters, and (for integrity-enabled
/// configurations) the MAC region and the persisted integrity-tree
/// nodes.
///
/// A running [`NvmmImage::fingerprint`] is maintained incrementally: a
/// commutative `wrapping_add` fold of each resident entry's FNV-1a-128
/// hash, adjusted on every write and removal. This makes fingerprinting
/// O(1) and makes the cost of dedupe in the crash model checker
/// proportional to the entries *changed* between candidate images, not
/// the image size. Images the crate builds in bulk — by folding a
/// journal, where most cells are written several times — start
/// untracked and are sealed once complete, so each resident entry is
/// hashed once instead of on every write.
///
/// Tests compare whole images with `==` (every region's contents and
/// [`NvmmImage::fingerprint`]); the simulator compares fingerprints.
#[derive(Debug, Clone, Default)]
pub struct NvmmImage {
    data: FxHashMap<LineAddr, StoredLine>,
    counters: FxHashMap<CounterLineAddr, CounterLine>,
    /// Counters stored inside the widened 72-byte line (co-located
    /// designs). Persisted atomically with the data by construction.
    co_located: FxHashMap<LineAddr, Counter>,
    /// Per-line MAC region (integrity-enabled configurations).
    macs: FxHashMap<MacLineAddr, MacLine>,
    /// Persisted integrity-tree nodes (internal levels; the counter
    /// region itself is the leaf level).
    tree: FxHashMap<TreeNodeAddr, DigestLine>,
    /// Incremental fingerprint: commutative fold of per-entry hashes.
    /// Stale while `untracked`.
    fp: u128,
    /// Whether writes and removals skip the fingerprint upkeep until
    /// [`NvmmImage::seal`].
    untracked: bool,
}

/// Contents and fingerprint, whether either side is tracked or not.
#[cfg(test)]
impl PartialEq for NvmmImage {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
            && self.counters == other.counters
            && self.co_located == other.co_located
            && self.macs == other.macs
            && self.tree == other.tree
            && self.fingerprint() == other.fingerprint()
    }
}

impl NvmmImage {
    /// Fresh, all-unwritten NVMM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh NVMM whose writes skip the fingerprint upkeep: for images
    /// built in bulk, which [`NvmmImage::seal`] fingerprints once done.
    pub(crate) fn untracked() -> Self {
        Self {
            untracked: true,
            ..Self::default()
        }
    }

    /// Fingerprints an untracked image from scratch — one hash per
    /// resident entry — and tracks every later write and removal, so
    /// [`NvmmImage::fingerprint`] answers in O(1) again. A no-op on a
    /// tracked image.
    pub(crate) fn seal(&mut self) {
        if self.untracked {
            self.fp = self.fingerprint_recompute();
            self.untracked = false;
        }
    }

    /// Moves one entry's contribution to the running fingerprint: the
    /// `old` value's hash leaves the fold if it was resident, and the
    /// `new` value's joins it unless the entry was removed. Nothing is
    /// hashed while the image is untracked.
    fn refold<V>(&mut self, hash: impl Fn(&V) -> u128, old: Option<&V>, new: Option<&V>) {
        if self.untracked {
            return;
        }
        if let Some(old) = old {
            self.fp = self.fp.wrapping_sub(hash(old));
        }
        if let Some(new) = new {
            self.fp = self.fp.wrapping_add(hash(new));
        }
    }

    fn set_data(&mut self, line: LineAddr, stored: StoredLine) {
        let old = self.data.insert(line, stored);
        self.refold(|s| hash_data_entry(line, s), old.as_ref(), Some(&stored));
    }

    /// Persists a data line written by an unencrypted design.
    pub fn write_plain(&mut self, line: LineAddr, bytes: LineData) {
        self.set_data(
            line,
            StoredLine {
                bytes,
                encrypted_with: Counter::ZERO,
            },
        );
    }

    /// Persists an encrypted data line (separate-counter designs). The
    /// counter region is *not* touched — that is a separate write.
    pub fn write_encrypted(&mut self, line: LineAddr, ciphertext: LineData, counter: Counter) {
        self.set_data(
            line,
            StoredLine {
                bytes: ciphertext,
                encrypted_with: counter,
            },
        );
    }

    /// Persists an encrypted 72-byte line (co-located designs): data and
    /// counter land atomically.
    pub fn write_co_located(&mut self, line: LineAddr, ciphertext: LineData, counter: Counter) {
        self.set_data(
            line,
            StoredLine {
                bytes: ciphertext,
                encrypted_with: counter,
            },
        );
        self.write_co_located_counter(line, counter);
    }

    /// Persists only the counter half of a co-located line — the cell
    /// granularity the enumeration overlay applies/undoes at.
    pub(crate) fn write_co_located_counter(&mut self, line: LineAddr, counter: Counter) {
        let old = self.co_located.insert(line, counter);
        self.refold(|c| hash_co_entry(line, *c), old.as_ref(), Some(&counter));
    }

    /// Removes a resident data line, restoring the unwritten state. Used
    /// by the enumeration overlay when undoing an in-flight write that
    /// has no earlier writer beneath it.
    pub(crate) fn remove_data(&mut self, line: LineAddr) {
        let old = self.data.remove(&line);
        self.refold(|s| hash_data_entry(line, s), old.as_ref(), None);
    }

    /// Removes a co-located counter (overlay undo).
    pub(crate) fn remove_co_located_counter(&mut self, line: LineAddr) {
        let old = self.co_located.remove(&line);
        self.refold(|c| hash_co_entry(line, *c), old.as_ref(), None);
    }

    /// Removes a counter-region line (overlay undo).
    pub(crate) fn remove_counter_line(&mut self, line: CounterLineAddr) {
        let old = self.counters.remove(&line);
        self.refold(|cl| hash_counter_entry(line, cl), old.as_ref(), None);
    }

    /// Removes a MAC-region line (overlay undo).
    pub(crate) fn remove_mac_line(&mut self, line: MacLineAddr) {
        let old = self.macs.remove(&line);
        self.refold(|ml| hash_mac_entry(line, ml), old.as_ref(), None);
    }

    /// Removes a persisted integrity-tree node (overlay undo).
    pub(crate) fn remove_tree_node(&mut self, node: TreeNodeAddr) {
        let old = self.tree.remove(&node);
        self.refold(|d| hash_tree_entry(node, d), old.as_ref(), None);
    }

    /// Sets `cell` to its value in `from`, or removes it where `from`
    /// never wrote it — how the enumeration overlay restores a cell to
    /// its guaranteed base value.
    pub(crate) fn copy_cell(&mut self, from: &NvmmImage, cell: CellKey) {
        match cell {
            CellKey::Data(l) => match from.data.get(&l) {
                Some(&stored) => self.set_data(l, stored),
                None => self.remove_data(l),
            },
            CellKey::Co(l) => match from.co_located.get(&l) {
                Some(&ctr) => self.write_co_located_counter(l, ctr),
                None => self.remove_co_located_counter(l),
            },
            CellKey::Ctr(c) => match from.counters.get(&c) {
                Some(&cl) => self.write_counter_line(c, cl),
                None => self.remove_counter_line(c),
            },
            CellKey::Mac(m) => match from.macs.get(&m) {
                Some(&ml) => self.write_mac_line(m, ml),
                None => self.remove_mac_line(m),
            },
            CellKey::Tree(t) => match from.tree.get(&t) {
                Some(&node) => self.write_tree_node(t, node),
                None => self.remove_tree_node(t),
            },
        }
    }

    /// Persists a full counter line into the counter region.
    pub fn write_counter_line(&mut self, line: CounterLineAddr, counters: CounterLine) {
        let old = self.counters.insert(line, counters);
        self.refold(
            |cl| hash_counter_entry(line, cl),
            old.as_ref(),
            Some(&counters),
        );
    }

    /// The counter region's current counter line (all-zero if never
    /// written).
    pub fn counter_line(&self, line: CounterLineAddr) -> CounterLine {
        self.counters.get(&line).copied().unwrap_or_default()
    }

    /// Whether the counter region holds a persisted line at `line`.
    pub fn counter_line_present(&self, line: CounterLineAddr) -> bool {
        self.counters.contains_key(&line)
    }

    /// Iterates over persisted counter lines.
    pub fn counter_lines(&self) -> impl Iterator<Item = (CounterLineAddr, CounterLine)> + '_ {
        self.counters.iter().map(|(a, c)| (*a, *c))
    }

    /// Persists a full MAC line into the MAC region.
    pub fn write_mac_line(&mut self, line: MacLineAddr, macs: MacLine) {
        let old = self.macs.insert(line, macs);
        self.refold(|ml| hash_mac_entry(line, ml), old.as_ref(), Some(&macs));
    }

    /// The MAC region's current MAC line (all-unwritten if never
    /// written).
    pub fn mac_line(&self, line: MacLineAddr) -> MacLine {
        self.macs.get(&line).copied().unwrap_or_default()
    }

    /// The persisted MAC slot for `line` ([`Mac::ZERO`] if never
    /// written).
    pub fn persisted_mac(&self, line: LineAddr) -> Mac {
        let slot = line.mac_slot();
        self.mac_line(MacLineAddr(slot.mac_line)).get(slot.slot)
    }

    /// Persists an integrity-tree node.
    pub fn write_tree_node(&mut self, node: TreeNodeAddr, digests: DigestLine) {
        let old = self.tree.insert(node, digests);
        self.refold(|d| hash_tree_entry(node, d), old.as_ref(), Some(&digests));
    }

    /// The persisted integrity-tree node at `node`, if any.
    pub fn tree_node(&self, node: TreeNodeAddr) -> Option<DigestLine> {
        self.tree.get(&node).copied()
    }

    /// Iterates over persisted integrity-tree nodes.
    pub fn tree_nodes(&self) -> impl Iterator<Item = (TreeNodeAddr, DigestLine)> + '_ {
        self.tree.iter().map(|(a, d)| (*a, *d))
    }

    /// The counter the *architecture* would use to decrypt `line`:
    /// the co-located counter if present, else the counter-region slot.
    pub fn persisted_counter(&self, line: LineAddr) -> Counter {
        if let Some(c) = self.co_located.get(&line) {
            return *c;
        }
        let slot = line.counter_slot();
        self.counter_line(CounterLineAddr(slot.counter_line))
            .get(slot.slot)
    }

    /// Raw stored bytes of a data line, if present (ciphertext for
    /// encrypted designs). Used by the read path for fills.
    pub fn raw_data(&self, line: LineAddr) -> Option<LineData> {
        self.data.get(&line).map(|s| s.bytes)
    }

    /// Ground truth: the counter `line`'s resident ciphertext was
    /// encrypted with (`Counter::ZERO` for plaintext/unwritten).
    pub fn encryption_counter(&self, line: LineAddr) -> Counter {
        self.data
            .get(&line)
            .map(|s| s.encrypted_with)
            .unwrap_or(Counter::ZERO)
    }

    /// Decrypts `line` the way post-crash recovery hardware would: with
    /// the *persisted* counter. Reports whether the result is clean.
    pub fn read_line(&self, line: LineAddr, engine: &EncryptionEngine) -> LineRead {
        let Some(stored) = self.data.get(&line) else {
            // Data never persisted. If a counter was persisted for this
            // line, the architecture would decrypt fresh (zero) memory
            // with it and observe garbage — Fig. 3(b).
            let persisted = self.persisted_counter(line);
            if persisted.is_unwritten() {
                return LineRead::Unwritten;
            }
            return LineRead::Garbled(engine.decrypt(line.0, &[0; 64], persisted));
        };
        if stored.encrypted_with.is_unwritten() {
            // Plaintext line (no-encryption design).
            return LineRead::Clean(stored.bytes);
        }
        let persisted = self.persisted_counter(line);
        let plain = engine.decrypt(line.0, &stored.bytes, persisted);
        if persisted == stored.encrypted_with {
            LineRead::Clean(plain)
        } else {
            LineRead::Garbled(plain)
        }
    }

    /// Decrypts `line` like [`NvmmImage::read_line`], but when the
    /// persisted counter mismatches, searches up to `window` candidate
    /// counters above it — the Osiris-style stop-loss recovery, with the
    /// image's ground-truth encryption counter standing in for the ECC
    /// check real hardware uses to recognize a correct decryption.
    ///
    /// Returns the read plus whether a candidate search was needed.
    pub fn read_line_with_window(
        &self,
        line: LineAddr,
        engine: &EncryptionEngine,
        window: u64,
    ) -> (LineRead, bool) {
        let first = self.read_line(line, engine);
        if first.is_clean() {
            return (first, false);
        }
        let actual = self.encryption_counter(line);
        let persisted = self.persisted_counter(line);
        if actual.0 > persisted.0 && actual.0 - persisted.0 <= window {
            // The ECC oracle accepts exactly the true counter; decrypt
            // with it.
            if let Some(stored) = self.data.get(&line) {
                let plain = engine.decrypt(line.0, &stored.bytes, actual);
                return (LineRead::Clean(plain), true);
            }
        }
        (first, true)
    }

    /// Number of resident data lines.
    pub fn data_lines(&self) -> usize {
        self.data.len()
    }

    /// A 128-bit digest of the image's line-level content: every
    /// resident data line (bytes + ground-truth counter), counter line,
    /// co-located counter, MAC line, and integrity-tree node. Two images
    /// with the same fingerprint persist the same architectural state;
    /// the crash model checker uses this to collapse mask assignments
    /// that materialize identical images.
    ///
    /// The digest is an order-independent `wrapping_add` fold of
    /// per-entry FNV-1a-128 hashes. A tracked image maintains it on
    /// every write and removal, so this call is O(1). The crate builds
    /// completion and crash images by folding journals into untracked
    /// images and seals each once, with one hash per resident entry,
    /// before handing it out — so every image a caller receives answers
    /// in O(1) too. An image still untracked (only the crate's own
    /// compaction base) is recomputed from scratch here.
    pub fn fingerprint(&self) -> u128 {
        if self.untracked {
            self.fingerprint_recompute()
        } else {
            self.fp
        }
    }

    /// Recomputes [`NvmmImage::fingerprint`] from scratch by walking
    /// every resident entry. Always equals `fingerprint()`; it seals
    /// untracked images, and is the eager reference the differential
    /// tests and the `fig_mc_perf` self-check compare the incremental
    /// fold against.
    pub fn fingerprint_recompute(&self) -> u128 {
        let mut h: u128 = 0;
        for (addr, stored) in &self.data {
            h = h.wrapping_add(hash_data_entry(*addr, stored));
        }
        for (addr, cl) in &self.counters {
            h = h.wrapping_add(hash_counter_entry(*addr, cl));
        }
        for (addr, ctr) in &self.co_located {
            h = h.wrapping_add(hash_co_entry(*addr, *ctr));
        }
        for (addr, ml) in &self.macs {
            h = h.wrapping_add(hash_mac_entry(*addr, ml));
        }
        for (addr, node) in &self.tree {
            h = h.wrapping_add(hash_tree_entry(*addr, node));
        }
        h
    }

    /// Iterates over resident data line addresses.
    pub fn data_line_addrs(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.data.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm_crypto::counter::CounterLine;
    use proptest::prelude::*;

    fn engine() -> EncryptionEngine {
        EncryptionEngine::new([9; 16])
    }

    #[test]
    fn unwritten_reads_as_unwritten() {
        let img = NvmmImage::new();
        let r = img.read_line(LineAddr(5), &engine());
        assert_eq!(r, LineRead::Unwritten);
        assert!(r.is_clean());
        assert_eq!(r.bytes(), [0; 64]);
    }

    #[test]
    fn plain_write_reads_clean() {
        let mut img = NvmmImage::new();
        img.write_plain(LineAddr(1), [7; 64]);
        assert_eq!(
            img.read_line(LineAddr(1), &engine()),
            LineRead::Clean([7; 64])
        );
    }

    #[test]
    fn matched_counter_decrypts_clean() {
        let mut e = engine();
        let mut img = NvmmImage::new();
        let plain = [0x42u8; 64];
        let w = e.encrypt(3, &plain);
        img.write_encrypted(LineAddr(3), w.ciphertext, w.counter);
        let slot = LineAddr(3).counter_slot();
        let mut cl = CounterLine::new();
        cl.set(slot.slot, w.counter);
        img.write_counter_line(CounterLineAddr(slot.counter_line), cl);
        assert_eq!(img.read_line(LineAddr(3), &e), LineRead::Clean(plain));
    }

    #[test]
    fn stale_counter_reads_garbled() {
        // Fig. 3(a): data persisted, counter write lost.
        let mut e = engine();
        let mut img = NvmmImage::new();
        let plain = [0x42u8; 64];
        let old = e.encrypt(3, &plain);
        let slot = LineAddr(3).counter_slot();
        let mut cl = CounterLine::new();
        cl.set(slot.slot, old.counter);
        img.write_counter_line(CounterLineAddr(slot.counter_line), cl);
        // Re-encrypt with a newer counter; only the data write persists.
        let new = e.encrypt(3, &plain);
        img.write_encrypted(LineAddr(3), new.ciphertext, new.counter);
        let r = img.read_line(LineAddr(3), &e);
        assert!(!r.is_clean());
        assert_ne!(r.bytes(), plain, "stale counter must garble plaintext");
    }

    #[test]
    fn counter_without_data_is_garbled() {
        // Fig. 3(b): counter persisted, data write lost.
        let e = engine();
        let mut img = NvmmImage::new();
        let slot = LineAddr(9).counter_slot();
        let mut cl = CounterLine::new();
        cl.set(slot.slot, Counter(77));
        img.write_counter_line(CounterLineAddr(slot.counter_line), cl);
        assert!(!img.read_line(LineAddr(9), &e).is_clean());
    }

    #[test]
    fn co_located_always_clean() {
        let mut e = engine();
        let mut img = NvmmImage::new();
        let plain = [0x11u8; 64];
        let w = e.encrypt(4, &plain);
        img.write_co_located(LineAddr(4), w.ciphertext, w.counter);
        // No counter-region write needed: the counter rode with the line.
        assert_eq!(img.read_line(LineAddr(4), &e), LineRead::Clean(plain));
    }

    #[test]
    fn persisted_counter_prefers_co_located() {
        let mut img = NvmmImage::new();
        img.write_co_located(LineAddr(4), [0; 64], Counter(5));
        let slot = LineAddr(4).counter_slot();
        let mut cl = CounterLine::new();
        cl.set(slot.slot, Counter(99));
        img.write_counter_line(CounterLineAddr(slot.counter_line), cl);
        assert_eq!(img.persisted_counter(LineAddr(4)), Counter(5));
    }

    #[test]
    fn overwrite_takes_latest() {
        let mut e = engine();
        let mut img = NvmmImage::new();
        let w1 = e.encrypt(2, &[1; 64]);
        let w2 = e.encrypt(2, &[2; 64]);
        img.write_encrypted(LineAddr(2), w1.ciphertext, w1.counter);
        img.write_encrypted(LineAddr(2), w2.ciphertext, w2.counter);
        assert_eq!(img.encryption_counter(LineAddr(2)), w2.counter);
    }

    #[test]
    fn mac_region_roundtrip() {
        let mut img = NvmmImage::new();
        assert!(img.persisted_mac(LineAddr(17)).is_unwritten());
        let slot = LineAddr(17).mac_slot();
        let mut ml = MacLine::new();
        ml.set(slot.slot, Mac(0xfeed));
        img.write_mac_line(MacLineAddr(slot.mac_line), ml);
        assert_eq!(img.persisted_mac(LineAddr(17)), Mac(0xfeed));
        // Neighbouring slots in the same MAC line stay unwritten.
        assert!(img.persisted_mac(LineAddr(16)).is_unwritten());
    }

    #[test]
    fn tree_region_roundtrip() {
        let mut img = NvmmImage::new();
        let node = TreeNodeAddr { level: 2, index: 5 };
        assert!(img.tree_node(node).is_none());
        let mut d = DigestLine::new();
        d.set(3, 0xabcd);
        img.write_tree_node(node, d);
        assert_eq!(img.tree_node(node), Some(d));
        assert_eq!(img.tree_nodes().count(), 1);
    }

    #[test]
    fn incremental_fingerprint_matches_recompute() {
        let mut e = engine();
        let mut img = NvmmImage::new();
        assert_eq!(img.fingerprint(), img.fingerprint_recompute());
        // Writes across every region, including overwrites.
        let w1 = e.encrypt(2, &[1; 64]);
        let w2 = e.encrypt(2, &[2; 64]);
        img.write_encrypted(LineAddr(2), w1.ciphertext, w1.counter);
        img.write_encrypted(LineAddr(2), w2.ciphertext, w2.counter);
        img.write_plain(LineAddr(7), [3; 64]);
        let w3 = e.encrypt(4, &[4; 64]);
        img.write_co_located(LineAddr(4), w3.ciphertext, w3.counter);
        let mut cl = CounterLine::new();
        cl.set(1, Counter(9));
        img.write_counter_line(CounterLineAddr(0), cl);
        cl.set(2, Counter(10));
        img.write_counter_line(CounterLineAddr(0), cl);
        let mut ml = MacLine::new();
        ml.set(0, Mac(5));
        img.write_mac_line(MacLineAddr(3), ml);
        let mut d = DigestLine::new();
        d.set(0, 11);
        img.write_tree_node(TreeNodeAddr { level: 1, index: 0 }, d);
        assert_eq!(img.fingerprint(), img.fingerprint_recompute());
        // Removals restore the pre-write fold exactly.
        let before = img.fingerprint();
        img.write_encrypted(LineAddr(50), w1.ciphertext, w1.counter);
        img.remove_data(LineAddr(50));
        assert_eq!(img.fingerprint(), before);
        img.remove_co_located_counter(LineAddr(4));
        img.remove_counter_line(CounterLineAddr(0));
        img.remove_mac_line(MacLineAddr(3));
        img.remove_tree_node(TreeNodeAddr { level: 1, index: 0 });
        assert_eq!(img.fingerprint(), img.fingerprint_recompute());
        // Removing an absent entry is a no-op.
        img.remove_data(LineAddr(999));
        assert_eq!(img.fingerprint(), img.fingerprint_recompute());
    }

    #[test]
    fn fingerprint_known_answer() {
        // Pinned fold over one entry of every region: fingerprints feed
        // the model checker's dedupe and the committed digests, so the
        // entry hashes and their sum must not move.
        let mut img = NvmmImage::new();
        img.write_encrypted(LineAddr(3), [0x42; 64], Counter(5));
        img.write_plain(LineAddr(8), [9; 64]);
        img.write_co_located(LineAddr(4), [0x11; 64], Counter(6));
        let mut cl = CounterLine::new();
        cl.set(3, Counter(5));
        img.write_counter_line(CounterLineAddr(0), cl);
        let mut ml = MacLine::new();
        ml.set(3, Mac(0xfeed));
        img.write_mac_line(MacLineAddr(0), ml);
        let mut d = DigestLine::new();
        d.set(1, 0xabcd);
        img.write_tree_node(TreeNodeAddr { level: 1, index: 0 }, d);
        assert_eq!(img.fingerprint(), 0x5c0e_6375_1bf2_a0cc_8673_4aff_6bdf_e181);
        assert_eq!(img.fingerprint_recompute(), img.fingerprint());
    }

    #[test]
    fn fingerprint_covers_integrity_metadata() {
        let mut img = NvmmImage::new();
        let base = img.fingerprint();
        let mut ml = MacLine::new();
        ml.set(0, Mac(1));
        img.write_mac_line(MacLineAddr(0), ml);
        let with_mac = img.fingerprint();
        assert_ne!(base, with_mac, "MAC writes must change the fingerprint");
        let mut d = DigestLine::new();
        d.set(0, 7);
        img.write_tree_node(TreeNodeAddr { level: 1, index: 0 }, d);
        assert_ne!(
            with_mac,
            img.fingerprint(),
            "tree writes must change the fingerprint"
        );
    }

    /// Applies one random write, overwrite or removal: `kind` picks the
    /// region and the operation, `key` the entry (few keys, so most
    /// writes overwrite), `v` the content.
    fn apply_op(img: &mut NvmmImage, kind: u8, key: u64, v: u64) {
        let bytes = [v as u8; 64];
        let node = TreeNodeAddr {
            level: 1 + (key % 3) as u32,
            index: key,
        };
        match kind {
            0 => img.write_plain(LineAddr(key), bytes),
            1 => img.write_encrypted(LineAddr(key), bytes, Counter(v)),
            2 => img.write_co_located(LineAddr(key), bytes, Counter(v)),
            3 => img.write_co_located_counter(LineAddr(key), Counter(v)),
            4 => {
                let mut cl = CounterLine::new();
                cl.set((v % 8) as usize, Counter(v));
                img.write_counter_line(CounterLineAddr(key), cl);
            }
            5 => {
                let mut ml = MacLine::new();
                ml.set((v % 8) as usize, Mac(v | 1));
                img.write_mac_line(MacLineAddr(key), ml);
            }
            6 => {
                let mut d = DigestLine::new();
                d.set((v % 8) as usize, v);
                img.write_tree_node(node, d);
            }
            7 => img.remove_data(LineAddr(key)),
            8 => img.remove_co_located_counter(LineAddr(key)),
            9 => img.remove_counter_line(CounterLineAddr(key)),
            10 => img.remove_mac_line(MacLineAddr(key)),
            _ => img.remove_tree_node(node),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// An image built untracked and then sealed is the image built
        /// tracked: the same contents, and a fingerprint equal to the
        /// incremental one and to a from-scratch recompute — before the
        /// seal (recomputed on demand), at it, and while the sealed
        /// image keeps changing.
        #[test]
        fn untracked_then_sealed_matches_tracked(
            before in prop::collection::vec((0u8..12, 0u64..6, any::<u64>()), 0..120),
            after in prop::collection::vec((0u8..12, 0u64..6, any::<u64>()), 0..40),
        ) {
            let mut tracked = NvmmImage::new();
            let mut sealed = NvmmImage::untracked();
            for &(kind, key, v) in &before {
                apply_op(&mut tracked, kind, key, v);
                apply_op(&mut sealed, kind, key, v);
            }
            prop_assert!(sealed == tracked);
            sealed.seal();
            prop_assert!(!sealed.untracked);
            prop_assert_eq!(sealed.fp, tracked.fingerprint());
            prop_assert_eq!(sealed.fp, tracked.fingerprint_recompute());
            for &(kind, key, v) in &after {
                apply_op(&mut tracked, kind, key, v);
                apply_op(&mut sealed, kind, key, v);
                prop_assert_eq!(sealed.fp, tracked.fp);
                prop_assert_eq!(sealed.fp, sealed.fingerprint_recompute());
            }
            prop_assert!(sealed == tracked);
        }
    }
}
