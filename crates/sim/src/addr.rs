//! Physical address newtypes.
//!
//! The simulator is cache-line granular: a [`LineAddr`] indexes 64-byte
//! lines in the data region. Counter lines live in a logically separate
//! region and are addressed by [`CounterLineAddr`] (see
//! `nvmm_crypto::counter` for the data-line → counter-slot mapping).

use nvmm_crypto::counter::{counter_slot_for, CounterSlot};
use nvmm_crypto::mac::{mac_slot_for, MacSlot};

/// Size of a cache line in bytes.
pub const LINE_BYTES: u64 = 64;

/// A byte address in the flat persistent address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteAddr(pub u64);

impl ByteAddr {
    /// The cache line containing this byte.
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// Offset of this byte within its cache line.
    pub fn offset_in_line(self) -> usize {
        (self.0 % LINE_BYTES) as usize
    }
}

/// A cache-line-granular address in the data region (line index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The first byte of this line.
    pub fn byte_addr(self) -> ByteAddr {
        ByteAddr(self.0 * LINE_BYTES)
    }

    /// The counter line and slot holding this data line's counter.
    pub fn counter_slot(self) -> CounterSlot {
        counter_slot_for(self.0)
    }

    /// The counter line holding this data line's counter.
    pub fn counter_line(self) -> CounterLineAddr {
        CounterLineAddr(self.counter_slot().counter_line)
    }

    /// The MAC line and slot holding this data line's MAC.
    pub fn mac_slot(self) -> MacSlot {
        mac_slot_for(self.0)
    }

    /// The MAC line holding this data line's MAC.
    pub fn mac_line(self) -> MacLineAddr {
        MacLineAddr(self.mac_slot().mac_line)
    }
}

impl std::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// A cache-line-granular address in the counter region (counter line
/// index). One counter line packs counters for eight consecutive data
/// lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CounterLineAddr(pub u64);

impl std::fmt::Display for CounterLineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{:#x}", self.0)
    }
}

/// A cache-line-granular address in the MAC region (MAC line index).
/// One MAC line packs the MACs of eight consecutive data lines, exactly
/// mirroring the counter region's packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacLineAddr(pub u64);

impl std::fmt::Display for MacLineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "M{:#x}", self.0)
    }
}

/// A node of the N-ary counter/integrity tree (see `crate::integrity`).
///
/// Level 0 is the counter-line region itself (leaves); internal nodes
/// start at level 1, and the node at the configured top level with
/// index 0 is the persistent root. A node at `(level, index)` covers
/// the eight level-`level − 1` nodes `8·index .. 8·index + 8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TreeNodeAddr {
    /// Tree level, `1..=tree_levels` (leaves — counter lines — are
    /// level 0 and are addressed by [`CounterLineAddr`]).
    pub level: u32,
    /// Node index within the level.
    pub index: u64,
}

impl std::fmt::Display for TreeNodeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}:{:#x}", self.level, self.index)
    }
}

/// A physical target on the NVMM device: a data line, a counter line,
/// or integrity metadata (a MAC line or an integrity-tree node). Used
/// by the device model to assign banks; each region is hashed with its
/// own constant so its traffic spreads across banks independently of
/// the data traffic it accompanies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NvmmTarget {
    /// A 64-byte data line (72 bytes in co-located designs).
    Data(LineAddr),
    /// A 64-byte line of eight packed counters.
    Counter(CounterLineAddr),
    /// A 64-byte line of eight packed per-line MACs.
    Mac(MacLineAddr),
    /// A 64-byte integrity-tree node of eight packed child digests.
    TreeNode(TreeNodeAddr),
    /// A SecPM-style packed metadata line carrying a counter line and
    /// its congruent MAC line in one write (the `colocated` integrity
    /// policy). Addressed by the counter line it packs.
    PackedMeta(CounterLineAddr),
}

impl NvmmTarget {
    /// The bank this target maps to, for `nbanks` banks.
    ///
    /// Banks are hash-interleaved (as XOR-based bank interleaving does
    /// in real controllers) so that regular strides — and in particular
    /// the congruent per-core region layouts — do not alias onto a few
    /// banks.
    ///
    /// # Panics
    ///
    /// Panics if `nbanks` is zero.
    pub fn bank(self, nbanks: usize) -> usize {
        assert!(nbanks > 0, "device must have at least one bank");
        let mixed = match self {
            NvmmTarget::Data(l) => l.0.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            // Separate constants per region: a data line and its own
            // counter/MAC/tree metadata land on independent banks.
            NvmmTarget::Counter(c) => (c.0 ^ 0x5bd1_e995).wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
            NvmmTarget::Mac(m) => (m.0 ^ 0x85eb_ca6b).wrapping_mul(0xff51_afd7_ed55_8ccd),
            // The level must land in the low bits: wrapping_mul only
            // propagates carries upward, so high-bit mixing would never
            // reach the bank-selecting bits of the product.
            NvmmTarget::TreeNode(t) => {
                (t.index ^ u64::from(t.level).wrapping_mul(0x7f4a_7c15) ^ 0xc4ce_b9fe)
                    .wrapping_mul(0x2545_f491_4f6c_dd1d)
            }
            // Packed metadata replaces the counter line *and* the MAC
            // line; give it the counter region's bank placement so the
            // colocated policy's device contention mirrors a split
            // layout's counter traffic.
            NvmmTarget::PackedMeta(c) => (c.0 ^ 0x5bd1_e995).wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
        };
        ((mixed >> 32) % nbanks as u64) as usize
    }
}

/// Deterministic address-interleaving map for channel-sharded
/// controllers.
///
/// Lines are distributed round-robin at **counter-line granularity**:
/// the eight consecutive data lines that share one counter line (and
/// one MAC line) always land on the same shard, so a counter-atomic
/// pair, its counter-cache residency, and its per-line MAC are all
/// owned by a single controller — no write ever spans shards.
///
/// ```text
/// shard_of(L) = (L / 8) mod N        (counter-line round-robin)
/// ```
///
/// The map is a bijection: [`ShardMap::locate`] splits a global line
/// address into `(shard, local)` and [`ShardMap::globalize`] inverts
/// it exactly. Sharded controllers keep *global* addresses internally
/// (state never needs remapping); the local view exists so capacity
/// planning and the bijection property are testable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// Lines per interleave group: one counter line's worth of data
    /// lines (the counter/MAC packing factor).
    pub const GROUP_LINES: u64 = 8;

    /// A map over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard required");
        Self { shards }
    }

    /// Number of shards.
    pub fn shards(self) -> usize {
        self.shards
    }

    /// The shard owning data line `line`.
    pub fn shard_of(self, line: LineAddr) -> usize {
        ((line.0 / Self::GROUP_LINES) % self.shards as u64) as usize
    }

    /// The shard owning counter line `cline` (and the congruent MAC
    /// line): identical to the shard of every data line it covers.
    pub fn shard_of_counter_line(self, cline: CounterLineAddr) -> usize {
        (cline.0 % self.shards as u64) as usize
    }

    /// Splits a global line address into `(shard, shard-local line)`.
    ///
    /// Within a shard, local addresses are dense: group `g` of the
    /// shard is global group `g * shards + shard`.
    pub fn locate(self, line: LineAddr) -> (usize, LineAddr) {
        let n = self.shards as u64;
        let group = line.0 / Self::GROUP_LINES;
        let offset = line.0 % Self::GROUP_LINES;
        let shard = group % n;
        let local = (group / n) * Self::GROUP_LINES + offset;
        (shard as usize, LineAddr(local))
    }

    /// Inverse of [`ShardMap::locate`].
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn globalize(self, shard: usize, local: LineAddr) -> LineAddr {
        assert!(shard < self.shards, "shard {shard} out of range");
        let n = self.shards as u64;
        let group = local.0 / Self::GROUP_LINES;
        let offset = local.0 % Self::GROUP_LINES;
        LineAddr((group * n + shard as u64) * Self::GROUP_LINES + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_to_line_mapping() {
        assert_eq!(ByteAddr(0).line(), LineAddr(0));
        assert_eq!(ByteAddr(63).line(), LineAddr(0));
        assert_eq!(ByteAddr(64).line(), LineAddr(1));
        assert_eq!(ByteAddr(130).offset_in_line(), 2);
    }

    #[test]
    fn line_to_byte_roundtrip() {
        let l = LineAddr(1234);
        assert_eq!(l.byte_addr().line(), l);
    }

    #[test]
    fn counter_line_mapping() {
        assert_eq!(LineAddr(0).counter_line(), CounterLineAddr(0));
        assert_eq!(LineAddr(7).counter_line(), CounterLineAddr(0));
        assert_eq!(LineAddr(8).counter_line(), CounterLineAddr(1));
        assert_eq!(LineAddr(9).counter_slot().slot, 1);
    }

    #[test]
    fn banks_cover_range() {
        for i in 0..64 {
            let b = NvmmTarget::Data(LineAddr(i)).bank(8);
            assert!(b < 8);
        }
    }

    #[test]
    fn mac_line_mapping_mirrors_counter_lines() {
        assert_eq!(LineAddr(0).mac_line(), MacLineAddr(0));
        assert_eq!(LineAddr(7).mac_line(), MacLineAddr(0));
        assert_eq!(LineAddr(8).mac_line(), MacLineAddr(1));
        assert_eq!(LineAddr(9).mac_slot().slot, 1);
    }

    #[test]
    fn metadata_banks_cover_range() {
        for i in 0..64 {
            assert!(NvmmTarget::Mac(MacLineAddr(i)).bank(8) < 8);
            let t = TreeNodeAddr { level: 1, index: i };
            assert!(NvmmTarget::TreeNode(t).bank(8) < 8);
        }
    }

    #[test]
    fn tree_levels_hash_independently() {
        // The same index at different levels should not systematically
        // alias onto one bank.
        let mut differ = 0;
        for i in 0..64u64 {
            let a = NvmmTarget::TreeNode(TreeNodeAddr { level: 1, index: i }).bank(8);
            let b = NvmmTarget::TreeNode(TreeNodeAddr { level: 2, index: i }).bank(8);
            if a != b {
                differ += 1;
            }
        }
        assert!(differ > 32, "tree levels should spread across banks");
    }

    #[test]
    fn data_and_own_counter_usually_differ_in_bank() {
        let mut differ = 0;
        for i in 0..64u64 {
            let d = NvmmTarget::Data(LineAddr(i)).bank(8);
            let c = NvmmTarget::Counter(LineAddr(i).counter_line()).bank(8);
            if d != c {
                differ += 1;
            }
        }
        assert!(differ > 32, "counter region should not alias data banks");
    }

    #[test]
    fn shard_map_round_trips() {
        for shards in 1..=5 {
            let map = ShardMap::new(shards);
            for raw in 0..512u64 {
                let line = LineAddr(raw);
                let (s, local) = map.locate(line);
                assert_eq!(s, map.shard_of(line));
                assert_eq!(map.globalize(s, local), line);
            }
        }
    }

    #[test]
    fn shard_map_keeps_counter_groups_together() {
        let map = ShardMap::new(4);
        for raw in 0..256u64 {
            let line = LineAddr(raw);
            assert_eq!(
                map.shard_of(line),
                map.shard_of_counter_line(line.counter_line()),
                "data line and its counter line must share a shard"
            );
        }
    }

    #[test]
    fn single_shard_is_identity() {
        let map = ShardMap::new(1);
        for raw in 0..64u64 {
            assert_eq!(map.shard_of(LineAddr(raw)), 0);
            assert_eq!(map.locate(LineAddr(raw)), (0, LineAddr(raw)));
        }
    }

    #[test]
    #[should_panic]
    fn zero_shards_rejected() {
        let _ = ShardMap::new(0);
    }
}
