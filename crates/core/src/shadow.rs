//! Shadow updates with selective counter-atomicity.
//!
//! The third versioning mechanism the paper's §4.2 names (after undo and
//! redo logging): keep *two* copies of an object and a selector that
//! says which one is current. An update writes the entire new version
//! into the inactive copy — writes that cannot affect the recoverable
//! state, so they need no counter-atomicity — persists it, and then
//! flips the selector with a single `CounterAtomic` store.
//!
//! Recovery is trivial: read the (always decryptable) selector and use
//! the copy it names. There is no log to replay and no rollback — the
//! inactive copy is simply garbage.
//!
//! This is exactly the persistent-linked-list head pointer of the
//! paper's Fig. 4, generalized.

use crate::pmem::Pmem;
use crate::recovery::RecoveredMemory;
use nvmm_sim::addr::{ByteAddr, LINE_BYTES};

/// A double-buffered persistent object with a counter-atomic selector.
///
/// Layout: one selector line (u64: 0 or 1, written only with
/// `CounterAtomic` stores) followed by two copies of `size_bytes`,
/// each line-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowCell {
    base: ByteAddr,
    size_bytes: u64,
}

impl ShadowCell {
    /// Creates a descriptor for a shadow cell at `base` (line-aligned)
    /// holding objects of `size_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not line-aligned or `size_bytes` is zero.
    pub fn new(base: ByteAddr, size_bytes: u64) -> Self {
        assert_eq!(base.0 % LINE_BYTES, 0, "shadow cell must be line-aligned");
        assert!(size_bytes > 0, "object must be non-empty");
        Self { base, size_bytes }
    }

    /// Total bytes a cell of `size_bytes` occupies (selector + 2 copies).
    pub const fn layout_bytes(size_bytes: u64) -> u64 {
        let copy_lines = size_bytes.div_ceil(LINE_BYTES);
        (1 + 2 * copy_lines) * LINE_BYTES
    }

    /// Address of the selector word.
    pub fn selector_addr(&self) -> ByteAddr {
        self.base
    }

    fn copy_addr(&self, which: u64) -> ByteAddr {
        let copy_lines = self.size_bytes.div_ceil(LINE_BYTES);
        ByteAddr(self.base.0 + LINE_BYTES + which * copy_lines * LINE_BYTES)
    }

    /// Formats the cell: persists selector = 0 counter-atomically.
    pub fn format(&self, pm: &mut Pmem) {
        pm.write_u64_counter_atomic(self.selector_addr(), 0);
        pm.clwb(self.selector_addr(), 8);
        pm.persist_barrier();
    }

    /// Reads the current version.
    pub fn read(&self, pm: &mut Pmem, buf: &mut [u8]) {
        assert!(buf.len() as u64 <= self.size_bytes);
        let cur = pm.read_u64(self.selector_addr()) & 1;
        pm.read(self.copy_addr(cur), buf);
    }

    /// Atomically replaces the object with `new_value`.
    ///
    /// The inactive copy is filled and persisted (plain writes +
    /// `clwb`/`counter_cache_writeback`/barrier — the §4.2 reordering
    /// window), then the selector flips with one `CounterAtomic` store.
    ///
    /// # Panics
    ///
    /// Panics if `new_value` exceeds the cell's object size.
    pub fn update(&self, pm: &mut Pmem, new_value: &[u8]) {
        assert!(
            new_value.len() as u64 <= self.size_bytes,
            "value exceeds cell size"
        );
        let cur = pm.read_u64(self.selector_addr()) & 1;
        let next = cur ^ 1;
        let dst = self.copy_addr(next);
        pm.write(dst, new_value);
        pm.clwb(dst, new_value.len());
        pm.counter_cache_writeback(dst, new_value.len());
        pm.persist_barrier();

        pm.write_u64_counter_atomic(self.selector_addr(), next);
        pm.clwb(self.selector_addr(), 8);
        pm.persist_barrier();
    }

    /// Post-crash read: the selector is always decryptable (it is only
    /// ever written counter-atomically); the copy it names was persisted
    /// before the selector flipped.
    pub fn recover(&self, mem: &mut RecoveredMemory, buf: &mut [u8]) {
        let cur = mem.read_u64(self.selector_addr()) & 1;
        mem.read(self.copy_addr(cur), buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmem::RegionPlanner;
    use nvmm_sim::config::{Design, SimConfig};
    use nvmm_sim::system::breakpoint_images;

    fn setup(size: u64) -> (Pmem, ShadowCell) {
        let mut pm = Pmem::for_core(0);
        let mut plan = RegionPlanner::new(pm.region());
        let bytes = ShadowCell::layout_bytes(size);
        let cell = ShadowCell::new(plan.alloc_lines(bytes / LINE_BYTES), size);
        cell.format(&mut pm);
        (pm, cell)
    }

    #[test]
    fn layout_accounts_for_selector_and_copies() {
        assert_eq!(ShadowCell::layout_bytes(8), 3 * LINE_BYTES);
        assert_eq!(ShadowCell::layout_bytes(100), (1 + 2 * 2) * LINE_BYTES);
    }

    #[test]
    fn update_then_read_roundtrip() {
        let (mut pm, cell) = setup(16);
        cell.update(&mut pm, b"hello, shadows!!");
        let mut buf = [0u8; 16];
        cell.read(&mut pm, &mut buf);
        assert_eq!(&buf, b"hello, shadows!!");
    }

    #[test]
    fn updates_alternate_copies() {
        let (mut pm, cell) = setup(8);
        cell.update(&mut pm, &1u64.to_le_bytes());
        assert_eq!(pm.read_u64(cell.selector_addr()), 1);
        cell.update(&mut pm, &2u64.to_le_bytes());
        assert_eq!(pm.read_u64(cell.selector_addr()), 0);
        let mut buf = [0u8; 8];
        cell.read(&mut pm, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 2);
    }

    #[test]
    fn old_version_survives_until_the_flip() {
        let (mut pm, cell) = setup(8);
        cell.update(&mut pm, &1u64.to_le_bytes());
        // Write the new version but peek before any flip: copy 0 holds 1.
        let mut buf = [0u8; 8];
        cell.read(&mut pm, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 1);
    }

    /// A formatted 8-byte cell updated to 100, then 200.
    fn two_updates() -> (Pmem, ShadowCell) {
        let (mut pm, cell) = setup(8);
        cell.update(&mut pm, &100u64.to_le_bytes());
        cell.update(&mut pm, &200u64.to_le_bytes());
        (pm, cell)
    }

    /// The shadow analog of the crash sweeps: every crash point recovers
    /// either the old or the new version, with clean decryption — under
    /// SCA, because the selector is CounterAtomic.
    #[test]
    fn shadow_crash_sweep_recovers_old_or_new_under_sca() {
        let (pm, cell) = two_updates();
        let cfg = SimConfig::single_core(Design::Sca);
        for (t, image) in breakpoint_images(&cfg, pm.trace(), 0) {
            let mut mem = RecoveredMemory::new(image, cfg.key);
            let mut buf = [0u8; 8];
            cell.recover(&mut mem, &mut buf);
            assert!(mem.all_reads_clean(), "crash at {t}: garbled recovery read");
            let v = u64::from_le_bytes(buf);
            assert!(
                v == 0 || v == 100 || v == 200,
                "crash at {t}: recovered {v}, expected a whole version"
            );
        }
    }

    /// Without counter-atomicity the selector itself garbles — the
    /// Fig. 4 head pointer, reproduced with the generalized cell.
    #[test]
    fn shadow_selector_garbles_under_unsafe_design() {
        let (pm, cell) = two_updates();
        let cfg = SimConfig::single_core(Design::UnsafeNoAtomicity);
        let mut garbled = false;
        for (_, image) in breakpoint_images(&cfg, pm.trace(), 0) {
            let mut mem = RecoveredMemory::new(image, cfg.key);
            let mut buf = [0u8; 8];
            cell.recover(&mut mem, &mut buf);
            if !mem.all_reads_clean() {
                garbled = true;
            }
        }
        assert!(
            garbled,
            "some crash point must expose the missing counter-atomicity"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds cell size")]
    fn oversized_value_panics() {
        let (mut pm, cell) = setup(8);
        cell.update(&mut pm, &[0u8; 16]);
    }
}
