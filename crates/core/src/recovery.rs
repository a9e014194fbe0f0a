//! Post-crash recovery.
//!
//! After a (simulated) power failure, the only surviving state is the
//! NVMM image — ciphertext data lines plus whatever counters actually
//! persisted. Recovery proceeds the way real hardware would:
//!
//! 1. every line the recovery procedure reads is decrypted with the
//!    *persisted* counter ([`RecoveredMemory`]);
//! 2. the undo-log protocol is replayed ([`recover_undo_log`]): if the
//!    log is armed (`valid == 1`), every logged region is restored from
//!    its backup payload; if disarmed, the in-place data is trusted.
//!
//! A counter/data version mismatch (the paper's Eq. 4) produces genuinely
//! garbled bytes; [`RecoveredMemory`] additionally *detects* it (the
//! simulator knows the ground-truth counter) and records which lines the
//! recovery procedure observed garbled. A correct counter-atomicity
//! design must never let recovery touch a garbled line — that is exactly
//! the property the crash-consistency test suite asserts for FCA, SCA
//! and the co-located designs, and refutes for the unsafe baseline.

use nvmm_crypto::engine::EncryptionEngine;
use nvmm_sim::addr::{ByteAddr, LineAddr, LINE_BYTES};
use nvmm_sim::nvmm::{LineRead, NvmmImage};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use crate::undo::UndoLog;

pub use crate::redo::recover_redo_log;

/// A read-write view over the post-crash NVMM image.
///
/// Reads decrypt with the persisted counters and track garbling; writes
/// (the restores performed by recovery) land in an overlay, as they would
/// land in fresh cache lines on a real machine. The image itself is
/// never written, so the view either owns it ([`RecoveredMemory::new`],
/// [`RecoveredMemory::with_engine`]) or borrows it
/// ([`RecoveredMemory::over`]) — the crash model checker recovers every
/// enumerated image in place instead of cloning it. A line recovery
/// wrote reads from the overlay ([`RecoveredMemory::restored_lines`]);
/// every other line reads exactly as the image decrypts it.
#[derive(Debug)]
pub struct RecoveredMemory<'a> {
    image: Cow<'a, NvmmImage>,
    engine: EncryptionEngine,
    overlay: BTreeMap<LineAddr, [u8; 64]>,
    garbled_touched: BTreeSet<LineAddr>,
    /// Osiris-style stop-loss search window (0 = disabled).
    recovery_window: u64,
    counters_recovered: u64,
}

impl<'a> RecoveredMemory<'a> {
    /// Wraps a post-crash image with the system's encryption key.
    pub fn new(image: NvmmImage, key: [u8; 16]) -> Self {
        Self::with_engine(image, EncryptionEngine::new(key))
    }

    /// Wraps a post-crash image with an existing [`EncryptionEngine`].
    ///
    /// The crash model checker recovers hundreds of candidate images
    /// under one key; handing each recovery a clone of one warmed engine
    /// shares the OTP pad memo across them instead of re-deriving the
    /// AES key schedule (and every pad) per image.
    pub fn with_engine(image: NvmmImage, engine: EncryptionEngine) -> Self {
        Self::from_cow(Cow::Owned(image), engine)
    }

    /// [`RecoveredMemory::with_engine`] over a borrowed image: recovery
    /// only reads the image, so checking many candidate images costs no
    /// image copies.
    pub fn over(image: &'a NvmmImage, engine: EncryptionEngine) -> Self {
        Self::from_cow(Cow::Borrowed(image), engine)
    }

    fn from_cow(image: Cow<'a, NvmmImage>, engine: EncryptionEngine) -> Self {
        Self {
            image,
            engine,
            overlay: BTreeMap::new(),
            garbled_touched: BTreeSet::new(),
            recovery_window: 0,
            counters_recovered: 0,
        }
    }

    /// Enables Osiris-style counter recovery: a line whose persisted
    /// counter mismatches is decrypted by searching up to `window`
    /// candidate counters (the system must have run with a matching
    /// `SimConfig::stop_loss`, which bounds the lag).
    pub fn with_recovery_window(mut self, window: u64) -> Self {
        self.recovery_window = window;
        self
    }

    /// How many lines the candidate search recovered so far.
    pub fn counters_recovered(&self) -> u64 {
        self.counters_recovered
    }

    fn line_impl(&mut self, l: LineAddr, track: bool) -> [u8; 64] {
        if let Some(d) = self.overlay.get(&l) {
            return *d;
        }
        let read = if self.recovery_window > 0 {
            let (read, searched) =
                self.image
                    .read_line_with_window(l, &self.engine, self.recovery_window);
            if searched && read.is_clean() {
                self.counters_recovered += 1;
            }
            read
        } else {
            self.image.read_line(l, &self.engine)
        };
        match read {
            LineRead::Clean(d) => d,
            LineRead::Unwritten => [0; 64],
            LineRead::Garbled(d) => {
                if track {
                    self.garbled_touched.insert(l);
                }
                d
            }
        }
    }

    fn line(&mut self, l: LineAddr) -> [u8; 64] {
        self.line_impl(l, true)
    }

    /// Reads `buf.len()` bytes at `addr`, decrypting as the memory
    /// controller would after the crash.
    pub fn read(&mut self, addr: ByteAddr, buf: &mut [u8]) {
        let mut copied = 0;
        while copied < buf.len() {
            let a = ByteAddr(addr.0 + copied as u64);
            let off = a.offset_in_line();
            let n = (LINE_BYTES as usize - off).min(buf.len() - copied);
            let data = self.line(a.line());
            buf[copied..copied + n].copy_from_slice(&data[off..off + n]);
            copied += n;
        }
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, addr: ByteAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// A recovery-time store (e.g. restoring a logged region).
    ///
    /// A sub-line store merges with the existing line contents; the
    /// merge read does not count as a *consumed* garbled read — the
    /// procedure is overwriting, not interpreting, those bytes.
    pub fn write(&mut self, addr: ByteAddr, bytes: &[u8]) {
        let mut copied = 0;
        while copied < bytes.len() {
            let a = ByteAddr(addr.0 + copied as u64);
            let off = a.offset_in_line();
            let n = (LINE_BYTES as usize - off).min(bytes.len() - copied);
            let mut data = if n == LINE_BYTES as usize {
                [0; 64]
            } else {
                self.line_impl(a.line(), false)
            };
            data[off..off + n].copy_from_slice(&bytes[copied..copied + n]);
            self.overlay.insert(a.line(), data);
            copied += n;
        }
    }

    /// Lines that recovery observed with mismatched counters so far.
    ///
    /// Empty for any correct counter-atomicity design, regardless of
    /// crash point.
    pub fn garbled_lines(&self) -> &BTreeSet<LineAddr> {
        &self.garbled_touched
    }

    /// Whether all reads so far decrypted cleanly.
    pub fn all_reads_clean(&self) -> bool {
        self.garbled_touched.is_empty()
    }

    /// The lines recovery wrote so far, ascending. Each reads from the
    /// overlay; every other line reads as the image decrypts it, so two
    /// views over images that decrypt a line alike differ on that line
    /// only if it is restored in one of them.
    pub fn restored_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.overlay.keys().copied()
    }

    /// The underlying image (for low-level inspection).
    pub fn image(&self) -> &NvmmImage {
        &self.image
    }
}

/// What the undo-log recovery pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` if the log was armed and mutations were rolled back.
    pub rolled_back: bool,
    /// Number of logged regions restored.
    pub entries_restored: usize,
    /// Whether every line recovery read decrypted with a matching
    /// counter.
    pub reads_clean: bool,
}

/// Replays the undo-log protocol over a recovered memory.
///
/// Reads the (CounterAtomic) `valid` flag; if armed, restores every
/// logged region from its backup payload and disarms the log. The redo
/// log shares this layout and this replay ([`recover_redo_log`]).
///
/// Descriptors come from a crash image, so a broken design or a forged
/// image controls them. The restore stops at the first entry that is
/// empty, not line-granular, runs past the log's end, or targets a
/// range past the address space; the garbled-line tracking records any
/// fault that produced it.
pub fn recover_undo_log(mem: &mut RecoveredMemory, log: &UndoLog) -> RecoveryReport {
    let valid = mem.read_u64(log.valid_addr());
    if valid == 0 {
        return RecoveryReport {
            rolled_back: false,
            entries_restored: 0,
            reads_clean: mem.all_reads_clean(),
        };
    }
    let count = mem.read_u64(log.count_addr());
    let mut payload_cursor = log.payload_base().0;
    let mut restored = 0;
    for i in 0..count.min(log.max_entries()) {
        let desc = log.desc_addr(i);
        let addr = mem.read_u64(desc);
        let len = mem.read_u64(ByteAddr(desc.0 + 8));
        if len == 0
            || !len.is_multiple_of(LINE_BYTES)
            || len > log.end().0 - payload_cursor
            || addr.checked_add(len).is_none()
        {
            break;
        }
        let mut payload = vec![0u8; len as usize];
        mem.read(ByteAddr(payload_cursor), &mut payload);
        mem.write(ByteAddr(addr), &payload);
        restored += 1;
        payload_cursor += len;
    }
    // Disarm: recovery completed; the pre-transaction state is current.
    mem.write(log.valid_addr(), &0u64.to_le_bytes());
    RecoveryReport {
        rolled_back: true,
        entries_restored: restored,
        reads_clean: mem.all_reads_clean(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmem::{Pmem, RegionPlanner};
    use crate::undo::Tx;
    use nvmm_sim::config::{Design, SimConfig};
    use nvmm_sim::system::{breakpoint_images, CrashSpec, System};
    use nvmm_sim::time::Time;

    /// Builds the one-transaction workload trace (init 100, tx to 200);
    /// returns (trace, log, data addr). The initial value persists
    /// counter-atomically, like the log's format: under SCA a plain
    /// store has a crash state with the data line durable and its
    /// counter not, which no recovery can read.
    fn one_tx_trace() -> (nvmm_sim::Trace, UndoLog, ByteAddr) {
        let mut pm = Pmem::for_core(0);
        let mut plan = RegionPlanner::new(pm.region());
        let log = UndoLog::new(plan.alloc_lines(64), 8, 64);
        let data = plan.alloc_lines(1);
        log.format(&mut pm);

        pm.write_u64_counter_atomic(data, 100);
        pm.clwb(data, 8);
        pm.persist_barrier();

        let mut tx = Tx::begin(&mut pm, &log, 0);
        tx.log_region(data, 8);
        tx.write_u64(data, 200);
        tx.commit();

        let (trace, _) = pm.into_parts();
        (trace, log, data)
    }

    /// Runs the one-transaction workload under `design` to completion.
    fn run_to_end(design: Design) -> (RecoveredMemory<'static>, UndoLog, ByteAddr) {
        let (trace, log, data) = one_tx_trace();
        let cfg = SimConfig::single_core(design);
        let key = cfg.key;
        let out = System::new(cfg, vec![trace]).run(CrashSpec::None);
        (RecoveredMemory::new(out.image, key), log, data)
    }

    /// The one-transaction workload's crash image in every crash state
    /// under `design`, from time zero, each with its first instant.
    fn tx_images(design: Design) -> (Vec<(Time, NvmmImage)>, UndoLog, ByteAddr) {
        let (trace, log, data) = one_tx_trace();
        let images = breakpoint_images(&SimConfig::single_core(design), &trace, 0);
        (images, log, data)
    }

    /// Every crash state of the one-transaction workload under `design`
    /// ([`tx_images`]), as recovered memories.
    fn recovered_states(
        design: Design,
    ) -> (Vec<(Time, RecoveredMemory<'static>)>, UndoLog, ByteAddr) {
        let key = SimConfig::single_core(design).key;
        let (images, log, data) = tx_images(design);
        let mems = images
            .into_iter()
            .map(|(t, image)| (t, RecoveredMemory::new(image, key)))
            .collect();
        (mems, log, data)
    }

    #[test]
    fn no_crash_recovery_sees_committed_value() {
        let (mut mem, log, data) = run_to_end(Design::Sca);
        let report = recover_undo_log(&mut mem, &log);
        assert!(!report.rolled_back, "disarmed log must not roll back");
        assert!(report.reads_clean);
        assert_eq!(mem.read_u64(data), 200);
    }

    #[test]
    fn sca_crash_sweep_always_recovers_old_or_new() {
        // The central crash-consistency property: in *every* crash state,
        // SCA recovery reads only clean lines and lands on exactly 0
        // (nothing persisted yet), 100 (rolled back) or 200 (committed).
        let (mems, log, data) = recovered_states(Design::Sca);
        let mut seen = BTreeSet::new();
        for (t, mut mem) in mems {
            let report = recover_undo_log(&mut mem, &log);
            let v = mem.read_u64(data);
            assert!(
                report.reads_clean && mem.all_reads_clean(),
                "crash at {t}: recovery touched garbled lines {:?}",
                mem.garbled_lines()
            );
            assert!(
                v == 100 || v == 200 || v == 0,
                "crash at {t}: recovered value {v} is neither old nor new"
            );
            seen.insert(v);
        }
        assert_eq!(seen, BTreeSet::from([0, 100, 200]), "the sweep starts at 0");
    }

    #[test]
    fn unsafe_design_garbles_somewhere_in_the_sweep() {
        // The paper's motivation: without counter-atomicity, *some* crash
        // point leaves recovery reading garbage.
        let (mems, log, _) = recovered_states(Design::UnsafeNoAtomicity);
        let mut any_garbled = false;
        for (_, mut mem) in mems {
            let _ = recover_undo_log(&mut mem, &log);
            if !mem.all_reads_clean() {
                any_garbled = true;
                break;
            }
        }
        assert!(
            any_garbled,
            "the unsafe baseline must exhibit the Fig. 4 failure"
        );
    }

    #[test]
    fn garbled_bytes_are_not_the_plaintext() {
        let (mems, log, data) = recovered_states(Design::UnsafeNoAtomicity);
        for (_, mut mem) in mems {
            let _ = recover_undo_log(&mut mem, &log);
            if !mem.all_reads_clean() {
                // Whatever we read from a garbled location, it is real
                // AES output, not a sentinel.
                let v = mem.read_u64(data);
                let _ = v; // value is arbitrary garbage; just ensure no panic
                return;
            }
        }
    }

    /// A view over a borrowed image recovers exactly as one owning a
    /// copy, and lists the lines recovery wrote, ascending: the disarmed
    /// `valid` flag and each restored region.
    #[test]
    fn borrowed_view_recovers_like_owned_and_lists_restores() {
        let key = SimConfig::single_core(Design::Sca).key;
        let (images, log, data) = tx_images(Design::Sca);
        let mut rolled_back = 0;
        for (t, image) in images {
            let mut owned = RecoveredMemory::new(image.clone(), key);
            let mut borrowed = RecoveredMemory::over(&image, EncryptionEngine::new(key));
            let report = recover_undo_log(&mut borrowed, &log);
            assert_eq!(recover_undo_log(&mut owned, &log), report, "crash at {t}");
            assert_eq!(
                owned.read_u64(data),
                borrowed.read_u64(data),
                "crash at {t}"
            );
            let restored: Vec<LineAddr> = borrowed.restored_lines().collect();
            let mut want = Vec::new();
            if report.rolled_back {
                rolled_back += 1;
                want.push(log.valid_addr().line());
                if report.entries_restored > 0 {
                    want.push(data.line());
                }
            }
            assert_eq!(restored, want, "crash at {t}");
        }
        assert!(rolled_back > 0, "no crash point rolled back");
    }

    /// A recovered memory over an armed log whose one descriptor is
    /// `(addr, len)`, every line in plaintext so recovery reads clean.
    fn forged_log(addr: u64, len: u64) -> (RecoveredMemory<'static>, UndoLog) {
        let log = UndoLog::new(ByteAddr(4096), 8, 64);
        let word = |v: u64| {
            let mut line = [0u8; 64];
            line[..8].copy_from_slice(&v.to_le_bytes());
            line
        };
        let mut desc = word(addr);
        desc[8..16].copy_from_slice(&len.to_le_bytes());
        let mut img = NvmmImage::new();
        img.write_plain(log.valid_addr().line(), word(1));
        img.write_plain(log.count_addr().line(), word(1));
        img.write_plain(log.desc_addr(0).line(), desc);
        (RecoveredMemory::new(img, [0; 16]), log)
    }

    /// A forged descriptor stops `recover` the way other malformed
    /// entries do, instead of overflowing: a length whose payload end
    /// wraps the address space, and a target whose last byte does.
    /// Nothing is copied, and the log is disarmed.
    fn assert_forged_entries_stop(recover: fn(&mut RecoveredMemory, &UndoLog) -> RecoveryReport) {
        for (addr, len) in [(1 << 20, u64::MAX - 63), (u64::MAX - 7, LINE_BYTES)] {
            let (mut mem, log) = forged_log(addr, len);
            let report = recover(&mut mem, &log);
            let what = format!("descriptor ({addr:#x}, {len:#x})");
            assert_eq!(report.entries_restored, 0, "{what}");
            assert!(report.rolled_back && report.reads_clean, "{what}");
            let restored: Vec<LineAddr> = mem.restored_lines().collect();
            assert_eq!(restored, vec![log.valid_addr().line()], "{what}");
            assert_eq!(mem.read_u64(log.valid_addr()), 0, "{what}");
        }
    }

    #[test]
    fn forged_undo_log_entries_stop_recovery() {
        assert_forged_entries_stop(recover_undo_log);
    }

    #[test]
    fn forged_redo_log_entries_stop_recovery() {
        assert_forged_entries_stop(recover_redo_log);
    }

    #[test]
    fn overlay_writes_visible_to_subsequent_reads() {
        let (mut mem, _, data) = run_to_end(Design::Sca);
        mem.write(data, &7u64.to_le_bytes());
        assert_eq!(mem.read_u64(data), 7);
    }

    #[test]
    fn fca_crash_sweep_never_garbles() {
        let (mems, log, _) = recovered_states(Design::Fca);
        for (t, mut mem) in mems {
            let report = recover_undo_log(&mut mem, &log);
            assert!(report.reads_clean, "FCA crash at {t} must stay clean");
        }
    }

    #[test]
    fn co_located_crash_sweep_never_garbles() {
        let (mems, log, _) = recovered_states(Design::CoLocated);
        for (t, mut mem) in mems {
            let report = recover_undo_log(&mut mem, &log);
            assert!(
                report.reads_clean,
                "co-located crash at {t} must stay clean"
            );
        }
    }
}
