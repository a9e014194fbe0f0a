//! Redo-log transactions with selective counter-atomicity.
//!
//! The paper's §4.2 observes that *every* versioning crash-consistency
//! mechanism — undo logging, redo logging, shadow updates — keeps one
//! version consistent while the other is modified, so selective
//! counter-atomicity applies to all of them. This module is the redo
//! variant, the mirror image of [`crate::undo`]:
//!
//! | stage  | what persists                          | counter-atomicity |
//! |--------|----------------------------------------|-------------------|
//! | stage  | new values into the log                | no                |
//! | commit | `valid = 1` (the log becomes truth)    | **yes**           |
//! | apply  | in-place copies of the logged values   | no                |
//! | retire | `valid = 0` (in-place is truth again)  | **yes**           |
//!
//! Mutations are *deferred*: stores land in a volatile write set (with
//! read-your-writes semantics) and only reach persistent addresses
//! during the apply phase. The durable commit point is the instant the
//! `valid` flag's counter-atomic store is ADR-guaranteed — if the crash
//! comes later, recovery *re-applies* the log (idempotently); if
//! earlier, the in-place state was never touched.
//!
//! The log layout is shared with the undo log ([`UndoLog`]); only the
//! meaning of the payload differs (new values instead of backups).

use crate::pmem::Pmem;
use crate::undo::UndoLog;
use nvmm_sim::addr::{ByteAddr, LineAddr, LINE_BYTES};
use std::collections::BTreeMap;

/// An in-flight redo-logged transaction.
///
/// Dropping a `RedoTx` without [`RedoTx::commit`] aborts it for free:
/// nothing persistent was modified, and the (unarmed) log is reused by
/// the next transaction.
///
/// # Examples
///
/// ```
/// use nvmm_core::pmem::{Pmem, RegionPlanner};
/// use nvmm_core::redo::RedoTx;
/// use nvmm_core::undo::UndoLog;
///
/// let mut pm = Pmem::for_core(0);
/// let mut plan = RegionPlanner::new(pm.region());
/// let log = UndoLog::new(plan.alloc_lines(64), 8, 64);
/// let cell = plan.alloc_lines(1);
/// log.format(&mut pm);
///
/// let mut tx = RedoTx::begin(&mut pm, &log, 0);
/// tx.write_u64(cell, 7);
/// assert_eq!(tx.read_u64(cell), 7, "read-your-writes");
/// tx.commit();
/// assert_eq!(pm.read_u64(cell), 7);
/// ```
#[derive(Debug)]
pub struct RedoTx<'a> {
    pm: &'a mut Pmem,
    log: &'a UndoLog,
    id: u64,
    /// Deferred stores at line granularity: full post-write line images,
    /// merged as sub-line stores arrive.
    pending: BTreeMap<LineAddr, [u8; 64]>,
}

impl<'a> RedoTx<'a> {
    /// Begins a deferred-update transaction against `log`.
    pub fn begin(pm: &'a mut Pmem, log: &'a UndoLog, id: u64) -> Self {
        Self {
            pm,
            log,
            id,
            pending: BTreeMap::new(),
        }
    }

    fn line_view(&mut self, line: LineAddr) -> [u8; 64] {
        if let Some(d) = self.pending.get(&line) {
            return *d;
        }
        let mut buf = [0u8; 64];
        self.pm.read(line.byte_addr(), &mut buf);
        buf
    }

    /// Reads bytes, observing this transaction's own pending writes.
    pub fn read(&mut self, addr: ByteAddr, buf: &mut [u8]) {
        let mut copied = 0;
        while copied < buf.len() {
            let a = ByteAddr(addr.0 + copied as u64);
            let off = a.offset_in_line();
            let n = (LINE_BYTES as usize - off).min(buf.len() - copied);
            let data = self.line_view(a.line());
            buf[copied..copied + n].copy_from_slice(&data[off..off + n]);
            copied += n;
        }
    }

    /// Reads a little-endian `u64` with read-your-writes semantics.
    pub fn read_u64(&mut self, addr: ByteAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Defers a store; it reaches its persistent address only in the
    /// apply phase of [`RedoTx::commit`].
    pub fn write(&mut self, addr: ByteAddr, bytes: &[u8]) {
        let mut copied = 0;
        while copied < bytes.len() {
            let a = ByteAddr(addr.0 + copied as u64);
            let off = a.offset_in_line();
            let n = (LINE_BYTES as usize - off).min(bytes.len() - copied);
            let mut data = self.line_view(a.line());
            data[off..off + n].copy_from_slice(&bytes[copied..copied + n]);
            self.pending.insert(a.line(), data);
            copied += n;
        }
    }

    /// Defers a little-endian `u64` store.
    pub fn write_u64(&mut self, addr: ByteAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Number of distinct lines the transaction will commit.
    pub fn dirty_lines(&self) -> usize {
        self.pending.len()
    }

    /// Access to the underlying context for non-transactional reads.
    pub fn pmem(&mut self) -> &mut Pmem {
        self.pm
    }

    /// Runs the full redo protocol: stage → commit (counter-atomic
    /// `valid = 1`) → apply in place → retire (counter-atomic
    /// `valid = 0`).
    ///
    /// # Panics
    ///
    /// Panics if the write set exceeds the log's capacity.
    pub fn commit(self) {
        let Self {
            pm,
            log,
            id,
            pending,
        } = self;
        assert!(
            (pending.len() as u64) <= log.max_entries(),
            "redo write set ({} lines) exceeds log capacity ({})",
            pending.len(),
            log.max_entries()
        );

        // Stage: new values into the log. One entry per dirty line.
        let mut payload_cursor = log.payload_base().0;
        for (i, (line, data)) in pending.iter().enumerate() {
            let desc = log.desc_addr(i as u64);
            pm.write_u64(desc, line.byte_addr().0);
            pm.write_u64(ByteAddr(desc.0 + 8), LINE_BYTES);
            pm.write(ByteAddr(payload_cursor), data);
            payload_cursor += LINE_BYTES;
        }
        pm.write_u64(log.count_addr(), pending.len() as u64);
        let staged = (payload_cursor - log.count_addr().0) as usize;
        pm.clwb(log.count_addr(), staged);
        pm.counter_cache_writeback(log.count_addr(), staged);
        pm.persist_barrier();

        // Commit point: the log becomes the truth. CounterAtomic — this
        // single write flips which version recovery trusts.
        pm.write_u64_counter_atomic(log.valid_addr(), 1);
        pm.clwb(log.valid_addr(), 8);
        pm.persist_barrier();

        // Apply: copy the new values in place. These writes do not
        // affect recoverability (the log is the consistent version), so
        // they flow without counter-atomicity — the §4.2 window.
        for (line, data) in &pending {
            pm.write(line.byte_addr(), data);
        }
        for line in pending.keys() {
            pm.clwb(line.byte_addr(), LINE_BYTES as usize);
            pm.counter_cache_writeback(line.byte_addr(), LINE_BYTES as usize);
        }
        pm.persist_barrier();

        // Retire: the in-place copy is consistent again.
        pm.write_u64_counter_atomic(log.valid_addr(), 0);
        pm.clwb(log.valid_addr(), 8);
        pm.persist_barrier();
        pm.commit_marker(id);
    }
}

/// Replays the redo protocol over a recovered memory: if the log is
/// armed, its staged values are (re-)applied in place and the log is
/// retired. Idempotent — applying twice is harmless. The log layout is
/// the undo log's, and copying an armed log's payload to its targets is
/// the same replay, so this is
/// [`recover_undo_log`](crate::recovery::recover_undo_log); the report's
/// `rolled_back` means "rolled forward" here.
pub fn recover_redo_log(
    mem: &mut crate::recovery::RecoveredMemory,
    log: &UndoLog,
) -> crate::recovery::RecoveryReport {
    crate::recovery::recover_undo_log(mem, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmem::RegionPlanner;
    use crate::recovery::RecoveredMemory;
    use nvmm_sim::config::{Design, SimConfig};
    use nvmm_sim::system::{breakpoint_images, instant_after_events, CrashSpec, System};
    use nvmm_sim::trace::TraceEvent;

    fn setup() -> (Pmem, UndoLog, ByteAddr) {
        let mut pm = Pmem::for_core(0);
        let mut plan = RegionPlanner::new(pm.region());
        let log = UndoLog::new(plan.alloc_lines(64), 8, 64);
        let data = plan.alloc_lines(4);
        log.format(&mut pm);
        (pm, log, data)
    }

    #[test]
    fn committed_value_lands_in_place() {
        let (mut pm, log, data) = setup();
        let mut tx = RedoTx::begin(&mut pm, &log, 0);
        tx.write_u64(data, 77);
        tx.commit();
        assert_eq!(pm.read_u64(data), 77);
        assert_eq!(pm.read_u64(log.valid_addr()), 0);
    }

    #[test]
    fn read_your_writes_within_tx() {
        let (mut pm, log, data) = setup();
        pm.write_u64(data, 1);
        let mut tx = RedoTx::begin(&mut pm, &log, 0);
        assert_eq!(tx.read_u64(data), 1, "reads see pre-tx state");
        tx.write_u64(data, 2);
        assert_eq!(tx.read_u64(data), 2, "reads see own writes");
        tx.write_u64(ByteAddr(data.0 + 8), 3);
        assert_eq!(tx.read_u64(data), 2, "same-line neighbors preserved");
    }

    #[test]
    fn abort_is_free() {
        let (mut pm, log, data) = setup();
        pm.write_u64(data, 5);
        {
            let mut tx = RedoTx::begin(&mut pm, &log, 0);
            tx.write_u64(data, 99);
            // dropped: aborted
        }
        assert_eq!(
            pm.read_u64(data),
            5,
            "aborted redo tx must not touch memory"
        );
        assert_eq!(pm.read_u64(log.valid_addr()), 0);
    }

    #[test]
    fn deferred_store_does_not_leak_before_commit() {
        let (mut pm, log, data) = setup();
        let mut tx = RedoTx::begin(&mut pm, &log, 0);
        tx.write_u64(data, 42);
        assert_eq!(tx.pmem().read_u64(data), 0, "memory untouched until apply");
        tx.commit();
    }

    #[test]
    fn valid_flag_writes_are_counter_atomic() {
        let (mut pm, log, data) = setup();
        let mut tx = RedoTx::begin(&mut pm, &log, 0);
        tx.write_u64(data, 1);
        tx.commit();
        let valid_line = log.valid_addr().line();
        for ev in pm.trace().iter() {
            if let TraceEvent::Write {
                line,
                counter_atomic,
                ..
            } = ev
            {
                assert_eq!(
                    counter_atomic,
                    line == valid_line,
                    "exactly the valid-flag stores are CounterAtomic"
                );
            }
        }
    }

    #[test]
    fn dirty_lines_counts_distinct_lines() {
        let (mut pm, log, data) = setup();
        let mut tx = RedoTx::begin(&mut pm, &log, 0);
        tx.write_u64(data, 1);
        tx.write_u64(ByteAddr(data.0 + 8), 2); // same line
        tx.write_u64(ByteAddr(data.0 + 64), 3); // next line
        assert_eq!(tx.dirty_lines(), 2);
        tx.commit();
    }

    #[test]
    #[should_panic(expected = "exceeds log capacity")]
    fn oversized_write_set_panics() {
        let (mut pm, log, data) = setup();
        let mut tx = RedoTx::begin(&mut pm, &log, 0);
        for i in 0..9 {
            tx.write_u64(ByteAddr(data.0 + i * 64), i);
        }
        tx.commit();
    }

    /// The redo analog of the SCA crash sweep: at every crash point the
    /// recovered value is the old value, the new value — never garbage —
    /// and the transition point is the valid-flag commit, not the apply.
    #[test]
    fn redo_crash_sweep_recovers_old_or_new_under_sca() {
        // The initial value persists counter-atomically, so the sweep
        // holds from time zero (see the undo sweep's trace).
        let (mut pm, log, data) = setup();
        pm.write_u64_counter_atomic(data, 100);
        pm.clwb(data, 8);
        pm.persist_barrier();
        let mut tx = RedoTx::begin(&mut pm, &log, 0);
        tx.write_u64(data, 200);
        tx.commit();
        let (trace, _) = pm.into_parts();
        let cfg = SimConfig::single_core(Design::Sca);
        // The instant the apply's last write-back starts.
        let apply = trace
            .iter()
            .rposition(|e| matches!(e, TraceEvent::Clwb { line } if line == data.line()))
            .expect("the apply writes the data back");
        let applied = instant_after_events(&cfg, &trace, apply);
        let mut saw_new_before_apply = false;
        for (t, image) in breakpoint_images(&cfg, &trace, 0) {
            let mut mem = RecoveredMemory::new(image, cfg.key);
            let report = recover_redo_log(&mut mem, &log);
            assert!(
                report.reads_clean,
                "crash at {t}: recovery read garbled lines"
            );
            let v = mem.read_u64(data);
            assert!(
                v == 100 || v == 200 || v == 0,
                "crash at {t}: recovered {v}, expected old/new/untouched"
            );
            if v == 200 && t < applied {
                saw_new_before_apply = true;
            }
        }
        assert!(
            saw_new_before_apply,
            "the redo commit point must land before the apply completes"
        );
    }

    #[test]
    fn recovery_reapplies_interrupted_apply() {
        // Force a crash right after the valid flag persists: recovery
        // must roll forward to the new value.
        let (mut pm, log, data) = setup();
        pm.write_u64(data, 100);
        pm.clwb(data, 8);
        pm.counter_cache_writeback(data, 8);
        pm.persist_barrier();
        let mut tx = RedoTx::begin(&mut pm, &log, 0);
        tx.write_u64(data, 200);
        tx.commit();

        // Locate the valid=1 store and crash a couple of events later
        // (after its clwb + barrier, before the apply's writeback).
        let valid_line = log.valid_addr().line();
        let arm_pos = pm
            .trace()
            .iter()
            .position(|e| {
                matches!(e, TraceEvent::Write { line, counter_atomic: true, data, .. }
                    if line == valid_line && data[0] == 1)
            })
            .expect("arm event exists");
        let (trace, _) = pm.into_parts();
        let cfg = SimConfig::single_core(Design::Sca);
        let key = cfg.key;
        let t = instant_after_events(&cfg, &trace, arm_pos + 3);
        let out = System::new(cfg, vec![trace]).run(CrashSpec::AtTime(t));
        let mut mem = RecoveredMemory::new(out.image, key);
        let report = recover_redo_log(&mut mem, &log);
        assert!(report.rolled_back, "armed log must be applied");
        assert!(report.reads_clean);
        assert_eq!(
            mem.read_u64(data),
            200,
            "roll-forward must produce the new value"
        );
    }
}
