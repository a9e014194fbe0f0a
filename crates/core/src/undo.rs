//! Undo-log transactions with selective counter-atomicity.
//!
//! This implements the three-stage transaction of the paper's §4.2 and
//! Fig. 9, with the stage-by-stage counter-atomicity requirements of
//! Table 1:
//!
//! | stage   | what persists                                | counter-atomicity |
//! |---------|----------------------------------------------|-------------------|
//! | prepare | log payload + descriptors, then `valid = 1`  | payload: no; `valid`: **yes** |
//! | mutate  | in-place updates                             | no |
//! | commit  | `valid = 0`                                  | **yes** |
//!
//! Plain (prepare/mutate) writes are persisted with
//! `clwb … counter_cache_writeback … persist_barrier`, leaving the
//! hardware free to buffer, coalesce and reorder both data and counter
//! writes inside each stage. Only the `valid` flag — the single variable
//! whose value flips which version of the data recovery trusts — is
//! declared `CounterAtomic`.
//!
//! One refinement over the paper's condensed Fig. 9: `PrepareLog` here
//! persists the log *payload* strictly before setting `valid = 1` (two
//! barriers), because a `valid` flag that could persist ahead of its
//! payload would let recovery restore garbage. The paper's prose assumes
//! a correct undo-log protocol; this is it.
//!
//! ## Log layout
//!
//! The log is compact — descriptors are packed four to a line — so a
//! transaction's persist set stays small (the write queues, and
//! especially the 16-entry counter write queue, are the scarce resource
//! the paper's designs compete for):
//!
//! ```text
//! line 0              : valid flag (u64, CounterAtomic-only line)
//! line 1              : entry count (u64)
//! lines 2 .. 2+D      : descriptor zone, 4 × (addr u64, len u64) per line
//! lines 2+D ..        : payload zone, line-aligned backups appended in
//!                       entry order
//! ```

use crate::pmem::Pmem;
use nvmm_sim::addr::{ByteAddr, LINE_BYTES};

/// Magic value marking a valid (armed) log.
const LOG_VALID: u64 = 1;
/// Magic value marking an invalid (quiescent) log.
const LOG_INVALID: u64 = 0;
/// Descriptors per descriptor-zone line (16 bytes each).
const DESCS_PER_LINE: u64 = 4;

/// Layout of an undo log in persistent memory. See the module docs.
///
/// The `valid` flag lives alone on its line so that no prepare-stage
/// write ever re-encrypts the flag's line with a counter that might not
/// persist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndoLog {
    base: ByteAddr,
    max_entries: u64,
    payload_capacity_lines: u64,
}

impl UndoLog {
    /// Creates a log at `base` (line-aligned) able to back up
    /// `max_entries` regions of at most `max_bytes_per_entry` bytes each
    /// per transaction.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not line-aligned or `max_entries` is zero.
    pub fn new(base: ByteAddr, max_entries: u64, max_bytes_per_entry: u64) -> Self {
        assert_eq!(base.0 % LINE_BYTES, 0, "log base must be line-aligned");
        assert!(max_entries > 0, "log must hold at least one entry");
        Self {
            base,
            max_entries,
            payload_capacity_lines: max_entries
                * Self::payload_lines_per_entry(max_bytes_per_entry),
        }
    }

    /// Worst-case payload lines for one backed-up region of `bytes`
    /// bytes: backups are line-granular and an unaligned region can
    /// straddle one extra line.
    const fn payload_lines_per_entry(bytes: u64) -> u64 {
        bytes.div_ceil(LINE_BYTES) + 1
    }

    /// Total bytes a log created with the same parameters occupies.
    pub const fn layout_bytes(max_entries: u64, max_bytes_per_entry: u64) -> u64 {
        let desc_lines = max_entries.div_ceil(DESCS_PER_LINE);
        let payload_lines = max_entries * Self::payload_lines_per_entry(max_bytes_per_entry);
        (2 + desc_lines + payload_lines) * LINE_BYTES
    }

    /// Bytes occupied by this log.
    pub fn size_bytes(&self) -> u64 {
        let desc_lines = self.max_entries.div_ceil(DESCS_PER_LINE);
        (2 + desc_lines + self.payload_capacity_lines) * LINE_BYTES
    }

    /// Address of the `valid` flag.
    pub fn valid_addr(&self) -> ByteAddr {
        self.base
    }

    /// Address of the entry-count word.
    pub fn count_addr(&self) -> ByteAddr {
        ByteAddr(self.base.0 + LINE_BYTES)
    }

    /// Address of descriptor `i` (16 bytes: target addr, length).
    pub fn desc_addr(&self, i: u64) -> ByteAddr {
        debug_assert!(i < self.max_entries);
        ByteAddr(
            self.base.0
                + 2 * LINE_BYTES
                + (i / DESCS_PER_LINE) * LINE_BYTES
                + (i % DESCS_PER_LINE) * 16,
        )
    }

    /// First byte of the payload zone.
    pub fn payload_base(&self) -> ByteAddr {
        ByteAddr(self.base.0 + (2 + self.max_entries.div_ceil(DESCS_PER_LINE)) * LINE_BYTES)
    }

    /// End of the log region.
    pub fn end(&self) -> ByteAddr {
        ByteAddr(self.payload_base().0 + self.payload_capacity_lines * LINE_BYTES)
    }

    /// Maximum entries a transaction may log.
    pub fn max_entries(&self) -> u64 {
        self.max_entries
    }

    /// Formats the log: persists `valid = 0` counter-atomically so that
    /// recovery always finds a decryptable flag.
    pub fn format(&self, pm: &mut Pmem) {
        pm.write_u64_counter_atomic(self.valid_addr(), LOG_INVALID);
        pm.clwb(self.valid_addr(), 8);
        pm.persist_barrier();
    }
}

/// An in-flight undo-logged transaction.
///
/// Dropping a `Tx` without calling [`Tx::commit`] simply abandons it —
/// the log stays armed, and recovery will roll the mutations back, which
/// is the correct semantics for an aborted transaction.
///
/// # Examples
///
/// ```
/// use nvmm_core::pmem::{Pmem, RegionPlanner};
/// use nvmm_core::undo::{Tx, UndoLog};
/// use nvmm_sim::addr::ByteAddr;
///
/// let mut pm = Pmem::for_core(0);
/// let mut plan = RegionPlanner::new(pm.region());
/// let log = UndoLog::new(plan.alloc_lines(64), 8, 64);
/// let data = plan.alloc_lines(1);
/// log.format(&mut pm);
///
/// let mut tx = Tx::begin(&mut pm, &log, 0);
/// tx.log_region(data, 8);
/// tx.write_u64(data, 99);
/// tx.commit();
/// ```
#[derive(Debug)]
pub struct Tx<'a> {
    pm: &'a mut Pmem,
    log: &'a UndoLog,
    id: u64,
    entries: u64,
    /// Next free byte in the payload zone.
    payload_cursor: u64,
    sealed: bool,
    /// Mutated in-place ranges `(addr, len)` to persist at commit.
    mutated: Vec<(ByteAddr, usize)>,
}

impl<'a> Tx<'a> {
    /// Begins a transaction using `log` for backup.
    pub fn begin(pm: &'a mut Pmem, log: &'a UndoLog, id: u64) -> Self {
        Self {
            pm,
            log,
            id,
            entries: 0,
            payload_cursor: log.payload_base().0,
            sealed: false,
            mutated: Vec::new(),
        }
    }

    /// Prepare stage: snapshots the cache lines covering
    /// `[addr, addr+len)` into the log so they can be rolled back.
    ///
    /// Backups are taken at full cache-line granularity — the granularity
    /// at which data travels to NVMM and at which decryption succeeds or
    /// fails — so a rollback restores entire lines and never leaves
    /// stale sub-line residue behind.
    ///
    /// # Panics
    ///
    /// Panics if called after the first mutation (the backup must
    /// precede the in-place writes it protects) or if the log overflows.
    pub fn log_region(&mut self, addr: ByteAddr, len: usize) {
        assert!(!self.sealed, "log_region must precede the mutate stage");
        assert!(len > 0, "cannot log an empty region");
        assert!(
            self.entries < self.log.max_entries,
            "undo log entry table full"
        );
        // Extend to line boundaries.
        let start = addr.0 & !(LINE_BYTES - 1);
        let end = (addr.0 + len as u64).div_ceil(LINE_BYTES) * LINE_BYTES;
        let (addr, len) = (ByteAddr(start), (end - start) as usize);
        assert!(
            self.payload_cursor + len as u64 <= self.log.end().0,
            "undo log payload zone overflow"
        );

        // Descriptor: (addr, len), packed four per line.
        let desc = self.log.desc_addr(self.entries);
        self.pm.write_u64(desc, addr.0);
        self.pm.write_u64(ByteAddr(desc.0 + 8), len as u64);

        // Payload: the original data, line-aligned.
        let mut original = vec![0u8; len];
        self.pm.read(addr, &mut original);
        self.pm.write(ByteAddr(self.payload_cursor), &original);

        self.payload_cursor += len as u64;
        self.entries += 1;
    }

    /// Seals the prepare stage: persists the log payload, then arms the
    /// `valid` flag counter-atomically. Implicitly invoked by the first
    /// mutation.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        // Entry count persists with the descriptors and payload; the
        // whole range (count line .. payload cursor) is contiguous.
        self.pm.write_u64(self.log.count_addr(), self.entries);
        let start = self.log.count_addr();
        let len = (self.payload_cursor - start.0) as usize;
        self.pm.clwb(start, len);
        self.pm.counter_cache_writeback(start, len);
        self.pm.persist_barrier();

        // Arm the log. CounterAtomic: this single write flips which
        // version recovery trusts (Table 1, commit row, mirrored).
        self.pm
            .write_u64_counter_atomic(self.log.valid_addr(), LOG_VALID);
        self.pm.clwb(self.log.valid_addr(), 8);
        self.pm.persist_barrier();
    }

    /// Mutate stage: an in-place store. The touched range is persisted at
    /// commit.
    pub fn write(&mut self, addr: ByteAddr, bytes: &[u8]) {
        self.seal();
        self.pm.write(addr, bytes);
        self.mutated.push((addr, bytes.len()));
    }

    /// Mutate-stage store of a little-endian `u64`.
    pub fn write_u64(&mut self, addr: ByteAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Reads through to memory (loads are unaffected by the protocol).
    pub fn read_u64(&mut self, addr: ByteAddr) -> u64 {
        self.pm.read_u64(addr)
    }

    /// Reads a byte range.
    pub fn read(&mut self, addr: ByteAddr, buf: &mut [u8]) {
        self.pm.read(addr, buf);
    }

    /// Access to the underlying context for non-transactional reads.
    pub fn pmem(&mut self) -> &mut Pmem {
        self.pm
    }

    /// Commit stage: persists all mutations, then disarms the log with a
    /// single counter-atomic write (Table 1: the only write whose
    /// counter-atomicity is necessary).
    pub fn commit(mut self) {
        self.seal();
        for (addr, len) in std::mem::take(&mut self.mutated) {
            self.pm.clwb(addr, len);
            self.pm.counter_cache_writeback(addr, len);
        }
        self.pm.persist_barrier();

        self.pm
            .write_u64_counter_atomic(self.log.valid_addr(), LOG_INVALID);
        self.pm.clwb(self.log.valid_addr(), 8);
        self.pm.persist_barrier();
        self.pm.commit_marker(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmem::RegionPlanner;
    use nvmm_sim::trace::TraceEvent;

    fn setup() -> (Pmem, UndoLog, ByteAddr) {
        let mut pm = Pmem::for_core(0);
        let mut plan = RegionPlanner::new(pm.region());
        let bytes = UndoLog::layout_bytes(8, 64);
        let log = UndoLog::new(plan.alloc_lines(bytes / LINE_BYTES), 8, 64);
        let data = plan.alloc_lines(4);
        log.format(&mut pm);
        (pm, log, data)
    }

    #[test]
    fn layout_packs_descriptors() {
        // 8 entries of ≤64 B: 2 header + 2 desc lines + 8×2 payload lines.
        assert_eq!(UndoLog::layout_bytes(8, 64), (2 + 2 + 16) * LINE_BYTES);
        let log = UndoLog::new(ByteAddr(0), 8, 64);
        assert_eq!(log.size_bytes(), UndoLog::layout_bytes(8, 64));
        // Descriptors 0..3 share line 2; 4..7 share line 3.
        assert_eq!(log.desc_addr(0).line().0 + 1, log.desc_addr(4).line().0);
        assert_eq!(log.desc_addr(1).0 - log.desc_addr(0).0, 16);
        assert_eq!(log.payload_base().0, 4 * LINE_BYTES);
    }

    #[test]
    fn committed_tx_leaves_new_value() {
        let (mut pm, log, data) = setup();
        pm.write_u64(data, 7);
        let mut tx = Tx::begin(&mut pm, &log, 1);
        tx.log_region(data, 8);
        tx.write_u64(data, 42);
        tx.commit();
        assert_eq!(pm.read_u64(data), 42);
        assert_eq!(pm.read_u64(log.valid_addr()), LOG_INVALID);
    }

    #[test]
    fn log_holds_original_value_during_mutation() {
        let (mut pm, log, data) = setup();
        pm.write_u64(data, 7);
        let mut tx = Tx::begin(&mut pm, &log, 1);
        tx.log_region(data, 8);
        tx.write_u64(data, 42);
        // Descriptor records the (line-aligned) target, payload the
        // original data.
        let desc = log.desc_addr(0);
        assert_eq!(tx.read_u64(desc), data.0);
        assert_eq!(tx.read_u64(ByteAddr(desc.0 + 8)), LINE_BYTES);
        let payload = log.payload_base();
        assert_eq!(tx.read_u64(payload), 7);
        assert_eq!(tx.read_u64(log.valid_addr()), LOG_VALID);
        tx.commit();
    }

    #[test]
    fn valid_flag_writes_are_counter_atomic() {
        let (mut pm, log, data) = setup();
        let mut tx = Tx::begin(&mut pm, &log, 1);
        tx.log_region(data, 8);
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
                if line == valid_line {
                    assert!(
                        counter_atomic,
                        "every valid-flag store must be CounterAtomic"
                    );
                }
            }
        }
    }

    #[test]
    fn non_flag_writes_are_not_counter_atomic() {
        let (mut pm, log, data) = setup();
        let mut tx = Tx::begin(&mut pm, &log, 1);
        tx.log_region(data, 8);
        tx.write_u64(data, 1);
        tx.commit();
        let valid_line = log.valid_addr().line();
        let plain = pm
            .trace()
            .iter()
            .filter(|e| {
                matches!(e, TraceEvent::Write { line, counter_atomic: false, .. } if *line != valid_line)
            })
            .count();
        assert!(
            plain > 0,
            "prepare/mutate writes must stay plain (the SCA win)"
        );
    }

    #[test]
    fn barrier_separates_payload_from_valid_flag() {
        // The order in the trace must be: payload writes ... barrier ...
        // valid=1 ... barrier ... mutations ...
        let (mut pm, log, data) = setup();
        let mut tx = Tx::begin(&mut pm, &log, 1);
        tx.log_region(data, 8);
        tx.write_u64(data, 1);
        tx.commit();
        let trace = pm.trace();
        let valid_line = log.valid_addr().line();
        let first_valid_arm = trace
            .iter()
            .position(|e| {
                matches!(e, TraceEvent::Write { line, data, .. }
                    if line == valid_line && data[0] == LOG_VALID as u8)
            })
            .expect("valid flag armed");
        let barrier_before = trace
            .iter()
            .take(first_valid_arm)
            .rposition(|e| matches!(e, TraceEvent::PersistBarrier));
        assert!(
            barrier_before.is_some(),
            "payload must be fenced before arming the log"
        );
    }

    #[test]
    #[should_panic(expected = "precede the mutate stage")]
    fn logging_after_mutation_panics() {
        let (mut pm, log, data) = setup();
        let mut tx = Tx::begin(&mut pm, &log, 1);
        tx.log_region(data, 8);
        tx.write_u64(data, 1);
        tx.log_region(ByteAddr(data.0 + 8), 8);
    }

    #[test]
    #[should_panic(expected = "entry table full")]
    fn log_overflow_panics() {
        let (mut pm, log, data) = setup();
        let mut tx = Tx::begin(&mut pm, &log, 1);
        for _ in 0..100 {
            tx.log_region(data, 64);
        }
    }

    #[test]
    fn abandoned_tx_keeps_log_armed() {
        let (mut pm, log, data) = setup();
        {
            let mut tx = Tx::begin(&mut pm, &log, 1);
            tx.log_region(data, 8);
            tx.write_u64(data, 5);
            // dropped without commit
        }
        assert_eq!(pm.read_u64(log.valid_addr()), LOG_VALID);
    }

    #[test]
    fn multiple_regions_logged() {
        let (mut pm, log, data) = setup();
        pm.write_u64(data, 1);
        pm.write_u64(ByteAddr(data.0 + 64), 2);
        let mut tx = Tx::begin(&mut pm, &log, 1);
        tx.log_region(data, 8);
        tx.log_region(ByteAddr(data.0 + 64), 8);
        tx.write_u64(data, 10);
        tx.write_u64(ByteAddr(data.0 + 64), 20);
        tx.commit();
        assert_eq!(pm.read_u64(log.count_addr()), 2);
        assert_eq!(pm.read_u64(data), 10);
    }

    #[test]
    fn five_entries_span_two_desc_lines() {
        let (mut pm, log, data) = setup();
        let mut tx = Tx::begin(&mut pm, &log, 1);
        for i in 0..5 {
            tx.log_region(ByteAddr(data.0 + i * 8), 8);
        }
        tx.write_u64(data, 1);
        tx.commit();
        assert_eq!(pm.read_u64(log.count_addr()), 5);
        // Entry 4's descriptor lives on the second descriptor line.
        let mut b = [0u8; 8];
        pm.peek(log.desc_addr(4), &mut b);
        assert_eq!(u64::from_le_bytes(b), data.0); // line-aligned target
    }

    #[test]
    fn commit_emits_marker() {
        let (mut pm, log, data) = setup();
        let mut tx = Tx::begin(&mut pm, &log, 77);
        tx.log_region(data, 8);
        tx.write_u64(data, 1);
        tx.commit();
        assert!(pm
            .trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::TxCommit { id: 77 })));
    }
}
