//! A mechanism-polymorphic transaction handle.
//!
//! The paper's insight is mechanism-agnostic (§4.2): any versioned
//! crash-consistency scheme has writes that do not immediately affect
//! the recoverable state. [`Txn`] lets a workload be written once and
//! executed under either undo logging ([`crate::undo::Tx`]) or redo
//! logging ([`crate::redo::RedoTx`]), so the crash-consistency test
//! suite covers both.

use crate::pmem::Pmem;
use crate::recovery::{recover_redo_log, recover_undo_log, RecoveredMemory, RecoveryReport};
use crate::redo::RedoTx;
use crate::undo::{Tx, UndoLog};
use nvmm_sim::addr::ByteAddr;

/// Which versioning mechanism a transaction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Backup-then-mutate-in-place (§4.2's walkthrough; Table 1).
    UndoLog,
    /// Stage-then-apply with deferred in-place updates.
    RedoLog,
}

impl Mechanism {
    /// Both mechanisms.
    pub const ALL: [Mechanism; 2] = [Mechanism::UndoLog, Mechanism::RedoLog];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::UndoLog => "undo",
            Mechanism::RedoLog => "redo",
        }
    }

    /// Runs the mechanism's recovery procedure over `mem`.
    pub fn recover(self, mem: &mut RecoveredMemory, log: &UndoLog) -> RecoveryReport {
        match self {
            Mechanism::UndoLog => recover_undo_log(mem, log),
            Mechanism::RedoLog => recover_redo_log(mem, log),
        }
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A transaction under either mechanism, with one API.
#[derive(Debug)]
pub enum Txn<'a> {
    /// Undo-logging transaction.
    Undo(Tx<'a>),
    /// Redo-logging transaction.
    Redo(RedoTx<'a>),
}

impl<'a> Txn<'a> {
    /// Begins a transaction with the chosen mechanism.
    pub fn begin(pm: &'a mut Pmem, log: &'a UndoLog, id: u64, mechanism: Mechanism) -> Self {
        match mechanism {
            Mechanism::UndoLog => Txn::Undo(Tx::begin(pm, log, id)),
            Mechanism::RedoLog => Txn::Redo(RedoTx::begin(pm, log, id)),
        }
    }

    /// Declares that `[addr, addr+len)` will be mutated. Undo logging
    /// snapshots it; redo logging needs no backup (a no-op).
    pub fn log_region(&mut self, addr: ByteAddr, len: usize) {
        match self {
            Txn::Undo(tx) => tx.log_region(addr, len),
            Txn::Redo(_) => {}
        }
    }

    /// Transactional store.
    pub fn write(&mut self, addr: ByteAddr, bytes: &[u8]) {
        match self {
            Txn::Undo(tx) => tx.write(addr, bytes),
            Txn::Redo(tx) => tx.write(addr, bytes),
        }
    }

    /// Transactional little-endian `u64` store.
    pub fn write_u64(&mut self, addr: ByteAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Transactional read (read-your-writes under redo).
    pub fn read(&mut self, addr: ByteAddr, buf: &mut [u8]) {
        match self {
            Txn::Undo(tx) => tx.read(addr, buf),
            Txn::Redo(tx) => tx.read(addr, buf),
        }
    }

    /// Transactional little-endian `u64` read.
    pub fn read_u64(&mut self, addr: ByteAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Commits under the chosen protocol.
    pub fn commit(self) {
        match self {
            Txn::Undo(tx) => tx.commit(),
            Txn::Redo(tx) => tx.commit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmem::RegionPlanner;

    fn setup() -> (Pmem, UndoLog, ByteAddr) {
        let mut pm = Pmem::for_core(0);
        let mut plan = RegionPlanner::new(pm.region());
        let log = UndoLog::new(plan.alloc_lines(64), 8, 64);
        let data = plan.alloc_lines(2);
        log.format(&mut pm);
        (pm, log, data)
    }

    #[test]
    fn both_mechanisms_produce_the_same_final_state() {
        let mut finals = Vec::new();
        for mech in Mechanism::ALL {
            let (mut pm, log, data) = setup();
            pm.write_u64(data, 10);
            let mut tx = Txn::begin(&mut pm, &log, 0, mech);
            tx.log_region(data, 8);
            let v = tx.read_u64(data);
            tx.write_u64(data, v * 3);
            tx.write_u64(ByteAddr(data.0 + 64), v + 1);
            tx.commit();
            finals.push((pm.read_u64(data), pm.read_u64(ByteAddr(data.0 + 64))));
        }
        assert_eq!(finals[0], (30, 11));
        assert_eq!(finals[0], finals[1], "mechanisms must agree functionally");
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(Mechanism::UndoLog.to_string(), "undo");
        assert_eq!(Mechanism::RedoLog.to_string(), "redo");
    }

    #[test]
    fn read_your_writes_under_both() {
        for mech in Mechanism::ALL {
            let (mut pm, log, data) = setup();
            let mut tx = Txn::begin(&mut pm, &log, 0, mech);
            tx.log_region(data, 8);
            tx.write_u64(data, 5);
            assert_eq!(tx.read_u64(data), 5, "{mech}");
            tx.commit();
        }
    }
}
