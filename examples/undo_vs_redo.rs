//! Undo vs redo logging under crashes: the same transfer transaction run
//! with both mechanisms, crashed in every crash state, showing where
//! each mechanism's durable commit point lands.
//!
//! Undo logging commits when the log is *disarmed* (valid = 0 persists);
//! redo logging commits when the log is *armed* (valid = 1 persists) —
//! before the in-place apply has happened. At every crash point both
//! must recover a consistent state; they just differ in which
//! transactions survive.
//!
//! ```sh
//! cargo run --release --example undo_vs_redo
//! ```

use nvmm::core::pmem::{Pmem, RegionPlanner};
use nvmm::core::recovery::RecoveredMemory;
use nvmm::core::txn::{Mechanism, Txn};
use nvmm::core::undo::UndoLog;
use nvmm::sim::addr::ByteAddr;
use nvmm::sim::config::{Design, SimConfig};
use nvmm::sim::system::{breakpoint_images, instant_after_events};

/// Builds the trace for one 100 → 250 transfer under `mech`. The
/// initial balance persists counter-atomically, like the log's format:
/// recovery reads it in every crash state.
fn build(mech: Mechanism) -> (nvmm::sim::Trace, UndoLog, ByteAddr) {
    let mut pm = Pmem::for_core(0);
    let mut plan = RegionPlanner::new(pm.region());
    let log = UndoLog::new(plan.alloc_lines(64), 8, 64);
    let balance = plan.alloc_lines(1);
    log.format(&mut pm);

    pm.write_u64_counter_atomic(balance, 100);
    pm.clwb(balance, 8);
    pm.persist_barrier();

    let mut tx = Txn::begin(&mut pm, &log, 0, mech);
    tx.log_region(balance, 8);
    tx.write_u64(balance, 250);
    tx.commit();

    let (trace, _) = pm.into_parts();
    (trace, log, balance)
}

fn main() {
    println!("crash-sweeping one transaction under each mechanism (SCA)\n");
    for mech in Mechanism::ALL {
        let (trace, log, balance) = build(mech);
        let cfg = SimConfig::single_core(Design::Sca);
        let end = instant_after_events(&cfg, &trace, trace.len());
        let images = breakpoint_images(&cfg, &trace, 0);
        let mut first_committed_at = None;
        for (t, image) in &images {
            let mut mem =
                RecoveredMemory::over(image, nvmm::crypto::EncryptionEngine::new(cfg.key));
            let report = mech.recover(&mut mem, &log);
            assert!(report.reads_clean, "{mech}: crash at {t} garbled recovery");
            // 0 = crash before the setup write persisted (fresh memory).
            let v = mem.read_u64(balance);
            assert!(
                v == 0 || v == 100 || v == 250,
                "{mech}: inconsistent balance {v} at {t}"
            );
            if v == 250 && first_committed_at.is_none() {
                first_committed_at = Some(*t);
            }
        }
        let commit_point = first_committed_at.expect("the transfer commits eventually");
        println!(
            "{mech:>5} logging: consistent in all {} crash states; \
             new value durable from {commit_point} ({}% through the run)",
            images.len(),
            commit_point.0 * 100 / end.0
        );
    }
    println!("\nRedo's commit point lands earlier: the staged log is the truth the");
    println!("moment its valid flag persists, while undo must finish the in-place");
    println!("update first. Both need exactly two CounterAtomic stores per transaction.");
}
