//! Quickstart: write a value transactionally to encrypted NVMM, pull the
//! power at an arbitrary instant, and recover.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nvmm::core::pmem::{Pmem, RegionPlanner};
use nvmm::core::recovery::{recover_undo_log, RecoveredMemory};
use nvmm::core::undo::{Tx, UndoLog};
use nvmm::sim::config::{Design, SimConfig};
use nvmm::sim::system::{instant_after_events, CrashSpec, System};

fn main() {
    // 1. Program against persistent memory (functional phase). The trace
    //    of every access is recorded for timing replay.
    let mut pm = Pmem::for_core(0);
    let mut plan = RegionPlanner::new(pm.region());
    let log = UndoLog::new(plan.alloc_lines(64), 8, 64);
    let balance = plan.alloc_lines(1);
    log.format(&mut pm);

    // Persist an initial balance of 100.
    pm.write_u64(balance, 100);
    pm.clwb(balance, 8);
    pm.counter_cache_writeback(balance, 8);
    pm.persist_barrier();

    // Transactionally move it to 250. Only the undo log's valid flag
    // needs a CounterAtomic store; everything else flows freely.
    let mut tx = Tx::begin(&mut pm, &log, 0);
    tx.log_region(balance, 8);
    tx.write_u64(balance, 250);
    tx.commit();

    // 2. Replay through the timing simulator under selective
    //    counter-atomicity and crash somewhere in the middle.
    let (trace, _) = pm.into_parts();
    let total = trace.len() as u64;
    let cfg = SimConfig::single_core(Design::Sca);
    let key = cfg.key;
    let crash_at = instant_after_events(&cfg, &trace, trace.len() / 2 + 1);
    let out = System::new(cfg, vec![trace]).run(CrashSpec::AtTime(crash_at));
    println!(
        "simulated {} of {} events, crashed at t={}",
        out.events_processed,
        total,
        out.crash_time.expect("crash was injected")
    );

    // 3. Recover: decrypt NVMM with the *persisted* counters and replay
    //    the undo log.
    let mut mem = RecoveredMemory::new(out.image, key);
    let report = recover_undo_log(&mut mem, &log);
    let recovered = mem.read_u64(balance);
    println!(
        "recovery: rolled_back={} reads_clean={} balance={}",
        report.rolled_back, report.reads_clean, recovered
    );
    assert!(
        report.reads_clean,
        "SCA never lets recovery read a garbled line"
    );
    assert!(
        recovered == 100 || recovered == 250 || recovered == 0,
        "balance must be the old value, the new value, or untouched — never garbage"
    );
    println!("OK: the balance is consistent across the crash.");
}
