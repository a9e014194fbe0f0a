//! # nvmm-core
//!
//! The primary contribution of *Crash Consistency in Encrypted
//! Non-Volatile Main Memory Systems* (HPCA 2018), reproduced as a Rust
//! library: **counter-atomicity** and **selective counter-atomicity**
//! for NVMM systems using counter-mode memory encryption.
//!
//! The crate provides the paper's programming model and its recovery
//! semantics:
//!
//! * [`pmem::Pmem`] — a persistent-memory context exposing the
//!   persistency primitives: ordinary stores, `clwb`,
//!   `persist_barrier`, plus the paper's two new primitives
//!   (§4.3): **`CounterAtomic` stores**
//!   ([`pmem::Pmem::write_counter_atomic`]) and
//!   **`counter_cache_writeback()`**
//!   ([`pmem::Pmem::counter_cache_writeback`]).
//! * [`undo`] — three-stage undo-log transactions (prepare / mutate /
//!   commit, Table 1) that need counter-atomicity *only* for the log's
//!   valid flag; everything else may be buffered, coalesced and
//!   reordered — the paper's key insight.
//! * [`recovery`] — the post-crash pipeline: decrypt the NVMM image with
//!   the *persisted* counters (garbling on any version mismatch, Eq. 4),
//!   then roll back armed transactions.
//!
//! Execution is two-phase: a workload runs once functionally against a
//! [`pmem::Pmem`] (producing real bytes and a program-order trace), and
//! the trace is then replayed through `nvmm-sim`'s timing model under any
//! of the paper's designs — `NoEncryption`, `Ideal`, co-located (± a
//! counter cache), `FCA`, `SCA`, or the deliberately unsafe baseline.
//!
//! # Examples
//!
//! A complete write → crash → recover round trip under SCA:
//!
//! ```
//! use nvmm_core::pmem::{Pmem, RegionPlanner};
//! use nvmm_core::recovery::{recover_undo_log, RecoveredMemory};
//! use nvmm_core::undo::{Tx, UndoLog};
//! use nvmm_sim::config::{Design, SimConfig};
//! use nvmm_sim::system::{instant_after_events, CrashSpec, System};
//!
//! // Functional phase: one transaction moving a value 100 -> 200.
//! let mut pm = Pmem::for_core(0);
//! let mut plan = RegionPlanner::new(pm.region());
//! let log = UndoLog::new(plan.alloc_lines(64), 8, 64);
//! let cell = plan.alloc_lines(1);
//! log.format(&mut pm);
//! pm.write_u64(cell, 100);
//! pm.clwb(cell, 8);
//! pm.counter_cache_writeback(cell, 8);
//! pm.persist_barrier();
//! let mut tx = Tx::begin(&mut pm, &log, 0);
//! tx.log_region(cell, 8);
//! tx.write_u64(cell, 200);
//! tx.commit();
//!
//! // Timing phase: replay under SCA and crash mid-way, after event 10.
//! let (trace, _) = pm.into_parts();
//! let cfg = SimConfig::single_core(Design::Sca);
//! let key = cfg.key;
//! let t = instant_after_events(&cfg, &trace, 11);
//! let out = System::new(cfg, vec![trace]).run(CrashSpec::AtTime(t));
//!
//! // Recovery: always lands on 100 or 200, never garbage.
//! let mut mem = RecoveredMemory::new(out.image, key);
//! let report = recover_undo_log(&mut mem, &log);
//! assert!(report.reads_clean);
//! let v = mem.read_u64(cell);
//! assert!(v == 100 || v == 200 || v == 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pmem;
pub mod recovery;
pub mod redo;
pub mod shadow;
pub mod txn;
pub mod undo;

pub use pmem::{Pmem, RegionPlanner};
pub use recovery::{recover_undo_log, RecoveredMemory, RecoveryReport};
pub use redo::{recover_redo_log, RedoTx};
pub use shadow::ShadowCell;
pub use txn::{Mechanism, Txn};
pub use undo::{Tx, UndoLog};
