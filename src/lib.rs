//! # nvmm — crash consistency for encrypted non-volatile main memory
//!
//! A from-scratch Rust reproduction of *Crash Consistency in Encrypted
//! Non-Volatile Main Memory Systems* (HPCA 2018): **counter-atomicity**
//! and **selective counter-atomicity** for NVMM systems that use
//! counter-mode memory encryption.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`crypto`] — AES-128, one-time pads, counters ([`nvmm_crypto`]).
//! * [`sim`] — the deterministic memory-system timing simulator:
//!   caches, counter cache, paired write queues with ready bits, banked
//!   PCM device, ADR crash semantics ([`nvmm_sim`]).
//! * [`core`] — the programming model: persistency primitives
//!   (`CounterAtomic` stores, `counter_cache_writeback`, `clwb`,
//!   `persist_barrier`), undo-log transactions, post-crash recovery
//!   ([`nvmm_core`]).
//! * [`workloads`] — the paper's five persistent data-structure
//!   workloads plus the crash-consistency checking harness
//!   ([`nvmm_workloads`]).
//!
//! # Quick start
//!
//! ```
//! use nvmm::sim::config::{Design, SimConfig};
//! use nvmm::sim::system::CrashSpec;
//! use nvmm::sim::Time;
//! use nvmm::workloads::{crash_check_cfg, WorkloadKind, WorkloadSpec};
//!
//! // Run a persistent hash table under selective counter-atomicity,
//! // pull the power 30 µs in, and verify recovery.
//! let spec = WorkloadSpec::smoke(WorkloadKind::HashTable);
//! let sca = SimConfig::single_core(Design::Sca);
//! let crash = CrashSpec::AtTime(Time::from_ns(30_000));
//! let outcome = crash_check_cfg(&spec, sca, crash, 0).unwrap();
//! println!("{} transactions survived the crash", outcome.committed);
//! ```
//!
//! See the `examples/` directory for runnable demonstrations and the
//! `nvmm-bench` crate for the binaries that regenerate every table and
//! figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nvmm_core as core;
pub use nvmm_crypto as crypto;
pub use nvmm_sim as sim;
pub use nvmm_workloads as workloads;
