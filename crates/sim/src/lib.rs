//! # nvmm-sim
//!
//! A deterministic, trace-replay memory-system simulator for encrypted
//! non-volatile main memory (NVMM), built from scratch to reproduce the
//! evaluation platform of *Crash Consistency in Encrypted Non-Volatile
//! Main Memory Systems* (HPCA 2018).
//!
//! The simulator models, at cache-line granularity:
//!
//! * per-core L1/L2 write-back caches carrying real payloads,
//! * a shared counter cache for counter-mode encryption,
//! * a memory controller with a 64-entry data write queue and 16-entry
//!   counter write queue, **ready bits**, pairing, and coalescing,
//! * a banked PCM device behind a shared DDR3 bus with the paper's
//!   Table 2 timings,
//! * ADR crash semantics: at a power failure, exactly the *ready* write
//!   queue entries drain; everything else is lost.
//!
//! All designs of the paper's §6.1 are implemented (plus a deliberately
//! crash-unsafe baseline used to demonstrate the motivating failure):
//! see [`config::Design`].
//!
//! The functional programming model (persistent heaps, transactions,
//! recovery) lives in the `nvmm-core` crate; workloads in
//! `nvmm-workloads`.
//!
//! # Examples
//!
//! ```
//! use nvmm_sim::addr::LineAddr;
//! use nvmm_sim::config::{Design, SimConfig};
//! use nvmm_sim::system::{CrashSpec, System};
//! use nvmm_sim::trace::{Trace, TraceEvent};
//!
//! // One store, persisted with clwb + counter writeback + barrier.
//! let mut trace = Trace::new();
//! trace.push(TraceEvent::Write {
//!     line: LineAddr(1),
//!     data: [0xab; 64],
//!     counter_atomic: false,
//! });
//! trace.push(TraceEvent::Clwb { line: LineAddr(1) });
//! trace.push(TraceEvent::CounterCacheWriteback { line: LineAddr(1) });
//! trace.push(TraceEvent::PersistBarrier);
//!
//! let cfg = SimConfig::single_core(Design::Sca);
//! let key = cfg.key;
//! let out = System::new(cfg, vec![trace]).run(CrashSpec::None);
//!
//! let engine = nvmm_crypto::EncryptionEngine::new(key);
//! assert!(out.image.read_line(LineAddr(1), &engine).is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod attack;
pub mod cache;
pub mod config;
mod controller;
pub mod crashmc;
pub mod device;
pub mod integrity;
pub mod knob;
pub mod nvmm;
pub mod parallel;
pub mod shard;
pub mod stats;
pub mod system;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod wq;

pub use addr::{ByteAddr, CounterLineAddr, LineAddr, MacLineAddr, ShardMap, TreeNodeAddr};
pub use attack::{
    expected_vulnerable, run_detection_row, snapshot_pair, synthesize, victim_lines, AttackKind,
    AttackOutcome, MatrixCell, SnapshotPair,
};
pub use config::{Design, Fault, IntegrityPolicy, SimConfig};
pub use crashmc::{CrashSet, CutSchedule, EnumOpts, EnumStats, Enumeration, LandMask};
pub use device::WearReport;
pub use integrity::{
    recovery_cost, verify_image, verify_image_attack, AttackVerdict, DigestLine, FreshnessRef,
    IntegritySpec,
};
pub use nvmm::{LineRead, NvmmImage};
pub use parallel::{mc_threads, run_parallel};
pub use shard::ShardedController;
pub use stats::{LatencyHist, Stats};
pub use system::{run_to_completion, CrashSpec, CrashSweep, RunOutcome, SweepCursor, System};
pub use telemetry::{EpochSample, Timeline};
pub use time::Time;
pub use trace::{Trace, TraceEvent};
