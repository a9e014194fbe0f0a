//! # nvmm-workloads
//!
//! The five persistent data-structure workloads of the paper's §6.2 —
//! Array Swap, Queue, Hash Table, B-Tree, Red-Black Tree — implemented
//! over the `nvmm-core` transaction API with selective-counter-atomicity
//! annotations, plus the harness that replays them through the timing
//! simulator and the crash-consistency checking protocol.
//!
//! Each workload module provides:
//!
//! * `execute(spec, core, ops)` — deterministic functional execution
//!   producing a program-order trace (every transaction follows the
//!   three-stage prepare/mutate/commit protocol, undo-logging every
//!   region it mutates);
//! * a `Layout` describing where the structure lives; and
//! * `check(...)` — structural invariants validated against a recovered
//!   (post-crash) memory: multiset preservation for the array, FIFO
//!   windows for the queue, chain reachability for the hash table, BST
//!   order + balance for the B-tree, and the full red-black invariants
//!   for the RB-tree.
//!
//! The [`harness`] module adds the replay-equality check: recovery must
//! land on exactly the state after the last durably committed
//! transaction.
//!
//! # Examples
//!
//! ```
//! use nvmm_workloads::harness::{crash_check_cfg, run_timed};
//! use nvmm_workloads::spec::{WorkloadKind, WorkloadSpec};
//! use nvmm_sim::config::{Design, SimConfig};
//! use nvmm_sim::system::CrashSpec;
//!
//! let spec = WorkloadSpec::smoke(WorkloadKind::Queue);
//!
//! // Timing run: how long does SCA take on one core?
//! let out = run_timed(&spec, Design::Sca, 1);
//! assert!(out.stats.runtime > nvmm_sim::Time::ZERO);
//!
//! // Crash run: recovery after a power failure 20 µs into the run.
//! let sca = SimConfig::single_core(Design::Sca);
//! let at = nvmm_sim::Time::from_ns(20_000);
//! let outcome = crash_check_cfg(&spec, sca, CrashSpec::AtTime(at), 0).unwrap();
//! assert!(outcome.committed <= spec.ops as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array_swap;
pub mod arrival;
pub mod btree;
pub mod harness;
pub mod hash_table;
pub mod queue;
pub mod rbtree;
pub mod spec;
mod util;

pub use arrival::{shape_open_loop, ArrivalCurve, ArrivalModel};
pub use harness::{
    check_crash_set, check_image, check_images, crash_check_cfg, crash_instants_cfg, execute,
    model_check_breakpoints, model_check_cfg, model_check_chosen, model_check_instants_cfg,
    run_timed, traces_for_cores, CrashCheckOutcome, Executed, MinimalViolation, ModelCheckOpts,
    ModelCheckReport,
};
pub use spec::{WorkloadKind, WorkloadSpec};
pub use util::ConsistencyError;
