//! The scoped-thread fan-out shared by every parallel loop in the
//! workspace.
//!
//! [`run_parallel`] is the pattern the bench sweep engine established:
//! independent jobs are pulled off an atomic cursor by up to `threads`
//! scoped workers and the results are reassembled **by job index**, so
//! the output vector is bit-identical whatever the thread count or
//! completion order. The crash model checker reuses it to split one
//! model check's crash instants into runs, and the bench sweep engine
//! delegates to it for trace generation and simulation fan-out. Every
//! job is independent work: a whole simulation or a run of crash
//! instants. A single replay, and the walk of a single
//! [`crate::crashmc::CrashSet`], runs on one thread.
//!
//! [`mc_threads`] is the model checker's worker count over crash
//! instants: `NVMM_MC_THREADS`, defaulting to `NVMM_THREADS`, defaulting
//! to the machine's available parallelism ([`host_cores`]). Keeping it
//! separate from `NVMM_THREADS` lets CI pin the checker while the sweep
//! engine stays wide (and vice versa).

use crate::knob::env_u64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Distributes `jobs` over up to `threads` scoped workers, returning
/// results in job order. A single thread (or a single job) runs inline
/// on the calling thread, in order — the parallel and sequential paths
/// produce identical output by construction.
pub fn run_parallel<T: Sync, R: Send>(
    threads: usize,
    jobs: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let result = f(job);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker completed")
        })
        .collect()
}

/// Splits `0..n` into up to `parts` contiguous, near-equal ranges, in
/// order (the first `n % parts` ranges one longer).
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// The machine's available parallelism (1 when it cannot be read).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The model checker's worker count over crash instants:
/// `NVMM_MC_THREADS` if set, else `NVMM_THREADS`, else [`host_cores`].
/// Clamped to at least 1.
///
/// # Panics
///
/// Panics when either knob is set but is not an unsigned integer
/// ([`env_u64`]).
pub fn mc_threads() -> usize {
    let threads = env_u64("NVMM_THREADS", host_cores() as u64);
    (env_u64("NVMM_MC_THREADS", threads) as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_job_order_any_thread_count() {
        let jobs: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for threads in [1, 2, 4, 16, 64] {
            assert_eq!(run_parallel(threads, &jobs, |j| j * j), expect);
        }
    }

    #[test]
    fn empty_and_single_job_run_inline() {
        let none: Vec<u64> = Vec::new();
        assert!(run_parallel(8, &none, |j| *j).is_empty());
        assert_eq!(run_parallel(8, &[5u64], |j| j + 1), vec![6]);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        assert_eq!(run_parallel(32, &[1u64, 2], |j| *j), vec![1, 2]);
    }
}
