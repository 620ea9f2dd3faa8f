//! Deterministic parallel execution for experiment sweeps.
//!
//! Every point of a paper sweep — one (workload, paradigm, parameter)
//! simulation — is an independent, fully deterministic computation, so
//! the harness can fan sweeps out across OS threads without changing a
//! single output bit. This module provides the primitive that makes the
//! determinism contract structural rather than accidental:
//!
//! - [`par_map_deterministic`] / [`WorkerPool::map`]: results are
//!   returned **in input order**, regardless of which worker finished
//!   first or in what order tasks were claimed.
//! - Tasks share no mutable state through the pool: a sweep point that
//!   draws random numbers seeds its own streams from its config, so its
//!   draws are identical whether it ran first on one thread or last on
//!   sixteen.
//! - With one worker the tasks run inline on the calling thread in input
//!   order: `jobs = 1` reproduces the historical serial path exactly.
//!
//! The pool uses scoped threads (`std::thread::scope`) and carries no
//! external dependencies: workers claim task indices from an atomic
//! counter and write results into per-slot cells, so there is no channel
//! reordering to undo and no executor state that outlives the call.
//!
//! # Examples
//!
//! ```
//! use sim_engine::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let squares = pool.map((0u64..8).collect(), |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Same inputs, any worker count: byte-identical results.
//! assert_eq!(squares, WorkerPool::new(1).map((0u64..8).collect(), |x| x * x));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a slot mutex, tolerating poison.
///
/// Slot mutexes guard per-index cells that exactly one worker ever
/// touches, and no invariant spans a panic inside `f` (the closure runs
/// with no lock held). A poisoned slot therefore carries intact data:
/// recover it instead of cascading a sibling worker's `.expect` panic on
/// top of the original one.
fn lock_tolerant<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Maps `f` over `tasks` on up to `jobs` worker threads, returning
/// results in input order.
///
/// Determinism contract: the output vector is ordered by task index,
/// and `jobs = 1` runs everything inline on the calling thread in input
/// order. Provided `f` itself is a pure function of its argument, the
/// output is byte-identical for every `jobs` value.
///
/// # Panics
///
/// Panics if `jobs == 0`, or propagates the first panic raised inside
/// `f` (scoped-thread join semantics).
pub fn par_map_deterministic<T, R, F>(jobs: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert!(jobs > 0, "worker pool needs at least one job slot");
    let n = tasks.len();
    if jobs == 1 || n <= 1 {
        // The historical serial path: inline, in order, no threads.
        return tasks.into_iter().map(f).collect();
    }
    let task_slots: Vec<Mutex<Option<T>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let result_slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = lock_tolerant(&task_slots[i])
                    .take()
                    .expect("each task index is claimed exactly once");
                let result = f(task);
                *lock_tolerant(&result_slots[i]) = Some(result);
            });
        }
    });
    result_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every claimed task stored a result")
        })
        .collect()
}

/// A scoped-thread worker pool for deterministic experiment sweeps.
///
/// Thin, copyable configuration over [`par_map_deterministic`]: the
/// threads themselves live only for the duration of each `map` call, so
/// a `WorkerPool` can be stored in CLI state or passed by reference
/// without lifetime ceremony.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    jobs: usize,
}

impl WorkerPool {
    /// A pool running up to `jobs` tasks concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `jobs == 0`.
    pub fn new(jobs: usize) -> Self {
        assert!(jobs > 0, "worker pool needs at least one job slot");
        WorkerPool { jobs }
    }

    /// The serial pool: tasks run inline in input order (the
    /// `--jobs 1` reference path).
    pub fn serial() -> Self {
        WorkerPool { jobs: 1 }
    }

    /// A pool sized to the machine's available parallelism (1 when the
    /// runtime cannot tell).
    pub fn default_parallel() -> Self {
        let jobs = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        WorkerPool { jobs }
    }

    /// Maximum concurrent tasks.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// [`par_map_deterministic`] on this pool's workers: results in
    /// input order.
    pub fn map<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        par_map_deterministic(self.jobs, tasks, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let pool = WorkerPool::new(8);
        // Reverse sleep-free skew: late tasks are cheap, early ones costly.
        let out = pool.map((0..64u64).collect(), |i| {
            let mut acc = i;
            for _ in 0..(64 - i) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        let idxs: Vec<u64> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(idxs, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let work = |x: u64| {
            let mut rng = crate::DetRng::new(x, "task");
            x.wrapping_mul(rng.next_u64())
        };
        let serial = par_map_deterministic(1, (0..100).collect(), work);
        for jobs in [2, 3, 4, 7] {
            let par = par_map_deterministic(jobs, (0..100).collect(), work);
            assert_eq!(serial, par, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_task_vectors() {
        let pool = WorkerPool::new(4);
        let empty: Vec<u32> = pool.map(Vec::<u32>::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(pool.map(vec![9u32], |x| x + 1), vec![10]);
    }

    #[test]
    fn seeds_are_identical_across_task_count_edge_cases() {
        // A task seeds its own stream from its input, as a sweep point
        // seeds from its config; its draws must not depend on the pool.
        let draw = |seed: u64| crate::DetRng::new(seed, "point").next_u64();
        // Zero tasks: nothing runs, nothing panics, for any jobs count.
        for jobs in [1, 4] {
            assert!(par_map_deterministic(jobs, Vec::<u64>::new(), draw).is_empty());
        }
        // One task: the inline path draws what a lone task should,
        // whatever the pool size.
        for jobs in [1, 8] {
            assert_eq!(
                par_map_deterministic(jobs, vec![77u64], draw),
                vec![draw(77)]
            );
        }
        // More jobs than tasks: excess workers idle without claiming
        // phantom indices, and each draw still sits at its task's index.
        let few = par_map_deterministic(16, vec![77u64, 78, 79], draw);
        assert_eq!(few, vec![draw(77), draw(78), draw(79)]);
        assert_ne!(few[0], few[1]);
    }

    #[test]
    #[should_panic(expected = "at least one job slot")]
    fn zero_jobs_panics() {
        WorkerPool::new(0);
    }

    #[test]
    fn default_parallel_is_positive() {
        assert!(WorkerPool::default_parallel().jobs() >= 1);
        assert_eq!(WorkerPool::serial().jobs(), 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map_deterministic(4, (0..16u32).collect(), |x| {
                assert!(x != 7, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn worker_panic_does_not_cascade_to_siblings() {
        // One panicking task must not poison sibling workers into their
        // own slot-lock panics: every other task still completes, and
        // the propagated panic is the scope's, not a PoisonError cascade.
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_deterministic(4, (0..32u32).collect(), |x| {
                if x == 3 {
                    panic!("original task panic");
                }
                completed.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::SeqCst), 31);
    }

    #[test]
    fn slot_locks_tolerate_poison() {
        // Poison a slot mutex by panicking while holding its guard, then
        // confirm the tolerant accessor still yields the intact value.
        let slot = Mutex::new(Some(41u32));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = slot.lock().unwrap();
            panic!("poison it");
        }));
        assert!(slot.is_poisoned());
        let v = lock_tolerant(&slot).take();
        assert_eq!(v, Some(41));
    }
}
