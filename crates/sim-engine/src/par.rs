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
//! - Each task receives a [`TaskCtx`] whose seed is derived from a root
//!   seed plus the task *index* (see [`derive_task_seed`]) — never from
//!   a shared mutable RNG — so a task's random streams are identical
//!   whether it ran first on one thread or last on sixteen.
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

use crate::rng::DetRng;

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

/// Derives the seed for task `task_index` of a sweep rooted at
/// `root_seed`.
///
/// A single splitmix64 finalizer over `root ^ f(index)`: cheap, stable
/// across platforms, and avalanching enough that adjacent task indices
/// get unrelated streams. Deriving from the *index* (not from a shared
/// RNG) is what keeps a task's draws independent of execution order.
pub fn derive_task_seed(root_seed: u64, task_index: u64) -> u64 {
    let mut z = root_seed
        ^ task_index
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-task context handed to [`par_map_deterministic`] closures.
#[derive(Debug, Clone, Copy)]
pub struct TaskCtx {
    /// Position of this task in the input vector (== position of its
    /// result in the output vector).
    pub index: usize,
    /// Seed derived from the sweep's root seed and `index`.
    pub seed: u64,
}

impl TaskCtx {
    /// A deterministic RNG stream for this task, labeled like
    /// [`DetRng::new`].
    pub fn rng(&self, stream: &str) -> DetRng {
        DetRng::new(self.seed, stream)
    }
}

/// Maps `f` over `tasks` on up to `jobs` worker threads, returning
/// results in input order.
///
/// Determinism contract: the output vector is ordered by task index;
/// each task's [`TaskCtx::seed`] depends only on `root_seed` and its
/// index; and `jobs = 1` runs everything inline on the calling thread
/// in input order. Provided `f` itself is a pure function of its
/// arguments, the output is byte-identical for every `jobs` value.
///
/// # Panics
///
/// Panics if `jobs == 0`, or propagates the first panic raised inside
/// `f` (scoped-thread join semantics).
pub fn par_map_deterministic<T, R, F>(jobs: usize, root_seed: u64, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(TaskCtx, T) -> R + Sync,
{
    assert!(jobs > 0, "worker pool needs at least one job slot");
    let n = tasks.len();
    let ctx = |index: usize| TaskCtx {
        index,
        seed: derive_task_seed(root_seed, index as u64),
    };
    if jobs == 1 || n <= 1 {
        // The historical serial path: inline, in order, no threads.
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(ctx(i), t))
            .collect();
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
                let result = f(ctx(i), task);
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

    /// [`par_map_deterministic`] with per-task seeds rooted at
    /// `root_seed`.
    pub fn map_seeded<T, R, F>(&self, root_seed: u64, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(TaskCtx, T) -> R + Sync,
    {
        par_map_deterministic(self.jobs, root_seed, tasks, f)
    }

    /// Ordered parallel map for tasks that need no per-task RNG (the
    /// common case: sweep points are already seeded by their configs).
    pub fn map<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        par_map_deterministic(self.jobs, 0, tasks, |_, t| f(t))
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
        let work = |ctx: TaskCtx, x: u64| {
            let mut rng = ctx.rng("task");
            x.wrapping_mul(rng.next_u64()) ^ ctx.seed
        };
        let serial = par_map_deterministic(1, 42, (0..100).collect(), work);
        for jobs in [2, 3, 4, 7] {
            let par = par_map_deterministic(jobs, 42, (0..100).collect(), work);
            assert_eq!(serial, par, "jobs={jobs}");
        }
    }

    #[test]
    fn task_seeds_depend_on_index_and_root() {
        let a = derive_task_seed(1, 0);
        let b = derive_task_seed(1, 1);
        let c = derive_task_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable: same inputs, same seed, forever.
        assert_eq!(derive_task_seed(1, 0), a);
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
        let seed_of = |ctx: TaskCtx, _x: u64| ctx.seed;
        // Zero tasks: nothing runs, nothing panics, for any jobs count.
        for jobs in [1, 4] {
            assert!(par_map_deterministic(jobs, 77, Vec::<u64>::new(), seed_of).is_empty());
        }
        // One task: inline fast path must derive the same seed the
        // threaded path would (index 0 under the same root).
        let one = par_map_deterministic(1, 77, vec![0u64], seed_of);
        assert_eq!(one, vec![derive_task_seed(77, 0)]);
        assert_eq!(one, par_map_deterministic(8, 77, vec![0u64], seed_of));
        // More jobs than tasks: excess workers idle without claiming
        // phantom indices, and seeds still track input position.
        let few = par_map_deterministic(16, 77, (0..3u64).collect(), seed_of);
        let expected: Vec<u64> = (0..3).map(|i| derive_task_seed(77, i)).collect();
        assert_eq!(few, expected);
    }

    #[test]
    fn map_seeded_threads_root_seed_through_pool() {
        let work = |ctx: TaskCtx, x: u64| ctx.rng("stream").next_u64() ^ x;
        let a = WorkerPool::serial().map_seeded(9, (0..5).collect(), work);
        let b = WorkerPool::new(3).map_seeded(9, (0..5).collect(), work);
        assert_eq!(a, b);
        // A different root seed changes every task's stream.
        let c = WorkerPool::serial().map_seeded(10, (0..5).collect(), work);
        assert!(a.iter().zip(&c).all(|(x, y)| x != y));
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
            par_map_deterministic(4, 0, (0..16u32).collect(), |_, x| {
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
            par_map_deterministic(4, 0, (0..32u32).collect(), |_, x| {
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
