//! Panic isolation for sweep tasks.
//!
//! [`par_map_deterministic`](crate::par_map_deterministic) gives sweeps
//! deterministic *parallelism* but no failure story: one panicking task
//! unwinds the whole map. Wrapping each task's body in [`run_isolated`]
//! adds one: a panicking sweep point becomes a structured
//! [`TaskFailure::Panicked`] in that point's slot instead of tearing
//! down its siblings. Runs are deterministic, so a failed point is
//! reported, not retried: a second attempt would fail the same way.
//!
//! # Examples
//!
//! ```
//! use sim_engine::{run_isolated, TaskFailure, WorkerPool};
//!
//! let results = WorkerPool::new(4).map((0..8u64).collect(), |x| {
//!     run_isolated(|| {
//!         if x == 3 {
//!             panic!("task 3 is broken");
//!         }
//!         Ok(x * x)
//!     })
//! });
//! assert_eq!(results[2], Ok(4));
//! assert!(matches!(results[3], Err(TaskFailure::Panicked { .. })));
//! ```

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why an isolated task did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskFailure {
    /// The task panicked; `payload` is the stringified panic message.
    Panicked {
        /// The panic message (or a placeholder for non-string payloads).
        payload: String,
    },
    /// The task hit a run budget (event ceiling, sim-time ceiling, or
    /// progress watchdog) and returned a structured trip instead of
    /// hanging.
    BudgetExceeded {
        /// Human-readable description of the tripped budget and the
        /// diagnostic snapshot taken at the trip.
        detail: String,
    },
    /// The task returned a domain error (e.g. a fabric fault downed a
    /// link mid-run).
    Failed {
        /// The domain error, rendered.
        detail: String,
    },
}

impl TaskFailure {
    /// Stable short label for grouping and report rendering.
    pub fn kind(&self) -> &'static str {
        match self {
            TaskFailure::Panicked { .. } => "panic",
            TaskFailure::BudgetExceeded { .. } => "budget",
            TaskFailure::Failed { .. } => "error",
        }
    }
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskFailure::Panicked { payload } => write!(f, "panicked: {payload}"),
            TaskFailure::BudgetExceeded { detail } => write!(f, "budget exceeded: {detail}"),
            TaskFailure::Failed { detail } => write!(f, "failed: {detail}"),
        }
    }
}

impl std::error::Error for TaskFailure {}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "opaque panic payload".to_string(),
        },
    }
}

/// Runs `f` under `catch_unwind`, turning a panic into
/// [`TaskFailure::Panicked`]; a returned failure passes through.
///
/// Call it inside a [`WorkerPool::map`](crate::WorkerPool::map) closure
/// to keep one point's panic from unwinding the whole sweep. The panic
/// hook still runs, so the panic message also reaches stderr.
pub fn run_isolated<R>(f: impl FnOnce() -> Result<R, TaskFailure>) -> Result<R, TaskFailure> {
    // AssertUnwindSafe: a panicking task's partial state is discarded
    // wholesale; nothing observes it after the unwind.
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(TaskFailure::Panicked {
            payload: panic_message(payload),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkerPool;

    #[test]
    fn clean_supervised_map_matches_plain_map() {
        for jobs in [1, 2, 4] {
            let isolated =
                WorkerPool::new(jobs).map((0..16u64).collect(), |x| run_isolated(|| Ok(x * x)));
            let plain: Vec<Result<u64, TaskFailure>> = (0..16u64).map(|x| Ok(x * x)).collect();
            assert_eq!(isolated, plain, "jobs={jobs}");
        }
    }

    #[test]
    fn panicking_task_is_isolated() {
        for jobs in [1, 4] {
            let results = WorkerPool::new(jobs).map((0..16u64).collect(), |x| {
                run_isolated(|| {
                    if x == 7 {
                        panic!("task seven exploded");
                    }
                    Ok(x)
                })
            });
            for (i, r) in results.iter().enumerate() {
                if i == 7 {
                    match r {
                        Err(TaskFailure::Panicked { payload }) => {
                            assert!(payload.contains("task seven exploded"));
                        }
                        other => panic!("expected panic failure, got {other:?}"),
                    }
                } else {
                    assert_eq!(*r, Ok(i as u64), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn failure_labels_and_display() {
        let f = TaskFailure::BudgetExceeded {
            detail: "events > 10".to_string(),
        };
        assert_eq!(f.kind(), "budget");
        assert_eq!(f.to_string(), "budget exceeded: events > 10");
        assert_eq!(
            TaskFailure::Panicked {
                payload: "p".to_string()
            }
            .kind(),
            "panic"
        );
    }
}
