//! # sim-engine
//!
//! The discrete-event simulation substrate used by the FinePack
//! reproduction. NVAS — the simulator the paper extends — is proprietary,
//! so this crate provides the equivalent foundations from scratch:
//!
//! - [`SimTime`] / [`Frequency`]: integer-picosecond simulated time and
//!   clock-domain conversion.
//! - [`EventQueue`]: a deterministic, time-ordered event queue that domain
//!   crates drive with their own event payload types.
//! - [`Bandwidth`]: data-rate arithmetic for link serialization delays.
//! - [`Histogram`]: the distributions the paper's figures are built
//!   from.
//! - [`DetRng`]: labeled deterministic random streams so every experiment
//!   is exactly reproducible.
//! - [`WorkerPool`] / [`par_map_deterministic`]: deterministic parallel
//!   sweep execution — results in input order, whatever the worker
//!   count.
//! - [`run_isolated`] / [`TaskFailure`]: panic isolation for one sweep
//!   task, so a panicking point becomes a structured failure.
//! - [`Table`] / [`geomean`]: plain-text result reporting for the
//!   benchmark harness.
//!
//! # Examples
//!
//! ```
//! use sim_engine::{EventQueue, Bandwidth};
//!
//! // Serialize two packets onto a 32 GB/s link, in order.
//! let bw = Bandwidth::from_gbps(32.0);
//! let mut q = EventQueue::new();
//! q.schedule(bw.transfer_time(4096), "packet A done");
//! q.schedule(bw.transfer_time(4096) + bw.transfer_time(128), "packet B done");
//! assert_eq!(q.pop().unwrap().payload, "packet A done");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bandwidth;
mod chart;
mod event;
mod par;
mod report;
mod rng;
mod stats;
mod supervise;
mod time;

pub use bandwidth::Bandwidth;
pub use chart::BarChart;
pub use event::{Event, EventQueue};
pub use par::{par_map_deterministic, WorkerPool};
pub use report::{geomean, Table};
pub use rng::{DetRng, Zipf};
pub use stats::Histogram;
pub use supervise::{run_isolated, TaskFailure};
pub use time::{Frequency, SimTime};
