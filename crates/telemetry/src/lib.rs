//! # telemetry
//!
//! Observability for the FinePack simulation stack: structured event
//! tracing, periodic time-series sampling, and exporters for Chrome's
//! `trace_event` JSON (loadable in `chrome://tracing` / Perfetto) and
//! CSV time series.
//!
//! The design follows the tracing hooks of production simulators
//! (Akita, MGSim), with one recorder: `system::Runner` records every
//! event and sample, shifted onto the run's global timeline, into a
//! [`TraceCollector`] the caller lends it for the run. The caller keeps
//! the collector in a local variable and reads it back afterwards; no
//! other crate records, and the hardware models do not depend on this
//! one. Untraced runs lend nothing and pay one `Option` branch per
//! would-be event.
//!
//! The collector contract: **tracing observes, never perturbs**. A
//! collector receives copies of simulation facts after they happen; it
//! has no channel back into timing, so a run's [`Debug`]-rendered
//! report is byte-identical with no collector, a [`NullCollector`], or
//! a [`RingCollector`] attached (enforced by the repo's determinism
//! guard tests).
//!
//! # Examples
//!
//! ```
//! use sim_engine::SimTime;
//! use telemetry::{chrome_trace, EventKind, RingCollector, TraceCollector, TraceEvent};
//!
//! let mut ring = RingCollector::new(1024, 1024);
//! ring.record(TraceEvent {
//!     time: SimTime::from_ns(5),
//!     gpu: 0,
//!     kind: EventKind::Flush { reason: "release" },
//! });
//! let events: Vec<_> = ring.events().cloned().collect();
//! let json = chrome_trace(&events, &[]);
//! assert!(json.contains("\"flush:release\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod collect;
mod event;
mod export;

pub use audit::{AuditCollector, AuditConfig, CreditLedger, Law, RunTotals, Violation, WireMath};
pub use collect::{NullCollector, RingCollector, TraceCollector};
pub use event::{EventKind, Sample, TraceEvent};
pub use export::{chrome_trace, time_series_csv, CHROME_TRACE_SCHEMA_VERSION};
