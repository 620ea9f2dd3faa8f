//! # telemetry
//!
//! Observability for the FinePack simulation stack: structured event
//! tracing, periodic time-series sampling, and exporters for Chrome's
//! `trace_event` JSON (loadable in `chrome://tracing` / Perfetto) and
//! CSV time series.
//!
//! The design follows the tracing hooks of production simulators
//! (Akita, MGSim): instrumentation points are threaded through the
//! whole stack but cost nothing when disabled. A [`TraceHandle`] is the
//! unit of wiring — cloned into every instrumented component — and is
//! either *off* (the default: one `Option` branch per would-be event,
//! no allocation, no locking) or backed by a shared [`TraceCollector`].
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
//! use telemetry::{chrome_trace, EventKind, TraceEvent, TraceHandle};
//!
//! let (trace, ring) = TraceHandle::ring(1024, 1024);
//! trace.record(TraceEvent {
//!     time: SimTime::from_ns(5),
//!     gpu: 0,
//!     kind: EventKind::Flush { reason: "release" },
//! });
//! let collector = ring.lock().unwrap();
//! let events: Vec<_> = collector.events().cloned().collect();
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
pub use collect::{NullCollector, RingCollector, TraceCollector, TraceHandle};
pub use event::{EventKind, Sample, TraceEvent};
pub use export::{chrome_trace, time_series_csv, CHROME_TRACE_SCHEMA_VERSION};
