//! The FinePack sweep farm: a long-running daemon that serves sweep
//! jobs over a unix socket from a content-addressed result cache.
//!
//! The simulator's determinism contract (byte-identical reports at any
//! `--jobs`) is what makes results cacheable at all:
//! a sweep point's output is a pure function of its
//! ([`system::SystemConfig`], seed, workload identity) fingerprint plus
//! the binary that produced it. The farm exploits that:
//!
//! - [`JobRequest::fingerprint`] canonicalizes a job into a 128-bit
//!   [`system::ConfigFingerprint`], folding in the
//!   [`build_fingerprint`] so a recompiled binary can never serve a
//!   stale entry.
//! - [`ResultCache`] stores rendered reports under that key with the
//!   telemetry ring discipline: bounded entries, oldest evicted,
//!   explicit eviction counters.
//! - [`Server`] binds a [`std::os::unix::net::UnixListener`], speaks a
//!   hand-rolled line-delimited JSON protocol ([`json`]), and feeds
//!   cache misses through the supervised worker pool via
//!   [`execute_job`] — whose rendering is the same code path the
//!   one-shot CLI uses, so served reports are byte-identical by
//!   construction.
//! - The [`client`] functions ([`submit`], [`status`], [`shutdown`])
//!   back the `finepack-sim submit` / `status` / `shutdown` commands.
//!
//! See DESIGN.md §13 for the wire protocol and fingerprint definition.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod error;
pub mod exec;
pub mod job;
pub mod json;
pub mod server;
pub mod version;

pub use cache::{CacheEntry, CacheStats, ResultCache};
pub use client::{shutdown, status, submit, StatusReport, SubmitOutcome};
pub use error::FarmError;
pub use exec::{
    audit_job, available_parallelism, execute_job, find_app, single_core_warning, JobOutput,
};
pub use job::{fault_profile_for, BudgetSpec, JobKind, JobRequest, RUN_PARADIGMS};
pub use server::{ServeConfig, Server};
pub use version::{build_fingerprint, version_line, CRATE_VERSION, WIRE_SCHEMA_VERSION};
