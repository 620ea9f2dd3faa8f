//! The sweep-farm daemon: a unix-socket server feeding jobs through
//! the supervised worker pool, fronted by the content-addressed
//! [`ResultCache`].
//!
//! Wire protocol (line-delimited JSON, one request line per command,
//! one or more response lines back; see DESIGN.md §13):
//!
//! ```text
//! -> {"schema_version":1,"cmd":"submit","job":{"kind":"run",...}}
//! <- {"schema_version":1,"event":"accepted","job":3,"fingerprint":"..."}
//! <- {"schema_version":1,"event":"start","job":3}            (miss only)
//! <- {"schema_version":1,"event":"done","job":3,"cache_hit":false,...}
//! ```
//!
//! A malformed line or an invalid job answers with an `error` event and
//! keeps the connection; a peer that disconnects mid-job loses only its
//! own connection — the daemon (and the job's freshly-cached result)
//! survive.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Instant;

use sim_engine::{SimTime, WorkerPool};
use telemetry::{chrome_trace, EventKind, TraceEvent, TraceHandle};

use crate::cache::{CacheEntry, ResultCache};
use crate::error::FarmError;
use crate::exec::execute_job;
use crate::job::JobRequest;
use crate::json::{parse, Json};
use crate::version::{build_fingerprint, CRATE_VERSION, WIRE_SCHEMA_VERSION};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to bind.
    pub socket: String,
    /// Result-cache capacity (entries; oldest evicted beyond this).
    pub cache_entries: usize,
    /// Worker threads for suite sweeps.
    pub jobs: usize,
    /// Optional path: on shutdown, write the farm lifecycle events as a
    /// Chrome trace (`job-submitted` / `job-start` / `job-cache-hit` /
    /// `job-done` on the "farm (serving)" track).
    pub trace_out: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            socket: "finepack-farm.sock".into(),
            cache_entries: 64,
            jobs: 1,
            trace_out: None,
        }
    }
}

/// Aggregate serving counters, reported by `status`.
#[derive(Debug, Clone, Copy, Default)]
struct ServeStats {
    jobs_submitted: u64,
    sim_events_total: u64,
}

/// The daemon.
pub struct Server {
    config: ServeConfig,
    listener: UnixListener,
    pool: WorkerPool,
    cache: ResultCache,
    stats: ServeStats,
    trace: TraceHandle,
    ring: Option<std::sync::Arc<std::sync::Mutex<telemetry::RingCollector>>>,
    started: Instant,
}

impl Server {
    /// Binds the daemon socket. A leftover socket file from a dead
    /// daemon is removed and rebound; a socket another live daemon
    /// answers on is refused.
    ///
    /// # Errors
    ///
    /// [`FarmError::Bind`] when the path is unusable or already served.
    pub fn bind(config: ServeConfig) -> Result<Server, FarmError> {
        let path = std::path::Path::new(&config.socket);
        if path.exists() {
            if UnixStream::connect(path).is_ok() {
                return Err(FarmError::Bind {
                    path: config.socket.clone(),
                    detail: "another daemon is already serving on this socket".into(),
                });
            }
            // Stale socket from an unclean shutdown: reclaim it.
            std::fs::remove_file(path).map_err(|e| FarmError::Bind {
                path: config.socket.clone(),
                detail: format!("cannot remove stale socket: {e}"),
            })?;
        }
        let listener = UnixListener::bind(path).map_err(|e| FarmError::Bind {
            path: config.socket.clone(),
            detail: e.to_string(),
        })?;
        let (trace, ring) = if config.trace_out.is_some() {
            let (handle, ring) = TraceHandle::ring(4096, 16);
            (handle, Some(ring))
        } else {
            (TraceHandle::off(), None)
        };
        Ok(Server {
            pool: WorkerPool::new(config.jobs.max(1)),
            cache: ResultCache::new(config.cache_entries),
            stats: ServeStats::default(),
            trace,
            ring,
            started: Instant::now(),
            listener,
            config,
        })
    }

    /// Serves connections until a `shutdown` command arrives, then
    /// writes the optional serving trace and removes the socket file.
    ///
    /// # Errors
    ///
    /// [`FarmError::Io`] when the accept loop itself fails (per-peer
    /// errors only drop that peer).
    pub fn run(mut self) -> Result<(), FarmError> {
        loop {
            let (stream, _) = self
                .listener
                .accept()
                .map_err(|e| FarmError::Io(format!("accept failed: {e}")))?;
            match self.serve_peer(stream) {
                Ok(true) => break,
                Ok(false) => {}
                // A broken peer must not take the daemon down.
                Err(e) => eprintln!("farm: peer error: {e}"),
            }
        }
        self.finish()
    }

    /// Handles one connection; returns `Ok(true)` on `shutdown`.
    fn serve_peer(&mut self, stream: UnixStream) -> Result<bool, FarmError> {
        let reader = stream
            .try_clone()
            .map_err(|e| FarmError::Io(format!("cannot clone stream: {e}")))?;
        let mut writer = stream;
        for line in BufReader::new(reader).lines() {
            let line = match line {
                Ok(l) => l,
                // EOF mid-read or reset: this peer is gone, daemon stays.
                Err(e) => return Err(FarmError::PeerDisconnected(e.to_string())),
            };
            if line.trim().is_empty() {
                continue;
            }
            match self.dispatch(&line, &mut writer) {
                Ok(true) => return Ok(true),
                Ok(false) => {}
                Err(err @ (FarmError::PeerDisconnected(_) | FarmError::Io(_))) => {
                    return Err(err);
                }
                // Request-level errors answer on the wire and keep the
                // connection.
                Err(err) => {
                    let code = match err {
                        FarmError::Invalid(_) => "invalid",
                        FarmError::Malformed(_) => "malformed",
                        _ => "failed",
                    };
                    send_line(
                        &mut writer,
                        &response(
                            "error",
                            vec![
                                ("code".into(), Json::Str(code.into())),
                                ("detail".into(), Json::Str(err.to_string())),
                            ],
                        ),
                    )?;
                }
            }
        }
        Ok(false)
    }

    /// Parses and executes one request line; returns `Ok(true)` on
    /// `shutdown`.
    fn dispatch(&mut self, line: &str, writer: &mut UnixStream) -> Result<bool, FarmError> {
        let req = parse(line).map_err(FarmError::Malformed)?;
        if let Some(v) = req.get("schema_version") {
            if v.as_num::<u32>() != Some(WIRE_SCHEMA_VERSION) {
                return Err(FarmError::Malformed(format!(
                    "unsupported wire schema {} (this daemon speaks {WIRE_SCHEMA_VERSION})",
                    v.render()
                )));
            }
        }
        match req.get("cmd").and_then(Json::as_str) {
            Some("submit") => {
                let job = req
                    .get("job")
                    .ok_or_else(|| FarmError::Malformed("submit needs a job object".into()))?;
                let job = JobRequest::from_json(job)?;
                self.submit(&job, writer)?;
                Ok(false)
            }
            Some("status") => {
                send_line(writer, &self.status_response())?;
                Ok(false)
            }
            Some("shutdown") => {
                send_line(writer, &response("bye", vec![]))?;
                Ok(true)
            }
            other => Err(FarmError::Malformed(format!(
                "unknown cmd {:?} (expected submit, status, or shutdown)",
                other.unwrap_or("<missing>")
            ))),
        }
    }

    /// Runs one submitted job: cache hit serves instantly; a miss
    /// executes, optionally audits, and caches.
    fn submit(&mut self, job: &JobRequest, writer: &mut UnixStream) -> Result<(), FarmError> {
        job.validate()?;
        let seq = self.stats.jobs_submitted;
        self.stats.jobs_submitted += 1;
        self.record(seq, EventKind::JobSubmitted { job: seq });
        let fp = job.fingerprint();
        send_line(
            writer,
            &response(
                "accepted",
                vec![
                    ("job".into(), Json::num(seq)),
                    ("fingerprint".into(), Json::Str(fp.hex())),
                ],
            ),
        )?;

        if let Some(entry) = self.cache.lookup(fp) {
            // Served from cache: zero simulation events executed.
            let line = done_response(seq, true, entry);
            self.record(seq, EventKind::JobCacheHit { job: seq });
            self.record(
                seq,
                EventKind::JobDone {
                    job: seq,
                    cache_hit: true,
                },
            );
            return send_line(writer, &line);
        }

        self.record(seq, EventKind::JobStart { job: seq });
        send_line(
            writer,
            &response("start", vec![("job".into(), Json::num(seq))]),
        )?;
        let out = execute_job(job, &self.pool)?;
        self.stats.sim_events_total += out.sim_events;
        let audit_clean = if job.audit {
            Some(crate::exec::audit_job(job)?)
        } else {
            None
        };
        let entry = CacheEntry {
            fingerprint: fp,
            text: out.text,
            partial: out.partial,
            sim_events: out.sim_events,
            reports_json: out.reports_json,
            audit_clean,
            hits: 0,
        };
        let line = done_response(seq, false, &entry);
        self.cache.insert(entry);
        self.record(
            seq,
            EventKind::JobDone {
                job: seq,
                cache_hit: false,
            },
        );
        send_line(writer, &line)
    }

    fn status_response(&self) -> Json {
        let s = self.cache.stats();
        response(
            "status",
            vec![
                ("version".into(), Json::Str(CRATE_VERSION.into())),
                ("build".into(), Json::Str(build_fingerprint())),
                (
                    "jobs_submitted".into(),
                    Json::num(self.stats.jobs_submitted),
                ),
                (
                    "sim_events_total".into(),
                    Json::num(self.stats.sim_events_total),
                ),
                (
                    "cache".into(),
                    Json::Obj(vec![
                        ("entries".into(), Json::num(self.cache.len())),
                        ("capacity".into(), Json::num(self.config.cache_entries)),
                        ("hits".into(), Json::num(s.hits)),
                        ("misses".into(), Json::num(s.misses)),
                        ("insertions".into(), Json::num(s.insertions)),
                        ("evictions".into(), Json::num(s.evictions)),
                    ]),
                ),
            ],
        )
    }

    /// Records a farm lifecycle event on the serving track, stamped
    /// with daemon wall-clock time (these live outside any simulated
    /// run).
    fn record(&self, seq: u64, kind: EventKind) {
        if self.trace.is_on() {
            let elapsed = self.started.elapsed();
            self.trace.record(TraceEvent {
                time: SimTime::from_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)),
                gpu: (seq % 256) as u8,
                kind,
            });
        }
    }

    /// Shutdown epilogue: export the serving trace, remove the socket.
    fn finish(self) -> Result<(), FarmError> {
        if let (Some(path), Some(ring)) = (&self.config.trace_out, &self.ring) {
            let ring = ring.lock().expect("trace ring lock");
            let events: Vec<_> = ring.events().cloned().collect();
            let samples: Vec<_> = ring.samples().cloned().collect();
            std::fs::write(path, chrome_trace(&events, &samples))
                .map_err(|e| FarmError::Io(format!("cannot write trace {path}: {e}")))?;
        }
        let _ = std::fs::remove_file(&self.config.socket);
        Ok(())
    }
}

/// A response line: `{"schema_version":1,"event":...,<fields>}`.
fn response(event: &str, fields: Vec<(String, Json)>) -> Json {
    let mut obj = vec![
        ("schema_version".into(), Json::num(WIRE_SCHEMA_VERSION)),
        ("event".into(), Json::Str(event.into())),
    ];
    obj.extend(fields);
    Json::Obj(obj)
}

fn done_response(seq: u64, cache_hit: bool, entry: &CacheEntry) -> Json {
    response(
        "done",
        vec![
            ("job".into(), Json::num(seq)),
            ("cache_hit".into(), Json::Bool(cache_hit)),
            ("partial".into(), Json::Bool(entry.partial)),
            (
                "audit_clean".into(),
                match entry.audit_clean {
                    Some(clean) => Json::Bool(clean),
                    None => Json::Null,
                },
            ),
            (
                "sim_events".into(),
                Json::num(if cache_hit { 0 } else { entry.sim_events }),
            ),
            ("hits".into(), Json::num(entry.hits)),
            (
                "reports".into(),
                Json::Arr(
                    entry
                        .reports_json
                        .iter()
                        .map(|r| parse(r).expect("canonical report json parses"))
                        .collect(),
                ),
            ),
            ("report".into(), Json::Str(entry.text.clone())),
        ],
    )
}

fn send_line(writer: &mut UnixStream, line: &Json) -> Result<(), FarmError> {
    let mut text = line.render();
    text.push('\n');
    writer
        .write_all(text.as_bytes())
        .map_err(|e| FarmError::PeerDisconnected(format!("write failed: {e}")))
}
