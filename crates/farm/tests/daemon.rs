//! End-to-end daemon tests over a real unix socket: submit, cache hit,
//! status counters, error handling, and clean shutdown.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;

use farm::{JobKind, JobRequest, ServeConfig, Server};

fn sock_path(tag: &str) -> String {
    let dir = std::env::temp_dir();
    dir.join(format!(
        "finepack-farm-test-{}-{tag}.sock",
        std::process::id()
    ))
    .to_string_lossy()
    .into_owned()
}

fn spawn_daemon(socket: &str, cache_entries: usize) -> std::thread::JoinHandle<()> {
    let server = Server::bind(ServeConfig {
        socket: socket.to_string(),
        cache_entries,
        jobs: 1,
        trace_out: None,
    })
    .expect("bind");
    std::thread::spawn(move || server.run().expect("daemon run"))
}

fn small_run() -> JobRequest {
    let mut req = JobRequest::new(JobKind::Run);
    req.app = Some("jacobi".into());
    req.gpus = 2;
    req.iterations = 1;
    req.scale_down = 16;
    req
}

#[test]
fn second_submission_is_a_byte_identical_cache_hit() {
    let socket = sock_path("hit");
    let daemon = spawn_daemon(&socket, 8);

    let first = farm::submit(&socket, &small_run(), |_| {}).expect("first submit");
    assert!(!first.cache_hit);
    assert!(first.sim_events > 0);
    assert_eq!(first.hits, 0);
    assert!(first.report.contains("jacobi on 2 GPUs"));

    let second = farm::submit(&socket, &small_run(), |_| {}).expect("second submit");
    assert!(second.cache_hit, "identical job must hit the cache");
    assert_eq!(second.sim_events, 0, "cache hits execute no events");
    assert_eq!(second.hits, 1, "entry hit counter must increment");
    assert_eq!(second.report, first.report, "served bytes must match");
    assert_eq!(second.fingerprint, first.fingerprint);
    assert_eq!(second.reports_json, first.reports_json);

    let status = farm::status(&socket).expect("status");
    assert_eq!(status.jobs_submitted, 2);
    assert_eq!(status.cache_hits, 1);
    assert_eq!(status.cache_misses, 1);
    assert_eq!(status.cache_entries, 1);
    assert_eq!(status.sim_events_total, first.sim_events);

    farm::shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon exits");
    assert!(
        !std::path::Path::new(&socket).exists(),
        "socket removed on shutdown"
    );
}

#[test]
fn perturbed_jobs_miss_and_evict_fifo() {
    let socket = sock_path("evict");
    let daemon = spawn_daemon(&socket, 1);

    let a = farm::submit(&socket, &small_run(), |_| {}).expect("a");
    let mut other = small_run();
    other.seed = 7;
    let b = farm::submit(&socket, &other, |_| {}).expect("b");
    assert!(!b.cache_hit, "a different seed must be a distinct entry");
    assert_ne!(a.fingerprint, b.fingerprint);

    // Capacity 1: job `a` was evicted, so resubmitting it misses again.
    let a2 = farm::submit(&socket, &small_run(), |_| {}).expect("a2");
    assert!(!a2.cache_hit);
    assert_eq!(a2.report, a.report, "recomputed result is still identical");

    let status = farm::status(&socket).expect("status");
    assert_eq!(status.cache_evictions, 2);
    assert_eq!(status.cache_entries, 1);

    farm::shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon exits");
}

#[test]
fn bad_requests_answer_errors_without_killing_the_daemon() {
    let socket = sock_path("errors");
    let daemon = spawn_daemon(&socket, 4);

    // Malformed JSON, unknown cmd, and invalid jobs each answer an
    // error line on a live connection.
    let mut stream = UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    for (request, want_code) in [
        ("this is not json\n", "malformed"),
        ("{\"schema_version\":1,\"cmd\":\"dance\"}\n", "malformed"),
        ("{\"schema_version\":99,\"cmd\":\"status\"}\n", "malformed"),
        (
            "{\"schema_version\":1,\"cmd\":\"submit\",\"job\":{\"kind\":\"run\",\"gpus\":1}}\n",
            "invalid",
        ),
    ] {
        stream.write_all(request.as_bytes()).expect("write");
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert!(
            line.contains("\"event\":\"error\"") && line.contains(want_code),
            "request {request:?} answered {line:?}"
        );
    }
    // A peer dropping mid-connection must not take the daemon down.
    drop(stream);
    drop(reader);

    let outcome = farm::submit(&socket, &small_run(), |_| {}).expect("daemon still alive");
    assert!(!outcome.cache_hit);

    // Client-side validation refuses bad jobs before dialing.
    let mut bad = small_run();
    bad.gpus = 1;
    assert!(farm::submit(&socket, &bad, |_| {}).is_err());

    farm::shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon exits");
}

#[test]
fn audit_flag_stamps_the_cached_entry() {
    let socket = sock_path("audit");
    let daemon = spawn_daemon(&socket, 4);

    let mut audited = small_run();
    audited.audit = true;
    let first = farm::submit(&socket, &audited, |_| {}).expect("audited submit");
    assert_eq!(first.audit_clean, Some(true), "default config audits clean");

    // The stamp rides the cache entry: an unaudited resubmission of the
    // same point still sees it.
    let second = farm::submit(&socket, &small_run(), |_| {}).expect("resubmit");
    assert!(second.cache_hit);
    assert_eq!(second.audit_clean, Some(true));

    farm::shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon exits");
}

#[test]
fn stale_socket_files_are_reclaimed_and_live_ones_refused() {
    let socket = sock_path("stale");
    // A dead daemon's leftover socket file must not block a new bind.
    drop(std::os::unix::net::UnixListener::bind(&socket).expect("plant stale socket"));
    let daemon = spawn_daemon(&socket, 2);
    assert!(farm::status(&socket).is_ok());

    // But a second daemon on a *live* socket is refused.
    let err = Server::bind(ServeConfig {
        socket: socket.clone(),
        ..ServeConfig::default()
    });
    assert!(matches!(err, Err(farm::FarmError::Bind { .. })));

    farm::shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon exits");
}
