//! Exporters: Chrome `trace_event` JSON and CSV time series.
//!
//! The Chrome exporter emits the JSON-object form
//! (`{"traceEvents": [...]}`) with one *process* per GPU and one
//! *thread* (track) per pipeline stage, so `chrome://tracing` and
//! Perfetto render a per-GPU swimlane view of the TLP lifecycle.
//! Timestamps are microseconds (the format's unit) converted from
//! integer-picosecond [`SimTime`].

use std::fmt::Write as _;

use sim_engine::SimTime;

use crate::event::{EventKind, Sample, TraceEvent};

/// Schema version stamped into the Chrome-trace JSON header; bump on
/// any change to track layout or event body shapes so downstream
/// tooling can detect format drift.
pub const CHROME_TRACE_SCHEMA_VERSION: u32 = 3;

/// Track ids within each GPU's process, in rendering order.
const TRACKS: [(u32, &str); 4] = [
    (0, "sm (store stream)"),
    (1, "rwq (coalescing)"),
    (2, "wire (egress TLPs)"),
    (3, "commit (ingress drain)"),
];

fn track_of(kind: &EventKind) -> u32 {
    match kind {
        EventKind::StoreIssued { .. }
        | EventKind::AtomicIssued { .. }
        | EventKind::LoadProbe { .. }
        | EventKind::Stall { .. }
        | EventKind::FenceRelease
        | EventKind::KernelEnd => 0,
        EventKind::RwqInsert { .. } | EventKind::Flush { .. } => 1,
        EventKind::WireTransmit { .. }
        | EventKind::DllReplay { .. }
        | EventKind::CreditBlocked { .. } => 2,
        EventKind::Commit { .. } => 3,
    }
}

fn us(t: SimTime) -> f64 {
    t.as_us_f64()
}

/// Renders events and samples as Chrome `trace_event` JSON.
///
/// Every event becomes an instant (`"ph":"i"`) or complete-span
/// (`"ph":"X"`) row on its GPU's track; every sample becomes counter
/// (`"ph":"C"`) rows. The output parses with any JSON parser and loads
/// directly into `chrome://tracing` / Perfetto.
pub fn chrome_trace(events: &[TraceEvent], samples: &[Sample]) -> String {
    let mut gpus: Vec<u8> = events
        .iter()
        .map(|e| e.gpu)
        .chain(samples.iter().map(|s| s.gpu))
        .collect();
    gpus.sort_unstable();
    gpus.dedup();

    let mut out = format!("{{\"schema_version\":{CHROME_TRACE_SCHEMA_VERSION},\"traceEvents\":[\n");
    let mut first = true;
    let mut row = |out: &mut String, body: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(body);
    };

    for g in &gpus {
        row(
            &mut out,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{g},\"tid\":0,\
                 \"args\":{{\"name\":\"GPU{g}\"}}}}"
            ),
        );
        for (tid, label) in TRACKS {
            row(
                &mut out,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{g},\"tid\":{tid},\
                     \"args\":{{\"name\":\"{label}\"}}}}"
                ),
            );
        }
    }

    for e in events {
        let pid = e.gpu;
        let tid = track_of(&e.kind);
        let ts = us(e.time);
        let body = match e.kind {
            EventKind::StoreIssued { dst, bytes } => format!(
                "{{\"name\":\"store\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{ts:.6},\"args\":{{\"dst\":{dst},\"bytes\":{bytes}}}}}"
            ),
            EventKind::AtomicIssued { dst, bytes } => format!(
                "{{\"name\":\"atomic\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{ts:.6},\"args\":{{\"dst\":{dst},\"bytes\":{bytes}}}}}"
            ),
            EventKind::LoadProbe { dst } => format!(
                "{{\"name\":\"load-probe\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{ts:.6},\"args\":{{\"dst\":{dst}}}}}"
            ),
            EventKind::RwqInsert { dst, merged } => format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{ts:.6},\"args\":{{\"dst\":{dst}}}}}",
                if merged { "rwq-merge" } else { "rwq-insert" }
            ),
            EventKind::Flush { reason } => format!(
                "{{\"name\":\"flush:{reason}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{ts:.6},\"args\":{{}}}}"
            ),
            EventKind::WireTransmit {
                dst,
                wire_bytes,
                payload_bytes,
                stores,
                reason,
                done,
            } => {
                let dur = us(done.saturating_sub(e.time));
                format!(
                    "{{\"name\":\"tlp:{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
                     \"ts\":{ts:.6},\"dur\":{dur:.6},\"args\":{{\"dst\":{dst},\
                     \"wire_bytes\":{wire_bytes},\"payload_bytes\":{payload_bytes},\
                     \"stores\":{stores}}}}}",
                    reason.unwrap_or("uncoalesced")
                )
            }
            EventKind::DllReplay { bytes } => format!(
                "{{\"name\":\"dll-replay\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{ts:.6},\"args\":{{\"bytes\":{bytes}}}}}"
            ),
            EventKind::Commit { data_bytes, done } => {
                let dur = us(done.saturating_sub(e.time));
                format!(
                    "{{\"name\":\"commit\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
                     \"ts\":{ts:.6},\"dur\":{dur:.6},\"args\":{{\"data_bytes\":{data_bytes}}}}}"
                )
            }
            EventKind::CreditBlocked { until } => format!(
                "{{\"name\":\"credit-blocked\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{ts:.6},\"args\":{{\"until_us\":{:.6}}}}}",
                us(until)
            ),
            EventKind::Stall { duration } => format!(
                "{{\"name\":\"stall\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{ts:.6},\"args\":{{\"duration_us\":{:.6}}}}}",
                us(duration)
            ),
            EventKind::FenceRelease => format!(
                "{{\"name\":\"fence-release\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{ts:.6},\"args\":{{}}}}"
            ),
            EventKind::KernelEnd => format!(
                "{{\"name\":\"kernel-end\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{ts:.6},\"args\":{{}}}}"
            ),
        };
        row(&mut out, &body);
    }

    for s in samples {
        let pid = s.gpu;
        let ts = us(s.time);
        for (name, value) in [
            ("rwq_entries", s.rwq_entries),
            ("egress_queue", s.egress_queue),
            ("egress_wire_bytes", s.egress_wire_bytes),
            ("stall_ps", s.stall_ps),
        ] {
            row(
                &mut out,
                &format!(
                    "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\
                     \"ts\":{ts:.6},\"args\":{{\"value\":{value}}}}}"
                ),
            );
        }
        row(
            &mut out,
            &format!(
                "{{\"name\":\"credits_in_flight\",\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\
                 \"ts\":{ts:.6},\"args\":{{\"hdr\":{},\"data\":{}}}}}",
                s.credit_hdrs_in_flight, s.credit_data_in_flight
            ),
        );
    }

    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Renders samples as a CSV time series, one row per (time, GPU).
pub fn time_series_csv(samples: &[Sample]) -> String {
    let mut out = String::from(
        "time_ps,gpu,rwq_entries,egress_queue_packets,egress_wire_bytes,\
         credit_hdrs_in_flight,credit_data_in_flight,stall_ps\n",
    );
    for s in samples {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            s.time.as_ps(),
            s.gpu,
            s.rwq_entries,
            s.egress_queue,
            s.egress_wire_bytes,
            s.credit_hdrs_in_flight,
            s.credit_data_in_flight,
            s.stall_ps
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ns: u64, gpu: u8) -> Sample {
        Sample {
            time: SimTime::from_ns(ns),
            gpu,
            rwq_entries: 3,
            egress_queue: 1,
            egress_wire_bytes: 4096,
            credit_hdrs_in_flight: 2,
            credit_data_in_flight: 16,
            stall_ps: 777,
        }
    }

    fn events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                time: SimTime::from_ns(1),
                gpu: 0,
                kind: EventKind::StoreIssued { dst: 1, bytes: 8 },
            },
            TraceEvent {
                time: SimTime::from_ns(2),
                gpu: 0,
                kind: EventKind::Flush { reason: "release" },
            },
            TraceEvent {
                time: SimTime::from_ns(3),
                gpu: 0,
                kind: EventKind::WireTransmit {
                    dst: 1,
                    wire_bytes: 128,
                    payload_bytes: 104,
                    stores: 5,
                    reason: Some("release"),
                    done: SimTime::from_ns(7),
                },
            },
            TraceEvent {
                time: SimTime::from_ns(7),
                gpu: 1,
                kind: EventKind::Commit {
                    data_bytes: 40,
                    done: SimTime::from_ns(8),
                },
            },
        ]
    }

    /// A deliberately small JSON well-formedness check: balanced
    /// braces/brackets outside strings and non-empty payload. Full
    /// parsing is CI's `python3 -m json.tool` smoke step.
    fn assert_balanced_json(s: &str) {
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in s.chars() {
            if in_str {
                match (esc, c) {
                    (true, _) => esc = false,
                    (false, '\\') => esc = true,
                    (false, '"') => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in {s}");
        }
        assert_eq!(depth, 0, "unbalanced JSON");
        assert!(!in_str, "unterminated string");
    }

    #[test]
    fn chrome_trace_has_tracks_spans_and_counters() {
        let json = chrome_trace(&events(), &[sample(10, 0), sample(10, 1)]);
        assert_balanced_json(&json);
        assert!(json.starts_with("{\"schema_version\":3,\"traceEvents\":["));
        // Process/track metadata for both GPUs seen in the data.
        assert!(json.contains("\"name\":\"GPU0\""));
        assert!(json.contains("\"name\":\"GPU1\""));
        assert!(json.contains("wire (egress TLPs)"));
        // A span with a 4ns duration on GPU0's wire track.
        assert!(json.contains("\"name\":\"tlp:release\""));
        assert!(json.contains("\"dur\":0.004000"));
        // Flush instants are named by reason (the acceptance hook).
        assert!(json.contains("\"name\":\"flush:release\""));
        // Counters from the samples.
        assert!(json.contains("\"name\":\"rwq_entries\""));
        assert!(json.contains("\"hdr\":2,\"data\":16"));
    }

    #[test]
    fn empty_trace_is_still_valid_json() {
        let json = chrome_trace(&[], &[]);
        assert_balanced_json(&json);
        assert!(json.contains("\"traceEvents\":["));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = time_series_csv(&[sample(5, 0)]);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "time_ps,gpu,rwq_entries,egress_queue_packets,egress_wire_bytes,\
             credit_hdrs_in_flight,credit_data_in_flight,stall_ps"
        );
        assert_eq!(lines.next().unwrap(), "5000,0,3,1,4096,2,16,777");
        assert!(lines.next().is_none());
    }
}
