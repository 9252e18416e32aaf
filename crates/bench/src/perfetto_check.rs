//! Structural validation for Chrome trace-event JSON timelines.
//!
//! [`pi2_netsim::PerfettoSink`] emits the JSON object form of the
//! trace-event format (`{"traceEvents":[...]}`, the flavour
//! ui.perfetto.dev ingests directly). This module re-parses an exported
//! file with the workspace's own [`Json`] parser and checks the
//! properties the exporter guarantees:
//!
//! * the body is one well-formed JSON object with a `traceEvents` array;
//! * every record carries a known phase (`C`, `i`, `X`, `M`) and the
//!   fields that phase requires;
//! * timestamps are non-decreasing per track — a track being one
//!   `(pid, tid, name)` triple for counters and instants (Perfetto sorts
//!   defensively, but our deterministic exporter has no excuse);
//! * slice durations are non-negative;
//! * drop/mark instants are tallied so callers can cross-check them
//!   against an independent count of the same run.
//!
//! Used by the observability integration tests (`tests/obs_server.rs`),
//! on the exporter's golden and on a family cell's annotated timeline.

use crate::perf::Json;
use std::collections::BTreeMap;

/// What a valid timeline contained, for cross-checks and summaries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfettoReport {
    /// Total records in `traceEvents`.
    pub records: usize,
    /// `ph:"C"` counter samples.
    pub counters: usize,
    /// `ph:"i"` instant events.
    pub instants: usize,
    /// `ph:"X"` complete slices (flow lifetimes).
    pub slices: usize,
    /// `ph:"M"` metadata records (process/thread names).
    pub metadata: usize,
    /// Instants named `drop`.
    pub drops: usize,
    /// Instants named `mark`.
    pub marks: usize,
    /// Distinct `(pid, tid)` tracks seen on non-metadata records.
    pub tracks: usize,
}

fn field_u64(rec: &Json, key: &str, at: usize) -> Result<u64, String> {
    rec.get(key)
        .and_then(|v| v.as_f64())
        .map(|v| v as u64)
        .ok_or_else(|| format!("record {at}: missing numeric \"{key}\""))
}

fn field_f64(rec: &Json, key: &str, at: usize) -> Result<f64, String> {
    rec.get(key)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("record {at}: missing numeric \"{key}\""))
}

fn field_str<'a>(rec: &'a Json, key: &str, at: usize) -> Result<&'a str, String> {
    rec.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("record {at}: missing string \"{key}\""))
}

/// Validate one exported timeline body. Returns the tally on success,
/// the first violation (with its record index) otherwise.
pub fn check_perfetto(text: &str) -> Result<PerfettoReport, String> {
    let j = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = j
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("missing \"traceEvents\" array")?;
    if events.is_empty() {
        return Err("empty \"traceEvents\" array".to_string());
    }
    let mut report = PerfettoReport {
        records: events.len(),
        ..PerfettoReport::default()
    };
    // Last timestamp per (pid, tid, name) series; counters and instants
    // must never step backwards within their own track.
    let mut last_ts: BTreeMap<(u64, u64, String), f64> = BTreeMap::new();
    let mut tracks: BTreeMap<(u64, u64), ()> = BTreeMap::new();
    for (i, rec) in events.iter().enumerate() {
        let ph = field_str(rec, "ph", i)?;
        let name = field_str(rec, "name", i)?;
        let pid = field_u64(rec, "pid", i)?;
        if ph == "M" {
            report.metadata += 1;
            if name != "process_name" && name != "thread_name" {
                return Err(format!("record {i}: unknown metadata \"{name}\""));
            }
            continue;
        }
        let tid = field_u64(rec, "tid", i)?;
        let ts = field_f64(rec, "ts", i)?;
        if ts < 0.0 || !ts.is_finite() {
            return Err(format!("record {i}: bad timestamp {ts}"));
        }
        tracks.insert((pid, tid), ());
        match ph {
            "C" | "i" => {
                let key = (pid, tid, name.to_string());
                if let Some(&prev) = last_ts.get(&key) {
                    if ts < prev {
                        return Err(format!(
                            "record {i}: track pid={pid} tid={tid} \"{name}\" \
                             steps back {prev} -> {ts}"
                        ));
                    }
                }
                last_ts.insert(key, ts);
                if ph == "C" {
                    report.counters += 1;
                } else {
                    report.instants += 1;
                    match name {
                        "drop" => report.drops += 1,
                        "mark" => report.marks += 1,
                        _ => {}
                    }
                }
            }
            "X" => {
                let dur = field_f64(rec, "dur", i)?;
                if dur < 0.0 {
                    return Err(format!("record {i}: negative duration {dur}"));
                }
                report.slices += 1;
            }
            other => return Err(format!("record {i}: unknown phase \"{other}\"")),
        }
    }
    if report.counters == 0 {
        return Err("no counter samples — not a pi2sim timeline".to_string());
    }
    if report.metadata == 0 {
        return Err("no track metadata — finish() never ran".to_string());
    }
    report.tracks = tracks.len();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrap(records: &str) -> String {
        format!("{{\"traceEvents\":[\n{records}\n]}}")
    }

    const GOOD: &str = r#"{"ph":"C","pid":1,"tid":0,"ts":0.000,"name":"queue_depth_pkts","args":{"value":1}},
{"ph":"i","s":"t","pid":100,"tid":1,"ts":5.250,"name":"drop","args":{"hop":0,"prob":0.5}},
{"ph":"i","s":"t","pid":100,"tid":1,"ts":9.000,"name":"mark","args":{"hop":0,"prob":0.5}},
{"ph":"X","pid":100,"tid":1,"ts":0.000,"dur":9.000,"name":"flow 0"},
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"hop 0 (bottleneck)"}}"#;

    #[test]
    fn tallies_a_valid_timeline() {
        let r = check_perfetto(&wrap(GOOD)).expect("valid");
        assert_eq!(
            (r.records, r.counters, r.instants, r.slices, r.metadata),
            (5, 1, 2, 1, 1)
        );
        assert_eq!((r.drops, r.marks), (1, 1));
        assert_eq!(r.tracks, 2, "hop-0 counter track and flow-0 track");
    }

    #[test]
    fn rejects_backwards_timestamps_within_a_track() {
        let body = wrap(concat!(
            r#"{"ph":"C","pid":1,"tid":0,"ts":7.0,"name":"queue_depth_pkts","args":{"value":1}},"#,
            "\n",
            r#"{"ph":"C","pid":1,"tid":0,"ts":3.0,"name":"queue_depth_pkts","args":{"value":0}},"#,
            "\n",
            r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"hop 0"}}"#
        ));
        let e = check_perfetto(&body).unwrap_err();
        assert!(e.contains("steps back"), "{e}");
    }

    #[test]
    fn distinct_tracks_may_interleave_timestamps() {
        // pid 2's early sample arriving after pid 1's late one is fine —
        // monotonicity is per track, not global stream order.
        let body = wrap(concat!(
            r#"{"ph":"C","pid":1,"tid":0,"ts":7.0,"name":"queue_depth_pkts","args":{"value":1}},"#,
            "\n",
            r#"{"ph":"C","pid":2,"tid":0,"ts":3.0,"name":"queue_depth_pkts","args":{"value":2}},"#,
            "\n",
            r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"hop 0"}}"#
        ));
        let r = check_perfetto(&body).expect("per-track monotonic");
        assert_eq!(r.tracks, 2);
    }

    #[test]
    fn rejects_malformed_bodies() {
        assert!(check_perfetto("not json").is_err());
        assert!(check_perfetto("{}").unwrap_err().contains("traceEvents"));
        assert!(check_perfetto("{\"traceEvents\":[]}")
            .unwrap_err()
            .contains("empty"));
        let no_ph = wrap(r#"{"pid":1,"tid":0,"ts":0.0,"name":"x"}"#);
        assert!(check_perfetto(&no_ph).unwrap_err().contains("\"ph\""));
    }
}
