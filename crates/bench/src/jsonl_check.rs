//! Re-count an exported JSONL trace.
//!
//! [`pi2_netsim::JsonlSink`] writes one line per hop-0 event and one per
//! AQM tick. [`verify_jsonl_trace`] parses such a file back into a
//! [`TraceCounts`] and requires it to equal the counts a
//! [`pi2_netsim::CountingSink`] took of the same stream: attached at the
//! same moment as the file's sink, the counting sink saw exactly what the
//! file should hold, whether the run started at t = 0 or at a restored
//! checkpoint, and whatever its topology. Every admission, mark, drop,
//! departure and AQM tick is checked per flow.
//!
//! Used by `pi2sim --trace-out` and by `tests/trace_streaming.rs`.

use crate::perf::Json;
use pi2_netsim::{FlowId, TraceCounts};

/// Parse `text` (a JSONL trace) into counts and compare them with
/// `streamed`. Returns the number of lines on success, the first
/// malformed line or the first flow whose totals differ otherwise.
pub fn verify_jsonl_trace(text: &str, streamed: &TraceCounts) -> Result<usize, String> {
    let mut parsed = TraceCounts::new();
    for (i, line) in text.lines().enumerate() {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let j = Json::parse(line).map_err(|e| bad(&e))?;
        let ev = j
            .get("ev")
            .and_then(|v| v.as_str())
            .ok_or_else(|| bad("missing \"ev\""))?;
        if ev == "aqm" {
            parsed.note_aqm_update();
            continue;
        }
        let flow = j
            .get("flow")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| bad("missing \"flow\""))?;
        let flow = FlowId(flow as u32);
        match ev {
            "enq" => parsed.note_enqueue(flow),
            "mark" => parsed.note_mark(flow),
            "drop" => parsed.note_drop(flow),
            "deq" => parsed.note_dequeue(flow),
            other => return Err(bad(&format!("unknown event '{other}'"))),
        }
    }
    let flows = parsed.flows().len().max(streamed.flows().len()) as u32;
    match (0..flows).map(FlowId).find(|&f| parsed.flow(f) != streamed.flow(f)) {
        Some(f) => Err(format!(
            "flow {}: the trace holds {:?} but the run streamed {:?}",
            f.0,
            parsed.flow(f),
            streamed.flow(f)
        )),
        None if parsed.aqm_updates != streamed.aqm_updates => Err(format!(
            "the trace holds {} AQM ticks but the run streamed {}",
            parsed.aqm_updates, streamed.aqm_updates
        )),
        None => Ok(text.lines().count()),
    }
}
