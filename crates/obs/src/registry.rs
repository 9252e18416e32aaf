//! The metrics registry: named counters, gauges and histograms with
//! deterministic snapshots in JSON and Prometheus text format.
//!
//! Instruments are registered once at construction time (the only
//! allocations) and afterwards addressed by typed index handles —
//! [`CounterId`], [`GaugeId`], [`HistId`] — so the record path is an
//! array index plus an integer add, with no hashing, no locking and no
//! allocation. Snapshots iterate instruments in registration order,
//! which makes every export byte-deterministic for a deterministic run.
//!
//! Two registries with the same registration sequence merge with
//! [`Registry::merge`] into one fleet-level registry.

use crate::hist::Histogram;
use pi2_simcore::ckpt_fields;

/// Name + help text of one instrument. Names follow Prometheus
/// conventions (`[a-zA-Z_:][a-zA-Z0-9_:]*`); duration-valued instruments
/// register with an `_ns` suffix (the recording unit) and are converted
/// to base-unit `_seconds` at Prometheus export time only — JSON
/// snapshots and in-process reads stay in nanoseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Meta {
    name: &'static str,
    help: &'static str,
}

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

/// A fixed-schema metrics registry. See the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    counters: Vec<(Meta, u64)>,
    gauges: Vec<(Meta, f64)>,
    hists: Vec<(Meta, Histogram)>,
}

// Names and help texts are the schema, fixed at registration: a
// checkpoint holds the values alone, each section as long as the
// registering side made it.
ckpt_fields!(Meta {});
ckpt_fields!(Registry { counters[..], gauges[..], hists[..] });

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a monotonically increasing counter.
    pub fn counter(&mut self, name: &'static str, help: &'static str) -> CounterId {
        debug_assert!(valid_metric_name(name), "bad metric name {name}");
        self.counters.push((Meta { name, help }, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Register a gauge (a value that can go up and down).
    pub fn gauge(&mut self, name: &'static str, help: &'static str) -> GaugeId {
        debug_assert!(valid_metric_name(name), "bad metric name {name}");
        self.gauges.push((Meta { name, help }, 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Register a log-linear histogram (this allocates the bucket array,
    /// the instrument's only allocation).
    pub fn histogram(&mut self, name: &'static str, help: &'static str) -> HistId {
        debug_assert!(valid_metric_name(name), "bad metric name {name}");
        self.hists.push((Meta { name, help }, Histogram::new()));
        HistId(self.hists.len() - 1)
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Read a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Set a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].1 = v;
    }

    /// Record a histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0].1.record(v);
    }

    /// Read a histogram.
    pub fn hist(&self, id: HistId) -> &Histogram {
        &self.hists[id.0].1
    }

    /// Fold `other` into `self`: counters and histogram buckets add,
    /// gauges take `other`'s value (last writer wins, matching what a
    /// serial run would have left behind). Panics if the registries were
    /// not built with the identical registration sequence.
    pub fn merge(&mut self, other: &Registry) {
        assert_eq!(
            self.schema(),
            other.schema(),
            "cannot merge registries with different schemas"
        );
        for ((_, a), (_, b)) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for ((_, a), (_, b)) in self.gauges.iter_mut().zip(&other.gauges) {
            *a = *b;
        }
        for ((_, a), (_, b)) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// The registration sequence (names in order), for merge checking.
    fn schema(&self) -> Vec<&'static str> {
        self.counters
            .iter()
            .map(|(m, _)| m.name)
            .chain(self.gauges.iter().map(|(m, _)| m.name))
            .chain(self.hists.iter().map(|(m, _)| m.name))
            .collect()
    }

    /// Deterministic JSON snapshot: counters and gauges as scalars,
    /// histograms as `{count, sum, min, max, mean, stddev, p50, p90,
    /// p99, max}` objects. Instruments appear in registration order;
    /// floats use Rust's shortest-roundtrip formatting.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":1,\"counters\":{");
        for (i, (m, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", m.name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (m, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", m.name, fmt_f64(*v)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (m, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
                 \"stddev\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                m.name,
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                fmt_f64(h.mean()),
                fmt_f64(h.stddev()),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
            ));
        }
        out.push_str("}}");
        out
    }

    /// Prometheus text exposition format (version 0.0.4). Counters and
    /// gauges are scalar samples; histograms export as summaries
    /// (`{quantile="..."}` samples plus `_sum`/`_count`), which keeps the
    /// output compact — the full log-linear bucket array would be ~2000
    /// `le` series per histogram. Duration instruments registered with an
    /// `_ns` suffix export under the convention-compliant `_seconds` name
    /// with their values scaled at export time only (recording, JSON
    /// snapshots and checkpoints stay in integer nanoseconds). Passes
    /// [`crate::prom_lint`], including its base-unit suffix check.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (m, v) in &self.counters {
            let (n, scale) = prom_export_unit(m.name);
            let v = match scale {
                Some(s) => fmt_f64(*v as f64 * s),
                None => v.to_string(),
            };
            out.push_str(&format!(
                "# HELP {n} {h}\n# TYPE {n} counter\n{n} {v}\n",
                h = escape_help(m.help),
            ));
        }
        for (m, v) in &self.gauges {
            let (n, scale) = prom_export_unit(m.name);
            out.push_str(&format!(
                "# HELP {n} {h}\n# TYPE {n} gauge\n{n} {v}\n",
                h = escape_help(m.help),
                v = fmt_f64(v * scale.unwrap_or(1.0)),
            ));
        }
        for (m, hist) in &self.hists {
            let (n, scale) = prom_export_unit(m.name);
            out.push_str(&format!(
                "# HELP {n} {h}\n# TYPE {n} summary\n",
                h = escape_help(m.help),
            ));
            for q in [0.5, 0.9, 0.99] {
                let v = match scale {
                    Some(s) => fmt_f64(hist.quantile(q) as f64 * s),
                    None => hist.quantile(q).to_string(),
                };
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {v}\n"));
            }
            let sum = match scale {
                Some(s) => fmt_f64(hist.sum() as f64 * s),
                None => hist.sum().to_string(),
            };
            out.push_str(&format!("{n}_sum {sum}\n"));
            out.push_str(&format!("{n}_count {}\n", hist.count()));
        }
        out
    }
}

/// The Prometheus-facing name and value scale of an instrument: an `_ns`
/// registration name exports as `*_seconds` scaled by 1e-9; anything else
/// exports verbatim (`None` = keep integer formatting).
fn prom_export_unit(name: &'static str) -> (std::borrow::Cow<'static, str>, Option<f64>) {
    match name.strip_suffix("_ns") {
        Some(base) => (format!("{base}_seconds").into(), Some(1e-9)),
        None => (name.into(), None),
    }
}

/// Shortest-roundtrip float formatting that stays valid JSON (no bare
/// `NaN`/`inf` tokens — those serialize as null).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// True if `name` is a valid Prometheus metric name.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Escape a HELP string per the exposition format (backslash and
/// newline).
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Lint a Prometheus text-format document: every sample line must parse,
/// metric names must be valid and carry base-unit suffixes (`_seconds`,
/// never `_ns`/`_us`/`_ms`), label values must escape `"`/`\`/newline,
/// and no metric may carry duplicate `# HELP` or `# TYPE` lines. Returns
/// the number of sample lines on success.
pub fn prom_lint(text: &str) -> Result<usize, String> {
    let mut help_seen = std::collections::BTreeSet::new();
    let mut type_seen = std::collections::BTreeSet::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let bad = |what: &str| Err(format!("line {}: {what}: {line}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            if !valid_metric_name(name) {
                return bad("HELP for invalid metric name");
            }
            if non_base_unit_suffix(name) {
                return bad("non-base-unit suffix (export durations as _seconds)");
            }
            if !help_seen.insert(name.to_string()) {
                return bad("duplicate HELP");
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !valid_metric_name(name) {
                return bad("TYPE for invalid metric name");
            }
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return bad("unknown TYPE");
            }
            if !type_seen.insert(name.to_string()) {
                return bad("duplicate TYPE");
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find(|c| c == '{' || c == ' ') {
            Some(i) => (&line[..i], &line[i..]),
            None => return bad("sample line without value"),
        };
        if !valid_metric_name(name_part) {
            return bad("invalid metric name");
        }
        if non_base_unit_suffix(name_part) {
            return bad("non-base-unit suffix (export durations as _seconds)");
        }
        let value_part = if let Some(rest) = rest.strip_prefix('{') {
            let Some(close) = find_label_end(rest) else {
                return bad("unterminated label set");
            };
            check_labels(&rest[..close]).map_err(|e| format!("line {}: {e}: {line}", lineno + 1))?;
            &rest[close + 1..]
        } else {
            rest
        };
        let mut fields = value_part.split_whitespace();
        let Some(v) = fields.next() else {
            return bad("missing sample value");
        };
        if v.parse::<f64>().is_err() && !matches!(v, "NaN" | "+Inf" | "-Inf") {
            return bad("unparseable sample value");
        }
        samples += 1;
    }
    Ok(samples)
}

/// True if the metric name ends in a sub-base duration unit — Prometheus
/// convention wants base units (`_seconds`), so `_ns`/`_us`/`_ms` (and
/// their spelled-out forms) are lint errors. Aggregation suffixes
/// (`_total`, `_sum`, `_count`, `_bucket`) are stripped first so a
/// summary's derived series are judged by their parent name.
fn non_base_unit_suffix(name: &str) -> bool {
    let base = name
        .strip_suffix("_total")
        .or_else(|| name.strip_suffix("_sum"))
        .or_else(|| name.strip_suffix("_count"))
        .or_else(|| name.strip_suffix("_bucket"))
        .unwrap_or(name);
    ["_ns", "_us", "_ms", "_nanoseconds", "_microseconds", "_milliseconds"]
        .iter()
        .any(|suf| base.ends_with(suf))
}

/// Index of the unescaped closing `}` of a label set (input starts just
/// after the opening `{`).
fn find_label_end(s: &str) -> Option<usize> {
    let b = s.as_bytes();
    let mut in_quotes = false;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'\\' if in_quotes => i += 1, // skip escaped char
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Validate a label body `k="v",k2="v2"`: names valid, values quoted,
/// `"`/`\`/newline escaped inside values.
fn check_labels(body: &str) -> Result<(), String> {
    let mut rest = body;
    while !rest.is_empty() {
        let Some(eq) = rest.find('=') else {
            return Err(format!("label without '=' in '{rest}'"));
        };
        let name = rest[..eq].trim();
        if name.is_empty()
            || !name
                .chars()
                .enumerate()
                .all(|(i, c)| c == '_' || c.is_ascii_alphanumeric() && (i > 0 || !c.is_ascii_digit()) || c.is_ascii_alphabetic())
        {
            return Err(format!("invalid label name '{name}'"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("unquoted label value after '{name}'"));
        }
        let vbody = &after[1..];
        let mut close = None;
        let bytes = vbody.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => {
                    match bytes.get(i + 1) {
                        Some(b'\\') | Some(b'"') | Some(b'n') => i += 1,
                        _ => return Err(format!("bad escape in label '{name}'")),
                    }
                }
                b'"' => {
                    close = Some(i);
                    break;
                }
                b'\n' => return Err(format!("raw newline in label '{name}'")),
                _ => {}
            }
            i += 1;
        }
        let Some(close) = close else {
            return Err(format!("unterminated label value for '{name}'"));
        };
        rest = vbody[close + 1..].trim_start_matches(',').trim_start();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_simcore::{Ckpt, CkptError, CkptReader, CkptWriter};

    fn sample_registry() -> (Registry, CounterId, GaugeId, HistId) {
        let mut r = Registry::new();
        let c = r.counter("pi2_events_total", "Events processed");
        let g = r.gauge("pi2_prob", "Last applied probability");
        let h = r.histogram("pi2_sojourn_ns", "Per-packet sojourn time");
        (r, c, g, h)
    }

    #[test]
    fn record_and_read_back() {
        let (mut r, c, g, h) = sample_registry();
        r.inc(c, 3);
        r.inc(c, 2);
        r.set(g, 0.25);
        for v in [10, 20, 30] {
            r.observe(h, v);
        }
        assert_eq!(r.counter_value(c), 5);
        assert_eq!(r.gauges[0].1, 0.25);
        assert_eq!(r.hist(h).count(), 3);
    }

    #[test]
    fn merge_sums_counters_and_buckets() {
        let (mut a, c, g, h) = sample_registry();
        let (mut b, ..) = sample_registry();
        a.inc(c, 1);
        b.inc(c, 2);
        a.set(g, 0.1);
        b.set(g, 0.9);
        a.observe(h, 5);
        b.observe(h, 7);
        a.merge(&b);
        assert_eq!(a.counter_value(c), 3);
        assert_eq!(a.gauges[0].1, 0.9, "gauge takes the later run's value");
        assert_eq!(a.hist(h).count(), 2);
    }

    fn saved(r: &Registry) -> Vec<u8> {
        let mut w = CkptWriter::new();
        r.save_ckpt(&mut w);
        w.into_bytes()
    }

    #[test]
    fn checkpoint_restores_every_value_and_saves_the_same_bytes() {
        let (mut r, c, g, h) = sample_registry();
        r.inc(c, 11);
        r.set(g, -0.0);
        for v in [1, 64, 1_000_000] {
            r.observe(h, v);
        }
        let blob = saved(&r);
        // No names: the counter list opens with its length and its value.
        assert_eq!(blob[..16], [1u64.to_le_bytes(), 11u64.to_le_bytes()].concat());
        let (mut back, ..) = sample_registry();
        back.inc(c, 3);
        let mut reader = CkptReader::new(&blob);
        back.restore_ckpt(&mut reader).unwrap();
        reader.finish().unwrap();
        assert_eq!(back, r);
        assert_eq!(back.gauges[0].1.to_bits(), (-0.0f64).to_bits());
        assert_eq!(saved(&back), blob);
        // A registry of another shape refuses the blob.
        let mut other = Registry::new();
        other.counter("pi2_events_total", "Events processed");
        assert!(matches!(
            other.restore_ckpt(&mut CkptReader::new(&blob)),
            Err(CkptError::Corrupt(_))
        ));
    }

    #[test]
    #[should_panic(expected = "different schemas")]
    fn merge_rejects_schema_mismatch() {
        let (mut a, ..) = sample_registry();
        let mut b = Registry::new();
        b.counter("something_else", "x");
        a.merge(&b);
    }

    #[test]
    fn json_snapshot_is_deterministic_and_parses_shape() {
        let (mut r, c, _, h) = sample_registry();
        r.inc(c, 7);
        r.observe(h, 1000);
        let one = r.to_json();
        let two = r.to_json();
        assert_eq!(one, two);
        assert!(one.starts_with("{\"schema\":1,"));
        assert!(one.contains("\"pi2_events_total\":7"));
        assert!(one.contains("\"pi2_sojourn_ns\":{\"count\":1,"));
        assert!(one.contains("\"p99\":"));
    }

    #[test]
    fn prometheus_output_passes_lint() {
        let (mut r, c, g, h) = sample_registry();
        r.inc(c, 1);
        r.set(g, 0.5);
        r.observe(h, 42);
        let text = r.to_prometheus();
        let n = prom_lint(&text).expect("own output must lint clean");
        // 1 counter + 1 gauge + (3 quantiles + sum + count) = 7 samples.
        assert_eq!(n, 7, "{text}");
    }

    #[test]
    fn ns_instruments_export_as_seconds() {
        let (mut r, _, _, h) = sample_registry();
        r.observe(h, 1_500_000_000); // 1.5 s recorded in ns
        let text = r.to_prometheus();
        // The registration name stays ns-valued internally ...
        assert!(!text.contains("pi2_sojourn_ns"), "{text}");
        assert!(r.to_json().contains("\"pi2_sojourn_ns\":{"), "JSON stays in ns");
        // ... but the export renames and rescales to base units.
        assert!(text.contains("# TYPE pi2_sojourn_seconds summary"), "{text}");
        assert!(text.contains("pi2_sojourn_seconds_count 1"), "{text}");
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("pi2_sojourn_seconds_sum "))
            .expect("sum sample present");
        let sum: f64 = sum_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!((sum - 1.5).abs() < 1e-3, "sum {sum} should be ~1.5 s");
        // A gauge registered in ns converts the same way.
        let mut g = Registry::new();
        let id = g.gauge("pi2_rtt_ns", "Round-trip time");
        g.set(id, 2_000_000.0); // 2 ms
        let text = g.to_prometheus();
        assert!(text.contains("pi2_rtt_seconds 0.002"), "{text}");
        prom_lint(&text).expect("converted output lints clean");
    }

    #[test]
    fn lint_flags_non_base_unit_suffixes() {
        let err = prom_lint("pi2_sojourn_ns 5\n").unwrap_err();
        assert!(err.contains("non-base-unit"), "{err}");
        assert!(prom_lint("# HELP pi2_delay_ms x\n").is_err());
        assert!(prom_lint("pi2_sojourn_us_count 5\n").is_err());
        assert!(prom_lint("latency_microseconds 1\n").is_err());
        // Base units and lookalike names pass.
        assert_eq!(prom_lint("pi2_sojourn_seconds_sum 1.5\n").unwrap(), 1);
        assert_eq!(prom_lint("pi2_items_total 3\n").unwrap(), 1);
        assert_eq!(prom_lint("atoms 3\n").unwrap(), 1, "'_ms' must match a suffix, not 'ms'");
    }

    #[test]
    fn lint_catches_duplicates_and_bad_labels() {
        assert!(prom_lint("# HELP a x\n# HELP a y\n").unwrap_err().contains("duplicate HELP"));
        assert!(prom_lint("# TYPE a counter\n# TYPE a gauge\n")
            .unwrap_err()
            .contains("duplicate TYPE"));
        assert!(prom_lint("9bad 1\n").unwrap_err().contains("invalid metric name"));
        assert!(prom_lint("a{l=\"un\nterminated\"} 1\n").is_err());
        assert!(prom_lint("a{l=\"bad\\x\"} 1\n").unwrap_err().contains("bad escape"));
        assert!(prom_lint("a{l=unquoted} 1\n").unwrap_err().contains("unquoted"));
        assert!(prom_lint("a oops\n").unwrap_err().contains("unparseable"));
        // Correctly escaped values pass.
        assert_eq!(prom_lint("a{l=\"q\\\"uote\\\\slash\\n\"} 1\n").unwrap(), 1);
        assert_eq!(prom_lint("a{aqm=\"pi2\",cell=\"4Mb 5ms\"} 2.5\n").unwrap(), 1);
    }

    #[test]
    fn metric_name_validation() {
        assert!(valid_metric_name("pi2_events_total"));
        assert!(valid_metric_name("_x:y"));
        assert!(!valid_metric_name("9start"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name(""));
    }
}
