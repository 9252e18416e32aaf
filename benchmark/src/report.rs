//! The benchmark's metrics by name, and the result line.
//!
//! The tables here and `BENCHMARK.json` say the same thing; a unit test
//! holds them together. A run must produce a value for every metric of
//! the pass it ran, no more and no fewer.

use crate::workloads::Outcome;
use pi2_bench::perf::Json;
use std::collections::BTreeMap;

/// `lower` or `higher`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; 0 for layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn low(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn high(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// What a user of the system sees, per workload (untraced pass).
pub const END_TO_END: [MetricDef; 3] = [
    e2e("wall_ref_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
    e2e("setup_s", "s", 0.25),
];

/// One cost number per layer (traced pass).
pub const PER_LAYER: [MetricDef; 70] = [
    low("simcore.wheel.push_pop_ns", "ns"),
    low("simcore.wheel.far_timer_ns", "ns"),
    low("netsim.pool.insert_take_ns", "ns"),
    low("netsim.pool.high_water", "count"),
    low("netsim.qdisc.pi2.offer_pop_ns", "ns"),
    low("netsim.qdisc.pie.offer_pop_ns", "ns"),
    low("netsim.qdisc.coupled.offer_pop_ns", "ns"),
    low("netsim.qdisc.dualpi2.offer_pop_ns", "ns"),
    low("netsim.qdisc.fq.offer_pop_ns", "ns"),
    low("core.pi2.decide_ns", "ns"),
    low("core.pie.decide_ns", "ns"),
    low("core.coupled.decide_ns", "ns"),
    low("core.dualpi2.decide_ns", "ns"),
    low("core.pi2.update_ns", "ns"),
    low("core.pie.update_ns", "ns"),
    low("core.coupled.update_ns", "ns"),
    low("core.dualpi2.update_ns", "ns"),
    low("transport.tcp.on_ack_clean_ns", "ns"),
    low("transport.tcp.on_ack_recovery_ns", "ns"),
    low("transport.rangeset.op_ns", "ns"),
    low("transport.seqset.op_ns", "ns"),
    low("transport.tcp.retx_per_kpkt", "count"),
    low("netsim.loop.dequeue_ns", "ns"),
    low("netsim.loop.deliver_ns", "ns"),
    low("netsim.loop.ack_ns", "ns"),
    low("netsim.loop.timer_ns", "ns"),
    low("netsim.loop.aqm_update_ns", "ns"),
    low("netsim.loop.sample_ns", "ns"),
    low("netsim.sim.events_per_pkt", "count"),
    low("netsim.hop.cost_ratio", "ratio"),
    low("netsim.sim.setup_us_per_flow", "us"),
    low("experiments.scenario.setup_ms_per_cell", "ms"),
    low("experiments.workload.mice_gen_ns_per_flow", "ns"),
    low("netsim.monitor.record_ns", "ns"),
    low("netsim.monitor.bytes_per_pkt", "count"),
    low("netsim.monitor.summarise_ms", "ms"),
    low("stats.summary.ns_per_sample", "ns"),
    low("stats.cdf.ns_per_sample", "ns"),
    low("netsim.sink.jsonl_ns", "ns"),
    low("netsim.sink.csv_ns", "ns"),
    low("netsim.sink.perfetto_ns", "ns"),
    low("netsim.sink.counting_ns", "ns"),
    low("netsim.sink.memory_ns", "ns"),
    low("netsim.audit.ns", "ns"),
    low("netsim.metrics.note_ns", "ns"),
    high("netsim.ckpt.save_mb_s", "MB/s"),
    high("netsim.ckpt.restore_mb_s", "MB/s"),
    low("netsim.ckpt.blob_mb", "MB"),
    low("obs.hist.record_ns", "ns"),
    low("obs.hist.quantile_us", "us"),
    low("obs.registry.to_json_us", "us"),
    low("obs.registry.to_prometheus_us", "us"),
    low("obs.registry.merge_us", "us"),
    high("experiments.runner.par_efficiency", "ratio"),
    low("experiments.runner.dispatch_us_per_item", "us"),
    low("experiments.runner.longest_cell_share", "ratio"),
    low("fluid.flow.step_ns_per_class", "ns"),
    low("fluid.flow.maxmin_ns_per_demand", "ns"),
    low("fluid.flow.reallocs_per_step", "count"),
    low("fluid.ode.step_ns", "ns"),
    low("fluid.bode.margins_us", "us"),
    low("netsim.background.tick_us", "us"),
    low("harness.wall_s", "s"),
    low("harness.calib_s", "s"),
    high("harness.reps_clean", "count"),
    low("harness.reps_dirty", "count"),
    low("harness.steal_frac", "ratio"),
    low("harness.alloc_calls_per_kpkt", "count"),
    low("harness.alloc_mb", "MB"),
    low("harness.trace_overhead", "ratio"),
];

/// The metrics of one pass.
pub fn metrics_of(traced: bool) -> &'static [MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Names, digits, `_`, `.` and `-`, at most 64, starting with a letter or
/// a digit: the contract's rule for a name.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run found.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted over every repetition.
    pub attempted: u64,
    /// One line per failed operation or violated harness check.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// `sim_digest` per input variant: every repetition of a variant must
    /// repeat the first one's.
    pub digests: BTreeMap<u64, u64>,
}

impl Report {
    /// Fold one repetition's outcome in.
    pub fn absorb(&mut self, o: &Outcome) {
        self.attempted += o.attempted;
        self.failures.extend(o.failures.iter().cloned());
        let first = *self.digests.entry(o.variant).or_insert(o.digest);
        if first != o.digest {
            self.failures.push(format!(
                "sim_digest of variant {} changed between repetitions: {first:016x} then {:016x}",
                o.variant, o.digest
            ));
        }
    }

    /// The digest printed and compared across commits: variant 0's, which
    /// the warm-up repetition runs.
    pub fn digest(&self) -> u64 {
        self.digests.get(&0).copied().unwrap_or(0)
    }

    /// The driver's result line. Every metric of the pass must be present
    /// and finite, and no other; anything else is a harness bug, reported
    /// as a failure rather than hidden.
    pub fn to_json(&self, traced: bool) -> (bool, String) {
        let defs = metrics_of(traced);
        let mut failed = self.failures.len() as u64;
        let mut fields = Vec::new();
        for d in defs {
            let v = match self.metrics.get(d.name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    failed += 1;
                    0.0
                }
            };
            let metric = Json::Obj(vec![
                ("value".to_string(), Json::Num(v)),
                ("unit".to_string(), Json::Str(d.unit.to_string())),
            ]);
            fields.push((d.name.to_string(), metric));
        }
        failed += self
            .metrics
            .keys()
            .filter(|k| !defs.iter().any(|d| d.name == **k))
            .count() as u64;
        let correct = failed == 0;
        let line = Json::Obj(vec![
            ("correct".to_string(), Json::Bool(correct)),
            (
                "attempted".to_string(),
                Json::Num(self.attempted.max(1) as f64),
            ),
            ("failed".to_string(), Json::Num(failed as f64)),
            ("metrics".to_string(), Json::Obj(fields)),
        ]);
        (correct, line.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn every_metric_is_named_by_the_rule_and_declared_in_benchmark_json() {
        let doc = benchmark_json();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = declared(&doc, key);
            assert_eq!(
                declared.len(),
                defs.len(),
                "{key}: count differs from BENCHMARK.json"
            );
            for (d, (name, unit, better, bound)) in defs.iter().zip(&declared) {
                assert!(valid_name(d.name), "{} breaks the naming rule", d.name);
                assert_eq!(d.name, name);
                assert_eq!(d.unit, unit, "{name}");
                assert_eq!(d.better.as_str(), better, "{name}");
                match key {
                    "end_to_end" => assert_eq!(Some(d.bound), *bound, "{name}"),
                    _ => assert_eq!(None, *bound, "{name} is a layer metric: no bound"),
                }
            }
        }
        let mut names: Vec<_> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used twice"
        );
    }

    #[test]
    fn benchmark_json_names_the_workloads_and_the_command() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        let secs = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(secs, Some(crate::DEFAULT_SECONDS));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn every_repetition_must_repeat_the_first_digest() {
        let mut r = Report::default();
        let rep = |variant, digest| Outcome {
            variant,
            digest,
            attempted: 2,
            ..Outcome::default()
        };
        r.absorb(&rep(0, 7));
        r.absorb(&rep(0, 7));
        // Another variant of the inputs has a digest of its own.
        r.absorb(&rep(1, 9));
        r.absorb(&rep(1, 9));
        assert_eq!((r.attempted, r.failures.len(), r.digest()), (8, 0, 7));
        r.absorb(&rep(0, 8));
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("0000000000000007 then 0000000000000008"));
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("netsim.qdisc.pi2.offer_pop_ns"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_reparses_with_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 12,
            ..Report::default()
        };
        for (d, v) in END_TO_END
            .iter()
            .zip([1.203_456_789_012, 93.25, 0.004_312_5])
        {
            r.metrics.insert(d.name, v);
        }
        let (correct, line) = r.to_json(false);
        assert!(correct);
        let doc = Json::parse(&line).expect("result line re-parses");
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(12.0));
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_ref_s"))
            .expect("wall_ref_s");
        assert_eq!(
            wall.get("value").and_then(Json::as_f64),
            Some(1.203_456_789_012)
        );
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn a_missing_extra_or_non_finite_metric_fails_the_run() {
        let mut r = Report::default();
        r.metrics.insert("wall_ref_s", f64::NAN);
        r.metrics.insert("peak_rss_mb", 1.0);
        r.metrics.insert("not_in_the_contract", 1.0);
        let (correct, line) = r.to_json(false);
        assert!(!correct);
        let doc = Json::parse(&line).expect("still valid JSON");
        // NaN, the missing setup_s and the stray name.
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(3.0));
    }
}
