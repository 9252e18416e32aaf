//! Event-loop self-profiler: wall-clock time and event counts per event
//! class.
//!
//! The simulator's dispatch loop classifies each popped event into a
//! small, fixed set of classes (one per `Event` variant) and, when a
//! profiler is attached, brackets the handler with two monotonic-clock
//! reads. Off is genuinely free: the sim holds an `Option<LoopProfiler>`
//! and skips both clock reads when it is `None`. On, the cost is two
//! `Instant::now()` calls per event, attributed to the class being
//! handled.
//!
//! Wall-clock readings never feed back into simulation state — virtual
//! time, RNG draws and event ordering are untouched — so profiled runs
//! stay bit-identical to unprofiled runs.
//!
//! ## Calibration
//!
//! A begin/end pair is not free: the second clock read's own latency is
//! captured *inside* the measured interval (tens of ns on a
//! virtualized clock), which inflates every class by the same additive
//! constant — drowning cheap classes and overstating per-event cost
//! across the board. At construction the profiler times a batch of
//! empty begin/end pairs and subtracts the median pair cost from each
//! reported mean, so [`ProfileRow::ns_per_event`] estimates the
//! *handler's* cost, not handler + clock.

use std::time::Instant;

/// Per-class accumulator.
#[derive(Clone, Copy, Debug, Default)]
struct ClassStat {
    count: u64,
    total_ns: u64,
}

/// Accumulates per-class event counts and handler wall-clock time.
/// Classes are dense indices assigned by the caller (the sim maps each
/// event variant to one) with a display name given at construction.
#[derive(Clone, Debug)]
pub struct LoopProfiler {
    names: Vec<&'static str>,
    stats: Vec<ClassStat>,
    started: Option<(usize, Instant)>,
    /// Median cost of an empty begin/end pair, measured at construction;
    /// subtracted from each class mean when reporting.
    overhead_ns: u64,
}

/// One row of the profiler report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfileRow {
    /// Event-class display name.
    pub class: &'static str,
    /// Events of this class handled.
    pub count: u64,
    /// Total wall-clock nanoseconds spent in this class's handler.
    pub total_ns: u64,
    /// Mean nanoseconds per event of this class (0 if none ran).
    pub ns_per_event: f64,
}

impl LoopProfiler {
    /// A profiler over the given event classes. Class index `i` in
    /// [`begin`](Self::begin) refers to `names[i]`.
    pub fn new(names: &[&'static str]) -> Self {
        LoopProfiler {
            names: names.to_vec(),
            stats: vec![ClassStat::default(); names.len()],
            started: None,
            overhead_ns: Self::calibrate(),
        }
    }

    /// Median captured duration of an empty begin/end pair. The first
    /// batch also warms the clock path (vDSO page, branch predictors),
    /// and the median is robust to the occasional preemption outlier.
    fn calibrate() -> u64 {
        const PAIRS: usize = 4096;
        let mut samples = [0u64; PAIRS];
        for _ in 0..2 {
            for s in samples.iter_mut() {
                let t0 = Instant::now();
                *s = t0.elapsed().as_nanos() as u64;
            }
        }
        samples.sort_unstable();
        samples[PAIRS / 2]
    }

    /// The per-event measurement overhead subtracted from reported means.
    pub fn overhead_ns(&self) -> u64 {
        self.overhead_ns
    }

    /// Start timing one event of class `class`. Must be paired with
    /// [`end`](Self::end) before the next `begin`.
    #[inline]
    pub fn begin(&mut self, class: usize) {
        debug_assert!(class < self.names.len(), "unknown event class {class}");
        debug_assert!(self.started.is_none(), "begin without matching end");
        self.started = Some((class, Instant::now()));
    }

    /// Finish timing the event started by the last [`begin`](Self::begin).
    #[inline]
    pub fn end(&mut self) {
        let Some((class, t0)) = self.started.take() else {
            debug_assert!(false, "end without begin");
            return;
        };
        let stat = &mut self.stats[class];
        stat.count += 1;
        stat.total_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Total events timed across all classes.
    pub fn total_events(&self) -> u64 {
        self.stats.iter().map(|s| s.count).sum()
    }

    /// Report rows in class-index order, skipping classes that never ran.
    /// Totals and means are net of the calibrated measurement overhead.
    pub fn rows(&self) -> Vec<ProfileRow> {
        self.names
            .iter()
            .zip(&self.stats)
            .filter(|(_, s)| s.count > 0)
            .map(|(&class, s)| {
                let net = s.total_ns.saturating_sub(s.count * self.overhead_ns);
                ProfileRow {
                    class,
                    count: s.count,
                    total_ns: net,
                    ns_per_event: net as f64 / s.count as f64,
                }
            })
            .collect()
    }

    /// A human-readable per-class breakdown table.
    pub fn render_table(&self) -> String {
        let rows = self.rows();
        let total_ns: u64 = rows.iter().map(|r| r.total_ns).sum();
        let mut out = String::from(
            "event class         count     total ms   ns/event   share\n\
             -----------------  --------  ----------  ---------  ------\n",
        );
        for r in &rows {
            let share = if total_ns > 0 {
                100.0 * r.total_ns as f64 / total_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<17}  {:>8}  {:>10.3}  {:>9.1}  {:>5.1}%\n",
                r.class,
                r.count,
                r.total_ns as f64 / 1e6,
                r.ns_per_event,
                share,
            ));
        }
        out.push_str(&format!(
            "total              {:>8}  {:>10.3}   (net of {} ns/event clock overhead)\n",
            self.total_events(),
            total_ns as f64 / 1e6,
            self.overhead_ns,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_counts_to_classes() {
        let mut p = LoopProfiler::new(&["dequeue", "deliver", "timer"]);
        for _ in 0..3 {
            p.begin(0);
            p.end();
        }
        p.begin(2);
        p.end();
        assert_eq!(p.total_events(), 4);
        let rows = p.rows();
        assert_eq!(rows.len(), 2, "deliver never ran, so it is skipped");
        assert_eq!(rows[0].class, "dequeue");
        assert_eq!(rows[0].count, 3);
        assert_eq!(rows[1].class, "timer");
        assert_eq!(rows[1].count, 1);
        assert!(rows.iter().all(|r| r.ns_per_event >= 0.0));
    }

    #[test]
    fn table_covers_active_classes() {
        let mut p = LoopProfiler::new(&["dequeue", "ack"]);
        p.begin(1);
        p.end();
        let table = p.render_table();
        assert!(table.contains("ack"), "{table}");
        assert!(!table.lines().any(|l| l.starts_with("dequeue")), "{table}");
    }

    #[test]
    fn empty_profiler_renders() {
        let p = LoopProfiler::new(&["x"]);
        assert_eq!(p.total_events(), 0);
        assert!(p.rows().is_empty());
        assert!(p.render_table().contains("total"));
    }
}
