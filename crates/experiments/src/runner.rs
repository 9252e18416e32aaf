//! Deterministic parallel scenario execution.
//!
//! The paper's headline results are parameter sweeps — the Figures 15–18
//! coexistence grid alone is 100 independent 100-second simulations — and
//! every cell is an isolated, seeded, deterministic run. This module
//! fans such sweeps out over OS threads while keeping the output
//! **bit-identical to a serial run regardless of thread count**:
//!
//! * work items are claimed from an atomic index (no work-stealing
//!   queues, no channels — `std` only);
//! * each worker computes `f(&items[i])` for the indices it claims and
//!   remembers the pairing `(i, result)`;
//! * results are written back into their slot *by index* after all
//!   workers join, so the returned `Vec` has the same order — and, since
//!   each run is seeded and self-contained, the same bits — as
//!   `items.iter().map(f).collect()`.
//!
//! Thread count comes from the `PI2_THREADS` environment variable,
//! defaulting to [`std::thread::available_parallelism`]. `PI2_THREADS=1`
//! degenerates to an inline serial loop (no threads spawned at all),
//! which is also the fallback wherever parallelism is unavailable.
//!
//! The sweep entry points (`grid::run_grid`, `fig19::fig19`, the
//! ablation and extension sweeps) all route through [`par_map`], so a
//! single knob governs every figure-regeneration binary.

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// The worker count: `PI2_THREADS` if set (minimum 1), otherwise the
/// machine's available parallelism.
pub fn threads() -> usize {
    match std::env::var("PI2_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Rate-limited stderr progress for long sweeps: `done/total` cells and
/// elapsed wall time, rewritten in place (`\r`). Output goes to stderr
/// only, so sweep stdout (which CI diffs for determinism) is untouched.
/// Silent when stderr is not a terminal, when `PI2_QUIET=1`, or for
/// single-item batches.
struct Progress {
    enabled: bool,
    start: Instant,
    done: AtomicUsize,
    total: usize,
    /// Elapsed ms at the last print, for rate limiting.
    last_print_ms: AtomicU64,
}

impl Progress {
    /// Minimum interval between reprints; a terminal redraw every 200 ms
    /// is smooth to a human and negligible to the sweep.
    const MIN_INTERVAL_MS: u64 = 200;

    fn new(total: usize) -> Self {
        let quiet = matches!(
            std::env::var("PI2_QUIET").ok().as_deref(),
            Some(v) if !matches!(v, "0" | "off" | "false")
        );
        Progress {
            enabled: total > 1 && !quiet && std::io::stderr().is_terminal(),
            start: Instant::now(),
            done: AtomicUsize::new(0),
            total,
            last_print_ms: AtomicU64::new(0),
        }
    }

    /// Record one completed item; maybe redraw the progress line.
    fn note_done(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled {
            return;
        }
        let elapsed = self.start.elapsed();
        let now_ms = elapsed.as_millis() as u64;
        let last = self.last_print_ms.load(Ordering::Relaxed);
        let finished = done == self.total;
        if !finished && now_ms.saturating_sub(last) < Self::MIN_INTERVAL_MS {
            return;
        }
        // One winner per interval; losers (and any race on the final
        // item's extra redraw) just skip — progress output is best-effort.
        if self
            .last_print_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
            && !finished
        {
            return;
        }
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r[pi2 sweep] {done}/{} cells done, {:.1}s elapsed",
            self.total,
            elapsed.as_secs_f64()
        );
        if finished {
            let _ = writeln!(err);
        }
        let _ = err.flush();
    }
}

/// Map `f` over `items` on `n_threads` workers, returning results in
/// item order. Output is identical to `items.iter().map(f).collect()`
/// for any `n_threads` ≥ 1 (given `f` depends only on its argument, as
/// every seeded scenario run does).
pub fn par_map_threads<T, R, F>(n_threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = n_threads.clamp(1, n.max(1));
    let progress = Progress::new(n);
    let run = |item: &T| {
        let r = f(item);
        progress.note_done();
        r
    };
    if workers <= 1 || n <= 1 {
        return items.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let batches: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        claimed.push((i, run(&items[i])));
                    }
                    claimed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("runner worker panicked"))
            .collect()
    });
    for (i, r) in batches.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "work index {i} claimed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every work index claimed exactly once"))
        .collect()
}

/// [`par_map_threads`] with the [`threads`] default (the `PI2_THREADS`
/// knob). This is the routing point for all sweep binaries.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(threads(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 4, 13] {
            let out = par_map_threads(threads, &items, |&i| i * i);
            assert_eq!(out, items.iter().map(|&i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_degenerate_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_threads(8, &empty, |&x| x).is_empty());
        assert_eq!(par_map_threads(8, &[42u32], |&x| x + 1), vec![43]);
        // More threads than items must not deadlock or duplicate work.
        assert_eq!(par_map_threads(64, &[1u32, 2], |&x| x), vec![1, 2]);
    }

    #[test]
    fn par_map_is_deterministic_for_stateful_work() {
        // Each item seeds its own RNG — the model of a scenario run. The
        // parallel result must be bit-identical to serial for any thread
        // count, even though workers interleave arbitrarily.
        let work = |&seed: &u64| {
            let mut rng = pi2_simcore::Rng::new(seed);
            (0..1000).map(|_| rng.next_u64() & 0xffff).sum::<u64>()
        };
        let seeds: Vec<u64> = (0..40).collect();
        let serial: Vec<u64> = seeds.iter().map(work).collect();
        for threads in [2, 4, 8] {
            assert_eq!(par_map_threads(threads, &seeds, work), serial);
        }
    }

    #[test]
    fn threads_env_knob_parses() {
        // Serialized against other env-reading tests by running in one
        // test body; restore afterwards.
        let saved = std::env::var("PI2_THREADS").ok();
        std::env::set_var("PI2_THREADS", "3");
        assert_eq!(threads(), 3);
        std::env::set_var("PI2_THREADS", "0");
        assert_eq!(threads(), 1, "0 clamps to 1");
        std::env::set_var("PI2_THREADS", "not-a-number");
        assert!(threads() >= 1, "garbage falls back to the default");
        match saved {
            Some(v) => std::env::set_var("PI2_THREADS", v),
            None => std::env::remove_var("PI2_THREADS"),
        }
    }
}
