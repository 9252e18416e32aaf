//! The case runner: deterministic seed schedule, environment overrides,
//! panic capture, and failure-seed persistence compatible with the
//! `tests/<file>.proptest-regressions` convention.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of (non-rejected) cases to run per test. The
    /// `PROPTEST_CASES` environment variable overrides this — CI uses it
    /// to time-box the suites.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a single case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` discarded the inputs; try another case.
    Reject,
    /// A `prop_assert!`-family assertion failed.
    Fail(String),
}

impl TestCaseError {
    /// Construct the failure variant.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// The per-case RNG handed to strategies: splitmix64, seeded per case.
/// Cheap, full-period over its 64-bit state, and — the property the
/// regression corpus depends on — the stream is a pure function of the
/// seed.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator whose stream is determined entirely by `seed`.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Where the persisted failure seeds for `source_file` live:
/// `<manifest_dir>/tests/<stem>.proptest-regressions`, the same location
/// the real crate uses for suites under `tests/`.
pub fn regression_path(manifest_dir: &str, source_file: &str) -> String {
    let stem = Path::new(source_file)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("proptests");
    format!("{manifest_dir}/tests/{stem}.proptest-regressions")
}

/// Parse the persisted corpus. Lines look like `cc <hex> [# comment]`;
/// 16-or-fewer-digit payloads are our replayable u64 seeds, while the
/// real crate's 256-bit digests are recognised and skipped (we cannot
/// reconstruct their byte streams, but must not error on them).
pub fn read_seeds(path: &str) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut seeds = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("cc ") else {
            continue;
        };
        let token = rest.split_whitespace().next().unwrap_or("");
        if token.len() <= 16 {
            if let Ok(seed) = u64::from_str_radix(token, 16) {
                seeds.push(seed);
            }
        }
    }
    seeds
}

/// Append a failing seed to the corpus (creating it, with the standard
/// header, if needed). Best-effort: persistence failures must not mask
/// the test failure itself.
fn persist_seed(path: &str, test_name: &str, seed: u64) {
    let entry = format!("cc {seed:016x}");
    if let Ok(existing) = std::fs::read_to_string(path) {
        if existing.lines().any(|l| l.trim().starts_with(&entry)) {
            return; // already recorded
        }
    }
    let header_needed = !Path::new(path).exists();
    let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) else {
        return;
    };
    if header_needed {
        let _ = writeln!(
            f,
            "# Seeds for failure cases proptest has generated in the past. It is\n\
             # automatically read and these particular cases re-run before any\n\
             # novel cases are generated.\n\
             #\n\
             # It is recommended to check this file in to source control so that\n\
             # everyone who runs the test benefits from these saved cases.",
        );
    }
    let _ = writeln!(f, "{entry} # seed for {test_name}");
}

enum CaseOutcome {
    Pass,
    Reject,
    Fail(String),
}

fn run_case(
    seed: u64,
    f: &mut dyn FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) -> CaseOutcome {
    let mut rng = TestRng::new(seed);
    match catch_unwind(AssertUnwindSafe(|| f(&mut rng))) {
        Ok(Ok(())) => CaseOutcome::Pass,
        Ok(Err(TestCaseError::Reject)) => CaseOutcome::Reject,
        Ok(Err(TestCaseError::Fail(msg))) => CaseOutcome::Fail(msg),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("panicked (non-string payload)");
            CaseOutcome::Fail(format!("panicked: {msg}"))
        }
    }
}

/// Run one property test: replay the persisted corpus first, then a
/// deterministic schedule of fresh cases. Panics (failing the enclosing
/// `#[test]`) on the first failing case, after persisting its seed.
pub fn run(
    regressions: &str,
    test_name: &str,
    cfg: &ProptestConfig,
    mut f: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    fn fail(regressions: &str, test_name: &str, seed: u64, phase: &str, msg: String) -> ! {
        persist_seed(regressions, test_name, seed);
        panic!(
            "[{test_name}] {phase} case failed (replayable seed cc {seed:016x}, \
             persisted to {regressions}; rerunning the test replays it first):\n{msg}"
        );
    }

    // 1. Replay every parseable persisted seed.
    for seed in read_seeds(regressions) {
        match run_case(seed, &mut f) {
            CaseOutcome::Pass | CaseOutcome::Reject => {}
            CaseOutcome::Fail(msg) => fail(regressions, test_name, seed, "persisted", msg),
        }
    }

    // 2. Fresh cases, from a schedule that is a pure function of the test
    // name (so failures reproduce anywhere) unless PROPTEST_RNG_SEED asks
    // for a different stream.
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(cfg.cases);
    let base = std::env::var("PROPTEST_RNG_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or_else(|| fnv1a(test_name.as_bytes()));

    let mut passed = 0u32;
    let mut attempts = 0u64;
    let max_attempts = 10 * u64::from(cases) + 100; // prop_assume! runaway guard
    while passed < cases {
        if attempts >= max_attempts {
            panic!(
                "[{test_name}] gave up: {passed}/{cases} cases after {attempts} attempts \
                 (prop_assume! rejects nearly everything)"
            );
        }
        let seed = TestRng::new(base.wrapping_add(attempts)).next_u64();
        attempts += 1;
        match run_case(seed, &mut f) {
            CaseOutcome::Pass => passed += 1,
            CaseOutcome::Reject => {}
            CaseOutcome::Fail(msg) => fail(regressions, test_name, seed, "generated", msg),
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A regressions file of one test's own in the system temp dir,
    /// removed when dropped (a test binds it for its whole body), so a run
    /// leaves nothing behind.
    struct Scratch(String);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn scratch(name: &str) -> Scratch {
        let file = format!("pi2-proptest-shim-{}-{name}.proptest-regressions", std::process::id());
        let path = std::env::temp_dir().join(file).to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }

    #[test]
    fn rng_streams_are_seed_deterministic() {
        let mut a = TestRng::new(99);
        let mut b = TestRng::new(99);
        for _ in 0..128 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(TestRng::new(1).next_u64(), TestRng::new(2).next_u64());
    }

    #[test]
    fn unit_interval_stays_in_bounds() {
        let mut r = TestRng::new(4);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn regression_path_uses_the_test_file_stem() {
        assert_eq!(
            regression_path("/w/crates/stats", "crates/stats/tests/proptests.rs"),
            "/w/crates/stats/tests/proptests.proptest-regressions"
        );
    }

    #[test]
    fn corpus_parser_takes_u64_seeds_and_skips_real_proptest_digests() {
        let path = &scratch("corpus-parse").0;
        std::fs::write(
            path,
            "# header\n\
             cc 00000000000000ff # ours\n\
             cc 49be55cfb7923b8739eff94881784d1c740bc4a110af5d09162c94d18738d67b # real proptest\n\
             cc deadbeef\n\
             not a seed line\n",
        )
        .unwrap();
        assert_eq!(read_seeds(path), vec![0xff, 0xdead_beef]);
        assert_eq!(read_seeds("/nonexistent/nope"), Vec::<u64>::new());
    }

    #[test]
    fn failing_case_persists_its_seed_and_replays_first() {
        let scratch = scratch("persist-cycle");
        let path = &scratch.0;
        // A property that fails on even inputs: hit quickly, and the
        // failing value is a pure function of the case seed.
        let run_failing = |record: &mut Vec<u64>| {
            let record = std::cell::RefCell::new(record);
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run(
                    path,
                    "shim_self_test",
                    &ProptestConfig::with_cases(200),
                    |rng| {
                        let v = rng.next_u64();
                        record.borrow_mut().push(v);
                        if v % 2 == 0 {
                            Err(TestCaseError::fail("even"))
                        } else {
                            Ok(())
                        }
                    },
                );
            }));
            assert!(r.is_err(), "property should have failed");
        };
        let mut first = Vec::new();
        run_failing(&mut first);
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.starts_with("# Seeds for failure cases"), "header written");
        let seeds = read_seeds(path);
        assert_eq!(seeds.len(), 1, "exactly one persisted seed: {text}");
        // Replay: the persisted seed regenerates the same failing value
        // before any fresh cases run.
        let mut second = Vec::new();
        run_failing(&mut second);
        assert_eq!(second.len(), 1, "failed on the replayed corpus seed");
        assert_eq!(second[0], *first.last().unwrap());
        // And no duplicate corpus entry was appended.
        assert_eq!(read_seeds(path).len(), 1);
        let kept = path.clone();
        drop(scratch);
        assert!(!std::path::Path::new(&kept).exists(), "{kept} outlived its test");
    }

    #[test]
    fn panicking_bodies_are_caught_and_persisted() {
        let path = &scratch("panic-capture").0;
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run(path, "panicky", &ProptestConfig::with_cases(5), |_rng| {
                let x: Option<u32> = None;
                let _ = x.unwrap(); // a plain panic, not a prop_assert
                Ok(())
            });
        }));
        let err = r.unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("replayable seed"), "{msg}");
        assert_eq!(read_seeds(path).len(), 1);
    }

    #[test]
    fn assume_runaway_is_bounded() {
        let path = &scratch("assume-runaway").0;
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run(path, "rejector", &ProptestConfig::with_cases(10), |_rng| {
                Err(TestCaseError::Reject)
            });
        }));
        let err = r.unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("gave up"), "{msg}");
    }

    #[test]
    fn proptest_cases_env_overrides_config() {
        // Serialise around the env var: cargo may run tests in parallel.
        let path = &scratch("cases-env").0;
        std::env::set_var("PROPTEST_CASES", "7");
        let mut n = 0u32;
        run(path, "env_cases", &ProptestConfig::with_cases(500), |_rng| {
            n += 1;
            Ok(())
        });
        std::env::remove_var("PROPTEST_CASES");
        assert_eq!(n, 7);
    }
}
