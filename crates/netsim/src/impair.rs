//! Path-level fault injection — the "network weather" layer.
//!
//! The simulator's default path is ideal: packets that survive the
//! bottleneck AQM always arrive, in order, after a fixed propagation
//! delay, and so do ACKs. Real paths lose, reorder and duplicate
//! packets, and the paper's dynamics claims (Section 5: PI2's ×3.5 loop
//! gain recovers from disturbances faster than PIE) only matter if they
//! survive such weather. This module injects it deterministically:
//!
//! * **random loss** — each packet (or ACK) crossing a direction is
//!   dropped with probability `loss`;
//! * **reordering via jitter** — a surviving packet picks up a uniform
//!   extra delay in `[0, jitter]`; jitter larger than the inter-packet
//!   spacing yields genuine reordering at the receiver;
//! * **duplication** — with probability `dup` a second copy of a
//!   surviving packet is injected, with its own jitter draw.
//!
//! Impairments apply *after* the bottleneck (forward direction: between
//! dequeue and delivery; reverse: on the ACK path), so the AQM, the
//! queue, and the audit's enqueue/dequeue conservation are untouched —
//! what changes is only what the endpoints observe.
//!
//! ## Determinism
//!
//! The layer draws from its **own seeded RNG stream**
//! ([`LinkImpairments::seed`]), never from the simulator's root RNG.
//! Two consequences, both load-bearing for the test suite:
//!
//! * the same seed gives bit-identical impaired runs, across any
//!   `PI2_THREADS` setting (each run owns its state);
//! * an all-zero impairment config is *exact identity*: zero-probability
//!   [`pi2_simcore::Rng::chance`] calls consume no variate and the
//!   jitter draw is guarded, so no randomness is consumed at all, no
//!   extra events are scheduled, and the run is bit-identical to one
//!   with no impairment layer attached.

use pi2_simcore::{ckpt_fields, Duration, Rng};

/// Impairments applied to one direction of a path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImpairmentConf {
    /// Probability that a packet is silently lost in transit.
    pub loss: f64,
    /// Probability that a surviving packet is delivered twice.
    pub dup: f64,
    /// Maximum extra propagation delay, drawn uniformly from
    /// `[0, jitter]` per surviving packet. Zero means no draw at all.
    pub jitter: Duration,
}

impl ImpairmentConf {
    /// The identity: no loss, no duplication, no jitter.
    pub const OFF: ImpairmentConf = ImpairmentConf {
        loss: 0.0,
        dup: 0.0,
        jitter: Duration::ZERO,
    };

    /// True when this direction is the identity transform.
    pub fn is_off(&self) -> bool {
        self.loss <= 0.0 && self.dup <= 0.0 && self.jitter <= Duration::ZERO
    }
}

impl Default for ImpairmentConf {
    fn default() -> Self {
        ImpairmentConf::OFF
    }
}

/// Full impairment configuration: one [`ImpairmentConf`] per direction
/// plus the layer's independent RNG seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkImpairments {
    /// Data direction (bottleneck dequeue → receiver).
    pub fwd: ImpairmentConf,
    /// ACK direction (receiver → sender).
    pub rev: ImpairmentConf,
    /// Seed of the layer's own RNG stream. Kept separate from the
    /// simulator's root seed so attaching an (all-zero) impairment layer
    /// cannot shift any other random decision in the run.
    pub seed: u64,
}

impl LinkImpairments {
    /// An identity configuration (both directions off) around `seed`.
    pub fn new(seed: u64) -> Self {
        LinkImpairments {
            fwd: ImpairmentConf::OFF,
            rev: ImpairmentConf::OFF,
            seed,
        }
    }

    /// Builder: set the data-direction impairments.
    pub fn forward(mut self, conf: ImpairmentConf) -> Self {
        self.fwd = conf;
        self
    }

    /// Builder: set the ACK-direction impairments.
    pub fn reverse(mut self, conf: ImpairmentConf) -> Self {
        self.rev = conf;
        self
    }

    /// Builder: the same impairments in both directions.
    pub fn symmetric(self, conf: ImpairmentConf) -> Self {
        self.forward(conf).reverse(conf)
    }

    /// True when both directions are the identity.
    pub fn is_off(&self) -> bool {
        self.fwd.is_off() && self.rev.is_off()
    }
}

/// Per-direction impairment accounting, for reports and the audit's
/// path-conservation cross-check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImpairStats {
    /// Packets offered to the forward direction (= bottleneck dequeues
    /// while the layer was attached).
    pub fwd_offered: u64,
    /// Forward packets lost in transit.
    pub fwd_lost: u64,
    /// Forward duplicates injected.
    pub fwd_dup: u64,
    /// ACKs offered to the reverse direction.
    pub rev_offered: u64,
    /// ACKs lost in transit.
    pub rev_lost: u64,
    /// ACK duplicates injected.
    pub rev_dup: u64,
}

ckpt_fields!(ImpairStats { fwd_offered, fwd_lost, fwd_dup, rev_offered, rev_lost, rev_dup });

impl ImpairStats {
    /// Forward packets actually scheduled for delivery (originals that
    /// survived, duplicates excluded).
    pub fn fwd_passed(&self) -> u64 {
        self.fwd_offered - self.fwd_lost
    }

    /// ACKs actually scheduled for arrival (originals that survived).
    pub fn rev_passed(&self) -> u64 {
        self.rev_offered - self.rev_lost
    }
}

/// The fate of one packet crossing an impaired direction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathFate {
    /// Extra delay of the original copy; `None` when it was lost.
    pub delay: Option<Duration>,
    /// Extra delay of an injected duplicate, if any. Lost packets are
    /// never duplicated (the copy branch sits past the loss point).
    pub dup_delay: Option<Duration>,
}

impl PathFate {
    /// The identity fate: delivered once, on time.
    pub const CLEAN: PathFate = PathFate {
        delay: Some(Duration::ZERO),
        dup_delay: None,
    };
}

/// Runtime state of the impairment layer: configuration, its private
/// RNG stream, and accounting.
#[derive(Debug)]
pub struct ImpairState {
    conf: LinkImpairments,
    rng: Rng,
    stats: ImpairStats,
}

// The layer's private RNG stream and its accounting; the configuration is
// not written, so restore targets a layer built from the same
// [`LinkImpairments`].
ckpt_fields!(ImpairState { rng, stats });

impl ImpairState {
    /// Instantiate the layer from its configuration.
    pub fn new(conf: LinkImpairments) -> Self {
        ImpairState {
            conf,
            rng: Rng::new(conf.seed),
            stats: ImpairStats::default(),
        }
    }

    /// The configuration this layer runs.
    pub fn conf(&self) -> &LinkImpairments {
        &self.conf
    }

    /// Accounting so far.
    pub fn stats(&self) -> ImpairStats {
        self.stats
    }

    /// Decide the fate of one forward (data) packet.
    pub fn forward(&mut self) -> PathFate {
        let conf = self.conf.fwd;
        self.stats.fwd_offered += 1;
        let fate = Self::decide(&conf, &mut self.rng);
        if fate.delay.is_none() {
            self.stats.fwd_lost += 1;
        }
        if fate.dup_delay.is_some() {
            self.stats.fwd_dup += 1;
        }
        fate
    }

    /// Decide the fate of one reverse (ACK) packet.
    pub fn reverse(&mut self) -> PathFate {
        let conf = self.conf.rev;
        self.stats.rev_offered += 1;
        let fate = Self::decide(&conf, &mut self.rng);
        if fate.delay.is_none() {
            self.stats.rev_lost += 1;
        }
        if fate.dup_delay.is_some() {
            self.stats.rev_dup += 1;
        }
        fate
    }

    /// One packet's draws, in fixed order: loss, then (if it survived)
    /// jitter, duplication, and the duplicate's jitter. Every draw is
    /// guarded so a zero-rate knob consumes no variate — the identity
    /// property the determinism tests pin down.
    fn decide(conf: &ImpairmentConf, rng: &mut Rng) -> PathFate {
        if rng.chance(conf.loss) {
            return PathFate {
                delay: None,
                dup_delay: None,
            };
        }
        fn jitter(c: &ImpairmentConf, rng: &mut Rng) -> Duration {
            if c.jitter > Duration::ZERO {
                Duration::from_secs_f64(rng.next_f64() * c.jitter.as_secs_f64())
            } else {
                Duration::ZERO
            }
        }
        let delay = jitter(conf, rng);
        let dup_delay = if rng.chance(conf.dup) {
            Some(jitter(conf, rng))
        } else {
            None
        };
        PathFate {
            delay: Some(delay),
            dup_delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(loss: f64, dup: f64, jitter_ms: i64) -> ImpairmentConf {
        ImpairmentConf {
            loss,
            dup,
            jitter: Duration::from_millis(jitter_ms),
        }
    }

    #[test]
    fn off_config_is_identity_and_consumes_no_randomness() {
        let mut st = ImpairState::new(LinkImpairments::new(7));
        let before = st.rng.next_u64();
        // Re-seed so the comparison stream is aligned again.
        let mut st = ImpairState::new(LinkImpairments::new(7));
        for _ in 0..100 {
            assert_eq!(st.forward(), PathFate::CLEAN);
            assert_eq!(st.reverse(), PathFate::CLEAN);
        }
        // No draw was consumed: the next raw output is the stream's first.
        assert_eq!(st.rng.next_u64(), before);
        let s = st.stats();
        assert_eq!(s.fwd_offered, 100);
        assert_eq!((s.fwd_lost, s.fwd_dup, s.rev_lost, s.rev_dup), (0, 0, 0, 0));
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let conf = LinkImpairments::new(42).forward(lossy(0.3, 0.0, 0));
        let mut st = ImpairState::new(conf);
        for _ in 0..10_000 {
            st.forward();
        }
        let lost = st.stats().fwd_lost as f64 / 10_000.0;
        assert!((0.25..0.35).contains(&lost), "observed loss {lost}");
    }

    #[test]
    fn duplication_and_jitter_apply_only_to_survivors() {
        let conf = LinkImpairments::new(9).forward(lossy(0.5, 1.0, 10));
        let mut st = ImpairState::new(conf);
        for _ in 0..1000 {
            let fate = st.forward();
            match fate.delay {
                None => assert!(fate.dup_delay.is_none(), "lost packets never duplicate"),
                Some(d) => {
                    assert!(d <= Duration::from_millis(10));
                    let dd = fate.dup_delay.expect("dup probability 1");
                    assert!(dd <= Duration::from_millis(10));
                }
            }
        }
        let s = st.stats();
        assert_eq!(s.fwd_dup, s.fwd_offered - s.fwd_lost);
        assert_eq!(s.fwd_passed(), s.fwd_offered - s.fwd_lost);
    }

    #[test]
    fn same_seed_same_fates() {
        let conf = LinkImpairments::new(1234).symmetric(lossy(0.1, 0.05, 5));
        let run = || {
            let mut st = ImpairState::new(conf);
            let fates: Vec<PathFate> = (0..500)
                .map(|i| if i % 3 == 0 { st.reverse() } else { st.forward() })
                .collect();
            (fates, st.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn builders_compose() {
        let imp = LinkImpairments::new(5)
            .forward(lossy(0.01, 0.0, 2))
            .reverse(lossy(0.02, 0.0, 0));
        assert!(!imp.is_off());
        assert_eq!(imp.fwd.loss, 0.01);
        assert_eq!(imp.rev.loss, 0.02);
        assert!(LinkImpairments::new(5).is_off());
        let sym = LinkImpairments::new(5).symmetric(lossy(0.1, 0.1, 1));
        assert_eq!(sym.fwd, sym.rev);
    }
}
