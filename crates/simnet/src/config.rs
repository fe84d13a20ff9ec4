//! Simulation parameters: latency models and network pathology knobs.

use abd_core::types::Nanos;
use rand::Rng;

/// Distribution of point-to-point message delays.
///
/// The paper's model places no bound on delays; the simulator draws them
/// from one of these distributions so that experiments can ask *how the
/// emulation's latency tracks the network's* (experiment **F1**: operation
/// latency is proportional to round trips × delay, independent of `n`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(Nanos),
    /// Uniformly distributed in `[lo, hi]`.
    Uniform {
        /// Minimum delay.
        lo: Nanos,
        /// Maximum delay (inclusive).
        hi: Nanos,
    },
    /// Mostly `fast`, but with probability `slow_prob` a message straggles
    /// for `slow` — the adversary that makes "wait for all" protocols crawl
    /// while quorum protocols keep their pace (experiment **F2**).
    Bimodal {
        /// Common-case delay.
        fast: Nanos,
        /// Straggler delay.
        slow: Nanos,
        /// Probability of a straggler, in `[0, 1]`.
        slow_prob: f64,
    },
}

impl LatencyModel {
    /// Draws one delay.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> Nanos {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform latency needs lo <= hi");
                rng.gen_range(lo..=hi)
            }
            LatencyModel::Bimodal {
                fast,
                slow,
                slow_prob,
            } => {
                if rng.gen_bool(slow_prob.clamp(0.0, 1.0)) {
                    slow
                } else {
                    fast
                }
            }
        }
    }
}

/// Full simulator configuration.
#[derive(Clone, PartialEq, Debug)]
pub struct SimConfig {
    /// Seed for every random decision the simulator makes. Identical seeds
    /// (and identical command sequences) replay identical executions.
    pub seed: u64,
    /// Message delay distribution.
    pub latency: LatencyModel,
    /// Probability that a message is silently lost in transit.
    pub loss_prob: f64,
    /// Probability that a message is delivered twice (with independent
    /// delays).
    pub dup_prob: f64,
}

impl SimConfig {
    /// A reliable network with uniform delays in `[1µs, 10µs]` — the
    /// defaults most experiments start from. Independent delays reorder
    /// messages on a link freely, as the paper's model allows.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            latency: LatencyModel::Uniform {
                lo: 1_000,
                hi: 10_000,
            },
            loss_prob: 0.0,
            dup_prob: 0.0,
        }
    }

    /// Replaces the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the message loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1)`.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability must be in [0,1)");
        self.loss_prob = p;
        self
    }

    /// Sets the message duplication probability.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1)`.
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "duplication probability must be in [0,1)"
        );
        self.dup_prob = p;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn constant_latency_is_constant() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = LatencyModel::Constant(500);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), 500);
        }
    }

    #[test]
    fn uniform_latency_stays_in_range() {
        let mut rng = SmallRng::seed_from_u64(2);
        let m = LatencyModel::Uniform { lo: 10, hi: 20 };
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!((10..=20).contains(&d));
        }
    }

    #[test]
    fn bimodal_mixes_fast_and_slow() {
        let mut rng = SmallRng::seed_from_u64(3);
        let m = LatencyModel::Bimodal {
            fast: 1,
            slow: 100,
            slow_prob: 0.5,
        };
        let samples: Vec<Nanos> = (0..200).map(|_| m.sample(&mut rng)).collect();
        assert!(samples.contains(&1));
        assert!(samples.contains(&100));
    }

    #[test]
    fn same_seed_same_samples() {
        let m = LatencyModel::Uniform {
            lo: 0,
            hi: 1_000_000,
        };
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(m.sample(&mut a), m.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_certain_loss() {
        SimConfig::new(0).with_loss(1.0);
    }

    #[test]
    fn builder_chains() {
        let c = SimConfig::new(7)
            .with_latency(LatencyModel::Constant(5))
            .with_loss(0.25)
            .with_duplication(0.1);
        assert_eq!(c.seed, 7);
        assert_eq!(c.latency, LatencyModel::Constant(5));
        assert_eq!((c.loss_prob, c.dup_prob), (0.25, 0.1));
    }
}
