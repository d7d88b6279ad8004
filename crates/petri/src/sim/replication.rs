//! Parallel independent replications of the token game.
//!
//! Mirrors the DES replication runner: replication `i` uses RNG stream `i`
//! from the master seed; reduction is in replication order; results are
//! identical for any thread count.

use wsnem_stats::ci::ConfidenceInterval;
use wsnem_stats::online::Welford;
use wsnem_stats::par;
use wsnem_stats::rng::StreamFactory;
use wsnem_stats::StatsError;

use crate::error::PetriError;
use crate::net::PetriNet;
use crate::sim::{simulate, Reward, SimConfig, SimOutput};

/// Cross-replication summary of Petri-net runs.
#[derive(Debug, Clone)]
pub struct PnReplicationSummary {
    /// Per-replication outputs in replication order.
    pub outputs: Vec<SimOutput>,
    /// Across-replication stats of each reward's time average.
    pub reward_stats: Vec<Welford>,
    /// Across-replication stats of each place's mean token count.
    pub place_stats: Vec<Welford>,
}

impl PnReplicationSummary {
    /// Mean of a reward's time averages across replications.
    pub fn reward_mean(&self, reward_index: usize) -> f64 {
        self.reward_stats[reward_index].mean()
    }

    /// Confidence interval of a reward across replications.
    pub fn reward_ci(
        &self,
        reward_index: usize,
        level: f64,
    ) -> Result<ConfidenceInterval, StatsError> {
        ConfidenceInterval::from_welford(&self.reward_stats[reward_index], level)
    }

    /// Mean tokens of a place across replications.
    pub fn place_mean(&self, place_index: usize) -> f64 {
        self.place_stats[place_index].mean()
    }

    /// Number of replications.
    pub fn replications(&self) -> usize {
        self.outputs.len()
    }
}

/// Run `n` independent replications, spreading them over `threads` OS
/// threads (`None` = available parallelism).
pub fn simulate_replications(
    net: &PetriNet,
    cfg: &SimConfig,
    rewards: &[Reward],
    n: usize,
    master_seed: u64,
    threads: Option<usize>,
) -> Result<PnReplicationSummary, PetriError> {
    assert!(n > 0, "need at least one replication");
    cfg.validate()?;
    let factory = StreamFactory::new(master_seed);
    let outputs = par::map_indexed(n, threads, |i| {
        let mut rng = factory.stream(i as u64);
        simulate(net, cfg, rewards, &mut rng)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let mut reward_stats = vec![Welford::new(); rewards.len()];
    let mut place_stats = vec![Welford::new(); net.n_places()];
    for out in &outputs {
        for (w, &v) in reward_stats.iter_mut().zip(&out.reward_means) {
            w.push(v);
        }
        for (w, &v) in place_stats.iter_mut().zip(&out.place_means) {
            w.push(v);
        }
    }
    Ok(PnReplicationSummary {
        outputs,
        reward_stats,
        place_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;

    fn mm1_net() -> (PetriNet, Reward) {
        let mut b = NetBuilder::new();
        let q = b.place("Queue", 0);
        let arrive = b.exponential("arrive", 1.0);
        let serve = b.exponential("serve", 2.0);
        b.output_arc(arrive, q, 1);
        b.input_arc(q, serve, 1);
        let net = b.build().unwrap();
        let busy = Reward::indicator("busy", move |m| m.tokens(q) > 0);
        (net, busy)
    }

    #[test]
    fn parallel_equals_sequential() {
        let (net, busy) = mm1_net();
        let cfg = SimConfig::for_horizon(300.0);
        let rewards = vec![busy];
        let seq = simulate_replications(&net, &cfg, &rewards, 8, 99, Some(1)).unwrap();
        let par = simulate_replications(&net, &cfg, &rewards, 8, 99, Some(4)).unwrap();
        assert_eq!(seq.outputs, par.outputs);
    }

    #[test]
    fn summary_converges_to_theory() {
        let (net, busy) = mm1_net();
        let cfg = SimConfig {
            horizon: 5000.0,
            warmup: 200.0,
            ..SimConfig::default()
        };
        let rewards = vec![busy];
        let sum = simulate_replications(&net, &cfg, &rewards, 16, 7, None).unwrap();
        assert_eq!(sum.replications(), 16);
        // ρ = 0.5, L = 1.
        let ci = sum.reward_ci(0, 0.99).unwrap();
        assert!(
            ci.contains(0.5),
            "utilization CI [{}, {}]",
            ci.low(),
            ci.high()
        );
        assert!(
            (sum.place_mean(0) - 1.0).abs() < 0.15,
            "{}",
            sum.place_mean(0)
        );
        assert!((sum.reward_mean(0) - 0.5).abs() < 0.05);
    }

    #[test]
    fn config_error_propagates() {
        let (net, _) = mm1_net();
        let cfg = SimConfig {
            horizon: -1.0,
            ..SimConfig::default()
        };
        assert!(simulate_replications(&net, &cfg, &[], 2, 1, Some(1)).is_err());
    }

    #[test]
    fn simulation_error_propagates_from_worker() {
        // Immediate loop net: every replication errors; the first error wins.
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let t01 = b.immediate("a", 1, 1.0);
        b.input_arc(p0, t01, 1);
        b.output_arc(t01, p1, 1);
        let t10 = b.immediate("b", 1, 1.0);
        b.input_arc(p1, t10, 1);
        b.output_arc(t10, p0, 1);
        let net = b.build().unwrap();
        let cfg = SimConfig {
            horizon: 10.0,
            max_vanishing_chain: 100,
            ..SimConfig::default()
        };
        let err = simulate_replications(&net, &cfg, &[], 4, 1, Some(2)).unwrap_err();
        assert!(matches!(err, PetriError::VanishingLoop { .. }));
    }
}
