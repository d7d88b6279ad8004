//! Parallel independent replications.
//!
//! Replication `i` always consumes RNG stream `i` derived from the master
//! seed, and results are reduced in replication order — so the summary is
//! bit-identical whether it ran on 1 thread or 64 (the reproducibility
//! contract DESIGN.md §6 promises).

use wsnem_energy::StateFractions;
use wsnem_stats::ci::ConfidenceInterval;
use wsnem_stats::online::Welford;
use wsnem_stats::par;
use wsnem_stats::rng::StreamFactory;
use wsnem_stats::StatsError;

use crate::cpu::{CpuDes, CpuRunReport};

/// Cross-replication summary of CPU runs.
#[derive(Debug, Clone)]
pub struct ReplicationSummary {
    /// Every per-replication report, in replication order.
    pub reports: Vec<CpuRunReport>,
    /// Across-replication accumulators of the four state fractions
    /// (canonical order).
    pub fraction_stats: [Welford; 4],
    /// Across-replication accumulator of mean latency.
    pub latency_stats: Welford,
}

impl ReplicationSummary {
    /// Mean state fractions across replications.
    pub fn mean_fractions(&self) -> StateFractions {
        StateFractions::from_array([
            self.fraction_stats[0].mean(),
            self.fraction_stats[1].mean(),
            self.fraction_stats[2].mean(),
            self.fraction_stats[3].mean(),
        ])
    }

    /// Confidence interval of one state fraction (canonical index).
    pub fn fraction_ci(
        &self,
        state_index: usize,
        level: f64,
    ) -> Result<ConfidenceInterval, StatsError> {
        ConfidenceInterval::from_welford(&self.fraction_stats[state_index], level)
    }

    /// Mean of the per-replication mean latencies.
    pub fn mean_latency(&self) -> f64 {
        self.latency_stats.mean()
    }

    /// Number of replications.
    pub fn replications(&self) -> usize {
        self.reports.len()
    }
}

/// Run `n` independent replications of `sim`, distributing them over
/// `threads` OS threads (`None` = available parallelism).
///
/// # Panics
/// Panics if `n == 0`.
pub fn run_replications(
    sim: &CpuDes,
    n: usize,
    master_seed: u64,
    threads: Option<usize>,
) -> ReplicationSummary {
    assert!(n > 0, "need at least one replication");
    let factory = StreamFactory::new(master_seed);
    let reports = par::map_indexed(n, threads, |i| {
        let mut rng = factory.stream(i as u64);
        sim.run(&mut rng)
    });
    // Ordered, deterministic reduction.
    let mut fraction_stats = [Welford::new(); 4];
    let mut latency_stats = Welford::new();
    for r in &reports {
        for (w, v) in fraction_stats.iter_mut().zip(r.fractions.as_array()) {
            w.push(v);
        }
        latency_stats.push(r.mean_latency);
    }
    ReplicationSummary {
        reports,
        fraction_stats,
        latency_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuSimParams;
    use crate::workload::Workload;

    fn sim() -> CpuDes {
        let params = CpuSimParams {
            horizon: 500.0,
            ..CpuSimParams::exponential_service(10.0, 0.3, 0.001)
        };
        CpuDes::new(params, Workload::open_poisson(1.0)).unwrap()
    }

    #[test]
    fn parallel_equals_sequential() {
        let s = sim();
        let seq = run_replications(&s, 8, 2024, Some(1));
        let par = run_replications(&s, 8, 2024, Some(4));
        assert_eq!(seq.reports, par.reports, "thread count must not matter");
        assert_eq!(seq.mean_fractions(), par.mean_fractions());
    }

    #[test]
    fn summary_statistics() {
        let s = sim();
        let sum = run_replications(&s, 16, 7, None);
        assert_eq!(sum.replications(), 16);
        let f = sum.mean_fractions();
        assert!(f.is_normalized(1e-6), "{f:?}");
        let ci = sum.fraction_ci(3, 0.95).unwrap(); // Active
        assert!(ci.half_width > 0.0);
        assert!(ci.contains(f.active));
        assert!(sum.mean_latency() > 0.0);
    }

    #[test]
    fn more_threads_than_replications() {
        let s = sim();
        let sum = run_replications(&s, 2, 7, Some(16));
        assert_eq!(sum.replications(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_panics() {
        let s = sim();
        let _ = run_replications(&s, 0, 1, None);
    }

    #[test]
    fn different_master_seeds_differ() {
        let s = sim();
        let a = run_replications(&s, 4, 1, Some(2));
        let b = run_replications(&s, 4, 2, Some(2));
        assert_ne!(a.reports, b.reports);
    }
}
