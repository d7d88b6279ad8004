//! Parallel independent replications of the CPU simulator on
//! [`wsnem_stats::replicate`], where every simulator's replications run:
//! replication `i` consumes RNG stream `i` derived from the master seed,
//! and outputs are kept in replication order, so every statistic is
//! bit-identical whether the run used 1 thread or 64 (README,
//! "Reproducibility").

use std::convert::Infallible;

use wsnem_stats::replicate::{replicate, Replications};

use crate::cpu::{CpuDes, CpuRunReport};

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
) -> Replications<CpuRunReport> {
    let Ok(run) = replicate(n, master_seed, threads, |rng| {
        Ok::<_, Infallible>(sim.run(rng))
    });
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuSimParams;
    use crate::workload::Workload;
    use wsnem_energy::StateFractions;

    fn mean_fractions(run: &Replications<CpuRunReport>) -> StateFractions {
        StateFractions::from_array(std::array::from_fn(|k| {
            run.mean(|r| r.fractions.as_array()[k])
        }))
    }

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
        assert_eq!(mean_fractions(&seq), mean_fractions(&par));
    }

    #[test]
    fn summary_statistics() {
        let s = sim();
        let sum = run_replications(&s, 16, 7, None);
        assert_eq!(sum.replications(), 16);
        let f = mean_fractions(&sum);
        assert!(f.is_normalized(1e-6), "{f:?}");
        let ci = sum.ci(|r| r.fractions.active, 0.95).unwrap();
        assert!(ci.half_width > 0.0);
        assert!(ci.contains(f.active));
        assert!(sum.mean(|r| r.mean_latency) > 0.0);
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
