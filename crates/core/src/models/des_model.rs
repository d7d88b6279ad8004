//! The discrete-event ground-truth simulator (paper §5's benchmark).

use std::time::Instant;

use wsnem_des::cpu::{CpuDes, CpuSimParams};
use wsnem_des::workload::Workload;
use wsnem_energy::StateFractions;
use wsnem_stats::replicate::replicate;

use crate::backend::{require_stable, BackendId, Capabilities, CpuSolver, EvalOptions};
use crate::error::CoreError;
use crate::evaluation::ModelEvaluation;
use crate::params::CpuModelParams;

/// The registry solver for [`BackendId::Des`] — the ground truth: the event
/// simulator (Matlab in the paper, Rust here), run as parallel independent
/// replications. It honors both [`EvalOptions::service`] and
/// [`EvalOptions::workload`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DesSolver;

impl CpuSolver for DesSolver {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            id: BackendId::Des,
            analytic: false,
            ground_truth: true,
            assumes_poisson: false,
            supports_service_dist: true,
            provides_mean_jobs: true,
            provides_latency: true,
            uses_seed: true,
            cost_rank: 3,
        }
    }

    fn solve(
        &self,
        params: &CpuModelParams,
        opts: &EvalOptions,
    ) -> Result<ModelEvaluation, CoreError> {
        params.validate_fields()?;
        opts.service.validate(params.mu)?;
        let service = opts.service.to_dist(params.mu);
        require_stable(BackendId::Des, params, &opts.service)?;
        let workload = opts
            .workload
            .clone()
            .unwrap_or_else(|| Workload::open_poisson(params.lambda));
        let sim = CpuDes::new(
            CpuSimParams {
                service,
                power_down_threshold: params.power_down_threshold,
                power_up_delay: params.power_up_delay,
                horizon: params.horizon,
                warmup: params.warmup,
                max_queue: None,
            },
            workload,
        )?;
        let start = Instant::now();
        let run = replicate(
            params.replications,
            params.master_seed,
            opts.threads,
            |rng| Ok::<_, CoreError>(sim.run(rng)),
        )?;
        Ok(ModelEvaluation {
            kind: BackendId::Des,
            fractions: StateFractions::from_array(std::array::from_fn(|k| {
                run.mean(|r| r.fractions.as_array()[k])
            })),
            mean_jobs: Some(run.mean(|r| r.mean_jobs_in_system)),
            mean_latency: Some(run.mean(|r| r.mean_latency)),
            eval_seconds: start.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::markov_model::MarkovSolver;

    fn solve(params: CpuModelParams, threads: Option<usize>) -> Result<ModelEvaluation, CoreError> {
        DesSolver.solve(&params, &EvalOptions::default().with_threads(threads))
    }

    #[test]
    fn evaluates_and_normalizes() {
        let params = CpuModelParams::paper_defaults()
            .with_replications(4)
            .with_horizon(500.0);
        let eval = solve(params, None).unwrap();
        assert_eq!(eval.kind, BackendId::Des);
        assert!(eval.fractions.is_normalized(1e-6));
        assert!(eval.mean_jobs.unwrap() >= 0.0);
        assert!(eval.mean_latency.unwrap() > 0.0);
    }

    #[test]
    fn deterministic_under_threads() {
        let params = CpuModelParams::paper_defaults()
            .with_replications(6)
            .with_horizon(300.0);
        let a = solve(params, Some(1)).unwrap();
        let b = solve(params, Some(3)).unwrap();
        assert_eq!(a.fractions, b.fractions);
    }

    #[test]
    fn matches_markov_for_tiny_powerup_delay() {
        // At D = 0.001 the supplementary-variable model is essentially
        // exact; DES must agree within Monte-Carlo noise (the paper's
        // Fig. 4 message).
        let params = CpuModelParams::paper_defaults()
            .with_power_down_threshold(0.5)
            .with_replications(8)
            .with_horizon(4000.0)
            .with_warmup(200.0);
        let des = solve(params, None).unwrap();
        let markov = MarkovSolver
            .solve(&params, &EvalOptions::default())
            .unwrap();
        let delta = des.fractions.mean_abs_delta_pct(&markov.fractions);
        assert!(delta < 1.5, "Δ = {delta} percentage points");
    }

    #[test]
    fn invalid_params_propagate() {
        let params = CpuModelParams::paper_defaults().with_mu(0.5);
        assert!(solve(params, None).is_err(), "rho > 1 rejected");
    }
}
