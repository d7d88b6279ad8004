//! The discrete-event ground-truth simulator behind the [`CpuModel`] trait.

use std::time::Instant;

use wsnem_des::cpu::{CpuDes, CpuSimParams};
use wsnem_des::replication::run_replications;
use wsnem_des::workload::Workload;
use wsnem_stats::dist::Dist;
use wsnem_stats::online::Welford;

use crate::backend::{BackendId, Capabilities, CpuSolver, EvalOptions};
use crate::error::CoreError;
use crate::evaluation::{CpuModel, ModelEvaluation};
use crate::params::CpuModelParams;

/// Paper §5's benchmark: the event simulator (Matlab in the paper, Rust
/// here), run as parallel independent replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesCpuModel {
    params: CpuModelParams,
    threads: Option<usize>,
}

impl DesCpuModel {
    /// Wrap the shared parameters (replications spread over all cores).
    pub fn new(params: CpuModelParams) -> Self {
        Self {
            params,
            threads: None,
        }
    }

    /// Pin the number of worker threads (e.g. `Some(1)` inside an outer
    /// parallel sweep).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// The parameters.
    pub fn params(&self) -> CpuModelParams {
        self.params
    }

    fn sim(&self) -> Result<CpuDes, CoreError> {
        self.params.validate()?;
        Ok(CpuDes::new(
            cpu_sim_params(
                &self.params,
                Dist::Exponential {
                    rate: self.params.mu,
                },
            ),
            Workload::open_poisson(self.params.lambda),
        )?)
    }
}

/// The single place the shared model parameters are wired into the DES
/// kernel's [`CpuSimParams`] (used by both the typed model and the registry
/// solver).
fn cpu_sim_params(params: &CpuModelParams, service: Dist) -> CpuSimParams {
    CpuSimParams {
        service,
        power_down_threshold: params.power_down_threshold,
        power_up_delay: params.power_up_delay,
        horizon: params.horizon,
        warmup: params.warmup,
        max_queue: None,
    }
}

impl CpuModel for DesCpuModel {
    fn kind(&self) -> BackendId {
        BackendId::Des
    }

    fn evaluate(&self) -> Result<ModelEvaluation, CoreError> {
        let sim = self.sim()?;
        evaluate_sim(&sim, self.params, self.threads)
    }
}

/// Run a configured simulator's replications and reduce them into the
/// shared evaluation shape.
fn evaluate_sim(
    sim: &CpuDes,
    params: CpuModelParams,
    threads: Option<usize>,
) -> Result<ModelEvaluation, CoreError> {
    let start = Instant::now();
    let summary = run_replications(sim, params.replications, params.master_seed, threads);
    let mut jobs = Welford::new();
    let mut latency = Welford::new();
    for r in &summary.reports {
        jobs.push(r.mean_jobs_in_system);
        latency.push(r.mean_latency);
    }
    Ok(ModelEvaluation {
        kind: BackendId::Des,
        fractions: summary.mean_fractions(),
        mean_jobs: Some(jobs.mean()),
        mean_latency: Some(latency.mean()),
        eval_seconds: start.elapsed().as_secs_f64(),
    })
}

/// The registry solver for [`BackendId::Des`] — the ground truth. Unlike
/// the typed [`DesCpuModel`], it honors both [`EvalOptions::service`] and
/// [`EvalOptions::workload`] (the capabilities the analytic backends lack).
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
        let params = opts.apply(*params);
        params.validate()?;
        opts.service.validate(params.mu)?;
        let workload = opts
            .workload
            .clone()
            .unwrap_or_else(|| Workload::open_poisson(params.lambda));
        let sim = CpuDes::new(
            cpu_sim_params(&params, opts.service.to_dist(params.mu)),
            workload,
        )?;
        evaluate_sim(&sim, params, opts.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_and_normalizes() {
        let params = CpuModelParams::paper_defaults()
            .with_replications(4)
            .with_horizon(500.0);
        let m = DesCpuModel::new(params);
        let eval = m.evaluate().unwrap();
        assert_eq!(eval.kind, BackendId::Des);
        assert!(eval.fractions.is_normalized(1e-6));
        assert!(eval.mean_jobs.unwrap() >= 0.0);
        assert!(eval.mean_latency.unwrap() > 0.0);
        assert_eq!(m.params().replications, 4);
    }

    #[test]
    fn deterministic_under_threads() {
        let params = CpuModelParams::paper_defaults()
            .with_replications(6)
            .with_horizon(300.0);
        let a = DesCpuModel::new(params)
            .with_threads(Some(1))
            .evaluate()
            .unwrap();
        let b = DesCpuModel::new(params)
            .with_threads(Some(3))
            .evaluate()
            .unwrap();
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
        let des = DesCpuModel::new(params).evaluate().unwrap();
        let markov = crate::MarkovCpuModel::new(params).evaluate().unwrap();
        let delta = des.fractions.mean_abs_delta_pct(&markov.fractions);
        assert!(delta < 1.5, "Δ = {delta} percentage points");
    }

    #[test]
    fn invalid_params_propagate() {
        let m = DesCpuModel::new(CpuModelParams::paper_defaults().with_mu(0.5));
        assert!(m.evaluate().is_err(), "rho > 1 rejected");
    }
}
