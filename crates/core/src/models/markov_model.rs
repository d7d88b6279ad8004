//! The supplementary-variable Markov model behind the [`CpuModel`] trait.

use std::time::Instant;

use wsnem_markov::SupplementaryVariableModel;

use crate::backend::{
    require_exponential_service, BackendId, Capabilities, CpuSolver, EvalOptions,
};
use crate::error::CoreError;
use crate::evaluation::{CpuModel, ModelEvaluation};
use crate::params::CpuModelParams;

/// Paper §4.1: the closed-form Markov model (Eqs. 11–24).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkovCpuModel {
    params: CpuModelParams,
}

impl MarkovCpuModel {
    /// Wrap the shared parameters.
    pub fn new(params: CpuModelParams) -> Self {
        Self { params }
    }

    /// Access the underlying closed-form model.
    pub fn inner(&self) -> Result<SupplementaryVariableModel, CoreError> {
        self.params.validate()?;
        Ok(SupplementaryVariableModel::new(
            self.params.lambda,
            self.params.mu,
            self.params.power_down_threshold,
            self.params.power_up_delay,
        )?)
    }

    /// The parameters.
    pub fn params(&self) -> CpuModelParams {
        self.params
    }
}

impl CpuModel for MarkovCpuModel {
    fn kind(&self) -> BackendId {
        BackendId::Markov
    }

    fn evaluate(&self) -> Result<ModelEvaluation, CoreError> {
        let start = Instant::now();
        let m = self.inner()?;
        let fractions = m.fractions();
        Ok(ModelEvaluation {
            kind: BackendId::Markov,
            fractions,
            mean_jobs: Some(m.mean_jobs()),
            mean_latency: Some(m.mean_latency()),
            eval_seconds: start.elapsed().as_secs_f64(),
        })
    }
}

/// The registry solver for [`BackendId::Markov`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MarkovSolver;

impl CpuSolver for MarkovSolver {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            id: BackendId::Markov,
            analytic: true,
            ground_truth: false,
            assumes_poisson: true,
            supports_service_dist: false,
            provides_mean_jobs: true,
            provides_latency: true,
            uses_seed: false,
            cost_rank: 0,
        }
    }

    fn solve(
        &self,
        params: &CpuModelParams,
        opts: &EvalOptions,
    ) -> Result<ModelEvaluation, CoreError> {
        require_exponential_service(BackendId::Markov, opts)?;
        MarkovCpuModel::new(opts.apply(*params)).evaluate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_paper_defaults() {
        let m = MarkovCpuModel::new(CpuModelParams::paper_defaults());
        let eval = m.evaluate().unwrap();
        assert_eq!(eval.kind, BackendId::Markov);
        assert!(eval.fractions.is_normalized(1e-9));
        assert!(eval.mean_jobs.unwrap() > 0.0);
        assert!(eval.mean_latency.unwrap() > 0.0);
        assert!(eval.eval_seconds < 0.1, "closed form must be instant");
        assert_eq!(m.params().lambda, 1.0);
    }

    #[test]
    fn invalid_params_propagate() {
        let m = MarkovCpuModel::new(CpuModelParams::paper_defaults().with_lambda(-1.0));
        assert!(m.evaluate().is_err());
        assert!(m.inner().is_err());
    }
}
