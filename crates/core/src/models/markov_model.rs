//! The supplementary-variable Markov model (paper §4.1, Eqs. 11–24).

use std::time::Instant;

use wsnem_markov::SupplementaryVariableModel;

use crate::backend::{
    require_exponential_service, BackendId, Capabilities, CpuSolver, EvalOptions,
};
use crate::error::CoreError;
use crate::evaluation::ModelEvaluation;
use crate::params::CpuModelParams;

/// The registry solver for [`BackendId::Markov`]: the paper's closed form.
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
        let start = Instant::now();
        params.validate()?;
        let m = SupplementaryVariableModel::new(
            params.lambda,
            params.mu,
            params.power_down_threshold,
            params.power_up_delay,
        )?;
        Ok(ModelEvaluation {
            kind: BackendId::Markov,
            fractions: m.fractions(),
            mean_jobs: Some(m.mean_jobs()),
            mean_latency: Some(m.mean_latency()),
            eval_seconds: start.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(params: CpuModelParams) -> Result<ModelEvaluation, CoreError> {
        MarkovSolver.solve(&params, &EvalOptions::default())
    }

    #[test]
    fn evaluates_paper_defaults() {
        let eval = eval(CpuModelParams::paper_defaults()).unwrap();
        assert_eq!(eval.kind, BackendId::Markov);
        assert!(eval.fractions.is_normalized(1e-9));
        assert!(eval.mean_jobs.unwrap() > 0.0);
        assert!(eval.mean_latency.unwrap() > 0.0);
        assert!(eval.eval_seconds < 0.1, "closed form must be instant");
    }

    #[test]
    fn invalid_params_propagate() {
        let p = CpuModelParams::paper_defaults().with_lambda(-1.0);
        assert!(eval(p).is_err());
        // The closed form rejects them on its own, too.
        assert!(SupplementaryVariableModel::new(
            p.lambda,
            p.mu,
            p.power_down_threshold,
            p.power_up_delay
        )
        .is_err());
    }
}
