//! Exact M/G/1 analytic backend — Pollaczek–Khinchine occupancy and wait
//! for the paper's power-managed CPU, for *any* service-time law.
//!
//! ## The closed form
//!
//! The node is an M/G/1 queue with Poisson arrivals at rate λ, service time
//! `S` (mean `E[S]`, squared coefficient of variation `cv²`), a power-down
//! threshold `T` (an idle period survives unserved for `T` seconds before
//! the CPU drops to standby) and a deterministic power-up delay `D` paid
//! when an arrival finds the CPU in standby. Let
//!
//! ```text
//! ρ = λ·E[S]            (utilization; stability needs ρ < 1)
//! p = e^(−λT)           (probability an idle period outlives T)
//! denom = 1 + p·λ·D     (cycle-length normalizer of the setup overhead)
//! ```
//!
//! Renewal–reward over regeneration cycles gives the exact state fractions
//! (they depend on the service law only through `E[S]`):
//!
//! ```text
//! active  = ρ
//! idle    = (1 − p)(1 − ρ) / denom
//! standby = p(1 − ρ) / denom
//! powerup = p·λ·D·(1 − ρ) / denom
//! ```
//!
//! and the mean wait is Pollaczek–Khinchine plus the deterministic-setup
//! term of the M/G/1 queue with server setup:
//!
//! ```text
//! E[S²] = E[S]²·(1 + cv²)
//! E[W]  = λ·E[S²] / (2(1 − ρ))  +  p·D·(2 + λD) / (2·denom)
//! ```
//!
//! With `T = D = 0` this is the textbook P–K formula; with exponential
//! service it reproduces the paper's supplementary-variable model in its
//! `D → 0` regime, and — unlike that model's Markov approximation — stays
//! exact for large `D` (`active = ρ` matches the DES ground truth at every
//! stable point). Evaluation is a handful of flops, which is what makes the
//! million-node analytic fast path possible.

use std::time::Instant;

use wsnem_energy::StateFractions;
use wsnem_stats::dist::Sample;

use crate::backend::{
    require_stable, BackendId, Capabilities, CpuSolver, EvalOptions, ServiceDist,
};
use crate::error::CoreError;
use crate::evaluation::ModelEvaluation;
use crate::params::CpuModelParams;

/// Validate the fields the closed form consumes. Deliberately *not*
/// [`CpuModelParams::validate`]: that checks stability as λ/μ < 1, which is
/// wrong under a [`ServiceDist::General`] service law, and the
/// simulation-only fields (horizon, warm-up, replications) are irrelevant
/// here. Instability is reported separately as [`CoreError::Unsupported`].
fn validate(p: &CpuModelParams, service: &ServiceDist) -> Result<(), CoreError> {
    let check = |what: &'static str, ok: bool, constraint: &'static str, value: f64| {
        if ok {
            Ok(())
        } else {
            Err(CoreError::InvalidParameter {
                what,
                constraint,
                value,
            })
        }
    };
    check(
        "lambda",
        p.lambda > 0.0 && p.lambda.is_finite(),
        "> 0 and finite",
        p.lambda,
    )?;
    check(
        "power_down_threshold",
        p.power_down_threshold >= 0.0 && p.power_down_threshold.is_finite(),
        ">= 0 and finite",
        p.power_down_threshold,
    )?;
    check(
        "power_up_delay",
        p.power_up_delay >= 0.0 && p.power_up_delay.is_finite(),
        ">= 0 and finite",
        p.power_up_delay,
    )?;
    service.validate(p.mu)
}

/// The registry solver for [`BackendId::Mg1`]: the exact M/G/1 closed form
/// of the module docs, for any [`EvalOptions::service`] law.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mg1Solver;

impl CpuSolver for Mg1Solver {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            id: BackendId::Mg1,
            analytic: true,
            ground_truth: false,
            assumes_poisson: true,
            supports_service_dist: true,
            provides_mean_jobs: true,
            provides_latency: true,
            uses_seed: false,
            cost_rank: 1,
        }
    }

    fn solve(&self, p: &CpuModelParams, opts: &EvalOptions) -> Result<ModelEvaluation, CoreError> {
        let start = Instant::now();
        validate(p, &opts.service)?;
        let dist = opts.service.to_dist(p.mu);
        // The only genuinely unsupported input: an unstable queue has no
        // steady state for a closed form to report.
        require_stable(BackendId::Mg1, p, &opts.service)?;
        let mean_s = dist.mean();
        let lambda = p.lambda;
        let rho = lambda * mean_s;
        let d = p.power_up_delay;
        let p_standby = (-lambda * p.power_down_threshold).exp();
        let denom = 1.0 + p_standby * lambda * d;
        let fractions = StateFractions::new(
            p_standby * (1.0 - rho) / denom,
            p_standby * lambda * d * (1.0 - rho) / denom,
            (1.0 - p_standby) * (1.0 - rho) / denom,
            rho,
        );
        let mean_s2 = mean_s * mean_s * (1.0 + dist.cv2());
        let wait = lambda * mean_s2 / (2.0 * (1.0 - rho))
            + p_standby * d * (2.0 + lambda * d) / (2.0 * denom);
        let latency = wait + mean_s;
        Ok(ModelEvaluation {
            kind: BackendId::Mg1,
            fractions,
            mean_jobs: Some(lambda * latency),
            mean_latency: Some(latency),
            eval_seconds: start.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::markov_model::MarkovSolver;
    use wsnem_stats::dist::Dist;

    fn try_eval(
        params: CpuModelParams,
        service: ServiceDist,
    ) -> Result<ModelEvaluation, CoreError> {
        Mg1Solver.solve(&params, &EvalOptions::default().with_service(service))
    }

    fn eval(params: CpuModelParams, service: ServiceDist) -> ModelEvaluation {
        try_eval(params, service).unwrap()
    }

    #[test]
    fn paper_defaults_match_markov_at_small_d() {
        let p = CpuModelParams::paper_defaults();
        let exact = eval(p, ServiceDist::Exponential);
        assert!(exact.fractions.is_normalized(1e-12));
        assert!(
            (exact.fractions.active - p.rho()).abs() < 1e-12,
            "active = rho exactly"
        );
        // D = 0.001 is deep in the supplementary-variable model's accurate
        // regime, so the paper's closed form and the exact one agree.
        let markov = MarkovSolver.solve(&p, &EvalOptions::default()).unwrap();
        assert!(exact.fractions.mean_abs_delta_pct(&markov.fractions) < 0.1);
        assert!(exact.eval_seconds < 0.1);
        assert_eq!(exact.kind, BackendId::Mg1);
    }

    #[test]
    fn md1_wait_is_half_of_mm1() {
        // With D = 0 the setup term vanishes and E[W] is pure P-K, so the
        // M/D/1 wait must be exactly half the M/M/1 wait at equal rho.
        let p = CpuModelParams::paper_defaults()
            .with_lambda(6.0)
            .with_mu(10.0)
            .with_power_up_delay(0.0);
        let exp_s = 1.0 / p.mu;
        let mm1_wait = eval(p, ServiceDist::Exponential).mean_latency.unwrap() - exp_s;
        let md1_wait = eval(p, ServiceDist::Deterministic).mean_latency.unwrap() - exp_s;
        assert!((mm1_wait - p.rho() / (p.mu * (1.0 - p.rho()))).abs() < 1e-12);
        assert!(
            (md1_wait - 0.5 * mm1_wait).abs() < 1e-12,
            "{md1_wait} vs {mm1_wait}"
        );
    }

    #[test]
    fn erlang_1_and_general_cv1_collapse_to_exponential() {
        let p = CpuModelParams::paper_defaults().with_lambda(4.0);
        let mm1 = eval(p, ServiceDist::Exponential);
        let erl = eval(p, ServiceDist::Erlang { k: 1 });
        let gen = eval(
            p,
            ServiceDist::General {
                dist: Dist::Exponential { rate: p.mu },
            },
        );
        for other in [&erl, &gen] {
            assert!(mm1.fractions.mean_abs_delta_pct(&other.fractions) < 1e-12);
            assert!((mm1.mean_latency.unwrap() - other.mean_latency.unwrap()).abs() < 1e-12);
            assert!((mm1.mean_jobs.unwrap() - other.mean_jobs.unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn general_service_sets_rho_from_its_own_mean() {
        // General ignores mu: an exponential at rate 3 gives rho = 1/3.
        let p = CpuModelParams::paper_defaults()
            .with_power_down_threshold(0.0)
            .with_power_up_delay(0.0);
        let e = eval(
            p,
            ServiceDist::General {
                dist: Dist::Exponential { rate: 3.0 },
            },
        );
        assert!((e.fractions.active - 1.0 / 3.0).abs() < 1e-12);
        // So does the latency: M/M/1 at rate 3, not at mu.
        assert!((e.mean_latency.unwrap() - 1.0 / (3.0 - p.lambda)).abs() < 1e-12);
    }

    #[test]
    fn unstable_points_are_unsupported() {
        let p = CpuModelParams::paper_defaults().with_lambda(10.0); // rho = 1
        let err = try_eval(p, ServiceDist::Exponential).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Unsupported {
                    backend: BackendId::Mg1,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("unstable"), "{err}");
        // A General law can destabilize a point that is stable at mu.
        let err = try_eval(
            CpuModelParams::paper_defaults(),
            ServiceDist::General {
                dist: Dist::Deterministic(2.0),
            },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let base = CpuModelParams::paper_defaults();
        for bad in [
            base.with_lambda(0.0),
            base.with_lambda(f64::NAN),
            base.with_mu(-1.0),
            base.with_power_down_threshold(-0.1),
            base.with_power_up_delay(f64::INFINITY),
        ] {
            let err = try_eval(bad, ServiceDist::Exponential).unwrap_err();
            assert!(matches!(err, CoreError::InvalidParameter { .. }), "{err}");
        }
        let err = try_eval(base, ServiceDist::Erlang { k: 0 }).unwrap_err();
        assert!(matches!(err, CoreError::InvalidService { .. }), "{err}");
    }

    #[test]
    fn solver_is_seed_invariant_and_analytic() {
        let caps = Mg1Solver.capabilities();
        assert!(caps.analytic && caps.supports_service_dist && !caps.uses_seed);
        let p = CpuModelParams::paper_defaults();
        let a = Mg1Solver
            .solve(&p.with_seed(1), &EvalOptions::default())
            .unwrap();
        let b = Mg1Solver
            .solve(
                &p.with_seed(999).with_replications(2),
                &EvalOptions::default(),
            )
            .unwrap();
        assert_eq!(a.fractions, b.fractions);
        assert_eq!(a.mean_latency, b.mean_latency);
        // The solver honors the service option.
        let det = Mg1Solver
            .solve(
                &p,
                &EvalOptions::default().with_service(ServiceDist::Deterministic),
            )
            .unwrap();
        assert!(det.mean_latency.unwrap() < a.mean_latency.unwrap());
    }
}
