//! Shared parameters of the CPU models.

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// Parameters shared by all four CPU backends: the model and, for the
/// simulators, its budget and seed.
///
/// Defaults follow the paper's Table 2 with the service-rate ambiguity
/// resolved this way: *"Service Rate .1 per sec"* is
/// read as a mean service **time** of 0.1 s (μ = 10/s), since λ = 1/s with
/// μ = 0.1/s would be an unstable queue incompatible with the paper's own
/// stability requirement (Eq. 17 needs ρ < 1) and with Fig. 4's ≈10% Active
/// line.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct CpuModelParams {
    /// Poisson arrival rate λ (jobs/s). Paper: 1/s.
    pub lambda: f64,
    /// Exponential service rate μ (jobs/s). Paper: 10/s (see above).
    pub mu: f64,
    /// Power Down Threshold `T` (s): idle time before entering standby.
    pub power_down_threshold: f64,
    /// Power Up Delay `D` (s): constant wake-up time. Paper Fig. 4/5: 0.001.
    pub power_up_delay: f64,
    /// Simulated horizon per replication (s). Paper: 1000 s.
    pub horizon: f64,
    /// Warm-up truncation per replication (s).
    pub warmup: f64,
    /// Independent replications for the simulation-based models.
    pub replications: usize,
    /// Master seed for the replication RNG streams.
    pub master_seed: u64,
}

impl CpuModelParams {
    /// The paper's Table 2 settings (with T = 0.5 s as a mid-sweep default).
    pub fn paper_defaults() -> Self {
        Self {
            lambda: 1.0,
            mu: 10.0,
            power_down_threshold: 0.5,
            power_up_delay: 0.001,
            horizon: 1000.0,
            warmup: 0.0,
            replications: 16,
            master_seed: 0x5EED_2008,
        }
    }

    /// Replace the arrival rate λ.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Replace the service rate μ.
    pub fn with_mu(mut self, mu: f64) -> Self {
        self.mu = mu;
        self
    }

    /// Replace the Power Down Threshold `T`.
    pub fn with_power_down_threshold(mut self, t: f64) -> Self {
        self.power_down_threshold = t;
        self
    }

    /// Replace the Power Up Delay `D`.
    pub fn with_power_up_delay(mut self, d: f64) -> Self {
        self.power_up_delay = d;
        self
    }

    /// Replace the per-replication horizon.
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Replace the warm-up truncation.
    pub fn with_warmup(mut self, warmup: f64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Replace the replication count.
    pub fn with_replications(mut self, replications: usize) -> Self {
        self.replications = replications;
        self
    }

    /// Replace the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Effective parameters for a relay node: its own sensing rate plus the
    /// traffic it forwards for its subtree, wired into λ. With
    /// `forwarded = 0` this is exactly `with_lambda(own_rate)` — the
    /// single-hop case.
    pub fn with_forwarding(self, own_rate: f64, forwarded: f64) -> Self {
        self.with_lambda(own_rate + forwarded)
    }

    /// Offered load ρ = λ/μ.
    pub fn rho(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Validate the full parameter set, with stability judged as
    /// ρ = λ/μ < 1: the rule for every law whose mean service time is
    /// `1/μ`. The `PetriNet`, `Des` and `Mg1` solvers, which honour any
    /// service law, check [`Self::validate_fields`] and then the load of
    /// the law they solve: `λ·E[S] < 1`, and also λ/μ < 1 when that law
    /// has mean `1/μ`.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.validate_fields()?;
        check("rho", self.rho() < 1.0, "< 1 (stable queue)", self.rho())
    }

    /// Validate every field on its own; stability is left to the caller.
    pub fn validate_fields(&self) -> Result<(), CoreError> {
        check(
            "lambda",
            self.lambda > 0.0 && self.lambda.is_finite(),
            "> 0 and finite",
            self.lambda,
        )?;
        check(
            "mu",
            self.mu > 0.0 && self.mu.is_finite(),
            "> 0 and finite",
            self.mu,
        )?;
        check(
            "power_down_threshold",
            self.power_down_threshold >= 0.0 && self.power_down_threshold.is_finite(),
            ">= 0 and finite",
            self.power_down_threshold,
        )?;
        check(
            "power_up_delay",
            self.power_up_delay >= 0.0 && self.power_up_delay.is_finite(),
            ">= 0 and finite",
            self.power_up_delay,
        )?;
        check(
            "horizon",
            self.horizon > 0.0 && self.horizon.is_finite(),
            "> 0 and finite",
            self.horizon,
        )?;
        check(
            "warmup",
            (0.0..self.horizon).contains(&self.warmup),
            "0 <= warmup < horizon",
            self.warmup,
        )?;
        check(
            "replications",
            self.replications >= 1,
            ">= 1",
            self.replications as f64,
        )?;
        Ok(())
    }
}

fn check(
    what: &'static str,
    ok: bool,
    constraint: &'static str,
    value: f64,
) -> Result<(), CoreError> {
    if ok {
        Ok(())
    } else {
        Err(CoreError::InvalidParameter {
            what,
            constraint,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_valid_and_stable() {
        let p = CpuModelParams::paper_defaults();
        p.validate().unwrap();
        assert_eq!(p.lambda, 1.0);
        assert_eq!(p.mu, 10.0);
        assert!((p.rho() - 0.1).abs() < 1e-12);
        assert_eq!(p.horizon, 1000.0);
    }

    #[test]
    fn builder_chain() {
        let p = CpuModelParams::paper_defaults()
            .with_lambda(2.0)
            .with_mu(8.0)
            .with_power_down_threshold(0.25)
            .with_power_up_delay(0.3)
            .with_horizon(500.0)
            .with_warmup(50.0)
            .with_replications(4)
            .with_seed(7);
        p.validate().unwrap();
        assert_eq!(p.lambda, 2.0);
        assert_eq!(p.mu, 8.0);
        assert_eq!(p.power_down_threshold, 0.25);
        assert_eq!(p.power_up_delay, 0.3);
        assert_eq!(p.horizon, 500.0);
        assert_eq!(p.warmup, 50.0);
        assert_eq!(p.replications, 4);
        assert_eq!(p.master_seed, 7);
    }

    #[test]
    fn forwarding_plumbs_into_lambda() {
        let p = CpuModelParams::paper_defaults();
        assert_eq!(p.with_forwarding(0.4, 0.0), p.with_lambda(0.4));
        let relay = p.with_forwarding(0.4, 2.1);
        assert!((relay.lambda - 2.5).abs() < 1e-12);
        relay.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_values() {
        let base = CpuModelParams::paper_defaults();
        assert!(base.with_lambda(0.0).validate().is_err());
        assert!(base.with_mu(-1.0).validate().is_err());
        assert!(base.with_lambda(10.0).validate().is_err(), "rho >= 1");
        assert!(base.with_power_down_threshold(-0.1).validate().is_err());
        assert!(base.with_power_up_delay(f64::NAN).validate().is_err());
        assert!(base.with_horizon(0.0).validate().is_err());
        assert!(base.with_warmup(1000.0).validate().is_err());
        assert!(base.with_replications(0).validate().is_err());
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_round_trip() {
        let p = CpuModelParams::paper_defaults();
        let s = serde_json::to_string(&p).unwrap();
        let back: CpuModelParams = serde_json::from_str(&s).unwrap();
        assert_eq!(p, back);
    }
}
