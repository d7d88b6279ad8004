//! The paper's Markov model: a birth–death CPU chain with two deterministic
//! delays approximated by Cox's method of supplementary variables.
//!
//! States (paper Fig. 2): `standby (p_s)`, `powerup (p_u)`, `idle (p_i)` and
//! the busy ladder `p_01, p_02, …` (≥1 jobs). The power-down transition
//! (idle → standby after a constant `T`) and the power-up transition
//! (constant `D`) are not memoryless; the paper derives stationary equations
//! with age variables and obtains closed forms — Eqs. (11)–(24) — which this
//! module implements verbatim:
//!
//! ```text
//! denom  = e^{λT} + (1−ρ)(1−e^{−λD}) + ρλD          (17,18,19 share it)
//! p_s    = (1−ρ) / denom                             (17)
//! p_i    = (e^{λT} − 1) p_s                          (12)
//! p_u    = (1−ρ)(1−e^{−λD}) / denom                  (18)
//! G0(1)  = ρ(e^{λT} + λD) / denom                    (19)  [utilization]
//! L(1)   = ρ/(1−ρ) · (e^{λT} + ½(1−ρ)λ²D² + (2−ρ)λD) / denom   (21)
//! τ      = L(1)/λ                                    (22)  [Little's law]
//! T_run  = (N + L(1)²)/λ                             (23)
//! E      = (p_i P_idle + p_s P_stby + p_u P_pup + G0(1) P_act)·T_run  (24)
//! ```
//!
//! The model is exact for `D → 0` and degrades as `λD` grows — exactly the
//! failure mode the paper's Tables 4–5 demonstrate.

use wsnem_energy::{EnergyBreakdown, PowerProfile, StateFractions};

use crate::error::MarkovError;

/// The supplementary-variable CPU model with parameters (λ, μ, T, D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplementaryVariableModel {
    lambda: f64,
    mu: f64,
    t_threshold: f64,
    d_delay: f64,
}

impl SupplementaryVariableModel {
    /// Build and validate: λ, μ > 0; ρ = λ/μ < 1; T, D ≥ 0 finite.
    pub fn new(lambda: f64, mu: f64, t_threshold: f64, d_delay: f64) -> Result<Self, MarkovError> {
        if !(lambda > 0.0) || !lambda.is_finite() {
            return Err(MarkovError::InvalidParameter {
                what: "lambda",
                constraint: "> 0 and finite",
                value: lambda,
            });
        }
        if !(mu > 0.0) || !mu.is_finite() {
            return Err(MarkovError::InvalidParameter {
                what: "mu",
                constraint: "> 0 and finite",
                value: mu,
            });
        }
        let rho = lambda / mu;
        if rho >= 1.0 {
            return Err(MarkovError::Unstable { rho });
        }
        if !(t_threshold >= 0.0) || !t_threshold.is_finite() {
            return Err(MarkovError::InvalidParameter {
                what: "t_threshold",
                constraint: ">= 0 and finite",
                value: t_threshold,
            });
        }
        if !(d_delay >= 0.0) || !d_delay.is_finite() {
            return Err(MarkovError::InvalidParameter {
                what: "d_delay",
                constraint: ">= 0 and finite",
                value: d_delay,
            });
        }
        Ok(Self {
            lambda,
            mu,
            t_threshold,
            d_delay,
        })
    }

    /// Arrival rate λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Service rate μ.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Offered load ρ = λ/μ.
    pub fn rho(&self) -> f64 {
        self.lambda / self.mu
    }

    /// The shared denominator of Eqs. (17)–(19).
    fn denominator(&self) -> f64 {
        let lt = self.lambda * self.t_threshold;
        let ld = self.lambda * self.d_delay;
        lt.exp() + (1.0 - self.rho()) * (1.0 - (-ld).exp()) + self.rho() * ld
    }

    /// Eq. (17): stationary probability of Standby.
    pub fn p_standby(&self) -> f64 {
        (1.0 - self.rho()) / self.denominator()
    }

    /// Eq. (12): stationary probability of Idle.
    pub fn p_idle(&self) -> f64 {
        ((self.lambda * self.t_threshold).exp() - 1.0) * self.p_standby()
    }

    /// Eq. (18): stationary probability of Powering Up.
    pub fn p_powerup(&self) -> f64 {
        let ld = self.lambda * self.d_delay;
        (1.0 - self.rho()) * (1.0 - (-ld).exp()) / self.denominator()
    }

    /// Eq. (19): utilization G0(1) — probability of ≥ 1 job in service.
    pub fn utilization(&self) -> f64 {
        let lt = self.lambda * self.t_threshold;
        let ld = self.lambda * self.d_delay;
        self.rho() * (lt.exp() + ld) / self.denominator()
    }

    /// All four stationary probabilities as [`StateFractions`].
    pub fn fractions(&self) -> StateFractions {
        StateFractions::new(
            self.p_standby(),
            self.p_powerup(),
            self.p_idle(),
            self.utilization(),
        )
    }

    /// Eq. (21): mean number of jobs in the system L(1).
    pub fn mean_jobs(&self) -> f64 {
        let rho = self.rho();
        let lt = self.lambda * self.t_threshold;
        let ld = self.lambda * self.d_delay;
        rho / (1.0 - rho) * (lt.exp() + 0.5 * (1.0 - rho) * ld * ld + (2.0 - rho) * ld)
            / self.denominator()
    }

    /// Eq. (22): mean per-job latency τ = L(1)/λ.
    pub fn mean_latency(&self) -> f64 {
        self.mean_jobs() / self.lambda
    }

    /// Eq. (23): estimated total running time for `n_jobs` jobs.
    pub fn total_time(&self, n_jobs: f64) -> f64 {
        let l = self.mean_jobs();
        (n_jobs + l * l) / self.lambda
    }

    /// Eq. (24): total energy for `n_jobs` jobs under `profile`.
    pub fn energy_eq24(&self, profile: &PowerProfile, n_jobs: f64) -> EnergyBreakdown {
        wsnem_energy::energy_eq24(
            &self.fractions(),
            profile,
            n_jobs,
            self.mean_jobs(),
            self.lambda,
        )
    }

    /// Eq. (25)-style energy over an explicit horizon (what the comparison
    /// experiments use so all three models integrate over the same window).
    pub fn energy_eq25(&self, profile: &PowerProfile, time_s: f64) -> EnergyBreakdown {
        wsnem_energy::energy_eq25(&self.fractions(), profile, time_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_model(t: f64, d: f64) -> SupplementaryVariableModel {
        // λ = 1/s, mean service 0.1 s (μ = 10/s): the paper's Table 2.
        SupplementaryVariableModel::new(1.0, 10.0, t, d).unwrap()
    }

    #[test]
    fn validation() {
        assert!(SupplementaryVariableModel::new(0.0, 1.0, 0.1, 0.1).is_err());
        assert!(SupplementaryVariableModel::new(1.0, 0.0, 0.1, 0.1).is_err());
        assert!(matches!(
            SupplementaryVariableModel::new(2.0, 1.0, 0.1, 0.1),
            Err(MarkovError::Unstable { .. })
        ));
        assert!(SupplementaryVariableModel::new(1.0, 2.0, -0.1, 0.1).is_err());
        assert!(SupplementaryVariableModel::new(1.0, 2.0, 0.1, f64::NAN).is_err());
        assert!(SupplementaryVariableModel::new(1.0, 2.0, 0.1, 0.1).is_ok());
    }

    #[test]
    fn probabilities_normalize() {
        for t in [0.0, 0.1, 0.5, 1.0] {
            for d in [0.0, 0.001, 0.3, 10.0] {
                let m = SupplementaryVariableModel::new(1.0, 10.0, t, d).unwrap();
                let f = m.fractions();
                assert!(f.is_normalized(1e-12), "T={t} D={d}: total {}", f.total());
            }
        }
    }

    #[test]
    fn reduces_to_mm1_when_delays_vanish() {
        // T = D = 0: p_s = 1−ρ (empty-system probability), p_i = p_u = 0,
        // utilization = ρ, L = ρ/(1−ρ).
        let m = SupplementaryVariableModel::new(1.0, 2.0, 0.0, 0.0).unwrap();
        assert!((m.p_standby() - 0.5).abs() < 1e-12);
        assert!(m.p_idle().abs() < 1e-12);
        assert!(m.p_powerup().abs() < 1e-12);
        assert!((m.utilization() - 0.5).abs() < 1e-12);
        assert!((m.mean_jobs() - 1.0).abs() < 1e-12);
        assert!((m.mean_latency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_grows_standby_shrinks_with_threshold() {
        let lo = paper_model(0.1, 0.001);
        let hi = paper_model(0.9, 0.001);
        assert!(hi.p_idle() > lo.p_idle());
        assert!(hi.p_standby() < lo.p_standby());
        // Utilization stays ≈ ρ for tiny D.
        assert!((lo.utilization() - 0.1).abs() < 1e-3);
        assert!((hi.utilization() - 0.1).abs() < 1e-3);
    }

    #[test]
    fn fig4_shape_at_paper_parameters() {
        // λ=1, μ=10, D=0.001: at T=1 the model predicts
        // standby ≈ 33%, idle ≈ 57%, active ≈ 10%.
        let m = paper_model(1.0, 0.001);
        let f = m.fractions();
        assert!((f.standby - 0.331).abs() < 0.005, "standby {}", f.standby);
        assert!((f.idle - 0.569).abs() < 0.005, "idle {}", f.idle);
        assert!((f.active - 0.100).abs() < 0.005, "active {}", f.active);
        assert!(f.powerup < 0.001);
    }

    #[test]
    fn large_powerup_delay_inflates_utilization_estimate() {
        // The documented failure mode: at D = 10 s the supplementary-variable
        // approximation overestimates utilization (~0.33 instead of the true
        // ρ = 0.1) — this is what Table 4 quantifies.
        let m = paper_model(0.5, 10.0);
        assert!(
            m.utilization() > 0.25,
            "expected inflated utilization, got {}",
            m.utilization()
        );
    }

    #[test]
    fn energy_equations() {
        let m = paper_model(0.5, 0.001);
        let p = PowerProfile::pxa271();
        let e25 = m.energy_eq25(&p, 1000.0);
        assert!(e25.total_joules() > 17.0, "above pure-standby floor");
        assert!(e25.total_joules() < 193.0, "below pure-active ceiling");
        let e24 = m.energy_eq24(&p, 1000.0);
        // Eq. 23's horizon (N + L²)/λ ≈ 1000 s for small L.
        assert!((e24.time_s - m.total_time(1000.0)).abs() < 1e-9);
        assert!((e24.total_joules() - e25.total_joules()).abs() < 5.0);
    }

    #[test]
    fn latency_satisfies_littles_law_by_construction() {
        let m = paper_model(0.7, 0.3);
        assert!((m.mean_latency() * m.lambda() - m.mean_jobs()).abs() < 1e-12);
        assert!((m.rho() - 0.1).abs() < 1e-12);
        assert_eq!(m.mu(), 10.0);
    }

    // Hand-rolled property tests (the workspace builds offline, without
    // proptest): a SplitMix64 stream drives uniform draws over the same
    // parameter boxes the old proptest strategies used.

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
        let u = (splitmix(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }

    #[test]
    fn prop_normalized_for_all_parameters() {
        let mut s = 0x5EED_0001u64;
        for _ in 0..100 {
            let lambda = uniform(&mut s, 0.05, 5.0);
            let ratio = uniform(&mut s, 0.05, 0.95); // ρ
            let t = uniform(&mut s, 0.0, 5.0);
            let d = uniform(&mut s, 0.0, 20.0);
            let mu = lambda / ratio;
            let m = SupplementaryVariableModel::new(lambda, mu, t, d).unwrap();
            let f = m.fractions();
            assert!(
                f.is_normalized(1e-9),
                "λ={lambda} ρ={ratio} T={t} D={d}: total = {}",
                f.total()
            );
            assert!(m.mean_jobs() >= 0.0);
            assert!(m.mean_latency() >= 0.0);
        }
    }

    #[test]
    fn prop_monotone_idle_in_threshold() {
        let mut s = 0x5EED_0002u64;
        for _ in 0..100 {
            let t1 = uniform(&mut s, 0.0, 2.0);
            let dt = uniform(&mut s, 0.01, 2.0);
            let a = SupplementaryVariableModel::new(1.0, 10.0, t1, 0.01).unwrap();
            let b = SupplementaryVariableModel::new(1.0, 10.0, t1 + dt, 0.01).unwrap();
            assert!(b.p_idle() >= a.p_idle(), "T={t1} dT={dt}");
            assert!(b.p_standby() <= a.p_standby(), "T={t1} dT={dt}");
        }
    }

    #[test]
    fn prop_energy_nonnegative_and_time_linear() {
        let mut s = 0x5EED_0003u64;
        for _ in 0..100 {
            let t = uniform(&mut s, 0.0, 1.0);
            let d = uniform(&mut s, 0.0, 1.0);
            let horizon = uniform(&mut s, 1.0, 10_000.0);
            let m = SupplementaryVariableModel::new(1.0, 10.0, t, d).unwrap();
            let p = PowerProfile::pxa271();
            let e = m.energy_eq25(&p, horizon);
            assert!(e.total_joules() >= 0.0);
            let e2 = m.energy_eq25(&p, 2.0 * horizon);
            assert!(
                (e2.total_mj - 2.0 * e.total_mj).abs() < 1e-6 * e.total_mj.max(1.0),
                "T={t} D={d} horizon={horizon}"
            );
        }
    }
}
