//! The common evaluation result of the CPU backends.

use wsnem_energy::{EnergyBreakdown, PowerProfile, StateFractions};

use crate::backend::BackendId;

/// A model's steady-state verdict on the CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelEvaluation {
    /// Which backend produced this.
    pub kind: BackendId,
    /// Steady-state occupancy of the four power states.
    pub fractions: StateFractions,
    /// Mean number of jobs in the system, when the model provides it.
    pub mean_jobs: Option<f64>,
    /// Mean per-job latency (s), when the model provides it.
    pub mean_latency: Option<f64>,
    /// Wall-clock cost of producing this evaluation (s) — the §6 trade-off
    /// (analytic formulas are instant, simulations are not).
    pub eval_seconds: f64,
}

impl ModelEvaluation {
    /// Energy over `time_s` seconds with the given profile (paper Eq. 25).
    pub fn energy(&self, profile: &PowerProfile, time_s: f64) -> EnergyBreakdown {
        wsnem_energy::energy_eq25(&self.fractions, profile, time_s)
    }

    /// Energy total in joules over `time_s` seconds.
    pub fn energy_joules(&self, profile: &PowerProfile, time_s: f64) -> f64 {
        self.energy(profile, time_s).total_joules()
    }

    /// Mean power draw (mW) under the profile.
    pub fn mean_power_mw(&self, profile: &PowerProfile) -> f64 {
        profile.mean_power_mw(&self.fractions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_legends_live_on_paper_label() {
        // Canonical names for Display/serialization, the paper's figure
        // legends via `paper_label`.
        assert_eq!(BackendId::Markov.to_string(), "Markov");
        assert_eq!(BackendId::PetriNet.to_string(), "PetriNet");
        assert_eq!(BackendId::Des.to_string(), "Des");
        assert_eq!(BackendId::PetriNet.paper_label(), "Petri Net");
        assert_eq!(BackendId::Des.paper_label(), "Simulation");
    }

    #[test]
    fn evaluation_energy_helpers() {
        let eval = ModelEvaluation {
            kind: BackendId::Markov,
            fractions: StateFractions::new(1.0, 0.0, 0.0, 0.0),
            mean_jobs: None,
            mean_latency: None,
            eval_seconds: 0.0,
        };
        let p = PowerProfile::pxa271();
        assert!((eval.energy_joules(&p, 1000.0) - 17.0).abs() < 1e-9);
        assert!((eval.mean_power_mw(&p) - 17.0).abs() < 1e-9);
        assert_eq!(eval.energy(&p, 10.0).time_s, 10.0);
    }
}
