//! Power-Down-Threshold tuning — answering the design question behind the
//! paper's Fig. 5: *which `T` minimizes energy for my workload?*
//!
//! For the PXA271's state powers, energy is monotone increasing in `T`
//! (idle burns 88 mW vs 17 mW standby and power-up costs are tiny at
//! D = 1 ms), so the optimum sits at small `T`. With a large Power-Up Delay
//! or a high arrival rate the trade-off inverts — waking costs more than
//! idling — and the optimizer finds an interior or `T → ∞`-ish optimum.

use wsnem_core::{backend, BackendId, CpuModelParams, EvalOptions};
use wsnem_energy::PowerProfile;

/// The outcome of a threshold search.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdChoice {
    /// The evaluated candidate thresholds.
    pub candidates: Vec<f64>,
    /// Mean power (mW) at each candidate.
    pub mean_power_mw: Vec<f64>,
    /// Index of the best candidate.
    pub best_index: usize,
}

impl ThresholdChoice {
    /// The chosen threshold (s).
    pub fn best_threshold(&self) -> f64 {
        self.candidates[self.best_index]
    }

    /// Mean power at the chosen threshold (mW).
    pub fn best_power_mw(&self) -> f64 {
        self.mean_power_mw[self.best_index]
    }
}

/// Search `candidates` for the threshold minimizing mean power.
///
/// Uses the closed-form Markov model when the Power-Up Delay is small
/// (`λD ≤ 0.05`, where it is essentially exact) and the Petri net otherwise
/// — putting the paper's accuracy finding to work.
pub fn optimize_threshold(
    params: CpuModelParams,
    profile: &PowerProfile,
    candidates: &[f64],
) -> Result<ThresholdChoice, wsnem_core::CoreError> {
    assert!(!candidates.is_empty(), "need at least one candidate");
    let id = if params.lambda * params.power_up_delay <= 0.05 {
        BackendId::Markov
    } else {
        BackendId::PetriNet
    };
    let mut powers = Vec::with_capacity(candidates.len());
    for &t in candidates {
        let p = params.with_power_down_threshold(t);
        let eval = backend::global().solve(id, &p, &EvalOptions::default())?;
        powers.push(eval.mean_power_mw(profile));
    }
    // `candidates` is asserted non-empty above, so a minimum always exists.
    let Some(best_index) = powers
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
    else {
        unreachable!("non-empty candidates produce a minimum")
    };
    Ok(ThresholdChoice {
        candidates: candidates.to_vec(),
        mean_power_mw: powers,
        best_index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_threshold_wins_for_pxa271_light_load() {
        // Fig. 5 regime: energy rises with T, so the smallest candidate wins.
        let params = CpuModelParams::paper_defaults();
        let choice =
            optimize_threshold(params, &PowerProfile::pxa271(), &[0.05, 0.2, 0.5, 1.0]).unwrap();
        assert_eq!(choice.best_threshold(), 0.05);
        assert!(choice.best_power_mw() < choice.mean_power_mw[3]);
        // Power is monotone over the candidates in this regime.
        for w in choice.mean_power_mw.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
    }

    #[test]
    fn expensive_wakeups_favor_staying_awake() {
        // Make power-up painful (D = 2 s at 192 mW) and idle cheap relative
        // to cycling: larger T should beat T ≈ 0.
        let params = CpuModelParams::paper_defaults()
            .with_power_up_delay(2.0)
            .with_replications(8)
            .with_horizon(4000.0)
            .with_warmup(200.0);
        let choice = optimize_threshold(params, &PowerProfile::pxa271(), &[0.0, 5.0]).unwrap();
        assert_eq!(
            choice.best_threshold(),
            5.0,
            "powers: {:?}",
            choice.mean_power_mw
        );
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panics() {
        let _ = optimize_threshold(
            CpuModelParams::paper_defaults(),
            &PowerProfile::pxa271(),
            &[],
        );
    }
}
