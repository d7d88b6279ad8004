//! EDSPN simulation: configuration, rewards, outputs and the token-game
//! engine. Replications of [`simulate`] run on `wsnem_stats::replicate`.

mod engine;
#[cfg(test)]
mod reference;

pub use engine::{simulate, simulate_observed};

use std::sync::Arc;

use crate::error::PetriError;
use crate::marking::Marking;
use crate::net::PlaceId;

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Simulated horizon (seconds of model time).
    pub horizon: f64,
    /// Warm-up period; statistics reset at this time.
    pub warmup: f64,
    /// Abort threshold for consecutive immediate firings at one instant
    /// (vanishing-loop detection).
    pub max_vanishing_chain: usize,
    /// Abort threshold for consecutive zero-delay *timed* firings at one
    /// instant (Zeno-loop detection).
    pub zeno_guard: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            horizon: 1000.0,
            warmup: 0.0,
            max_vanishing_chain: 1_000_000,
            zeno_guard: 1_000_000,
        }
    }
}

impl SimConfig {
    /// Config with the given horizon and defaults elsewhere.
    pub fn for_horizon(horizon: f64) -> Self {
        Self {
            horizon,
            ..Self::default()
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), PetriError> {
        if !(self.horizon > 0.0) || !self.horizon.is_finite() {
            return Err(PetriError::InvalidConfig {
                what: "horizon",
                constraint: "> 0 and finite",
                value: self.horizon,
            });
        }
        if !(0.0..self.horizon).contains(&self.warmup) {
            return Err(PetriError::InvalidConfig {
                what: "warmup",
                constraint: "0 <= warmup < horizon",
                value: self.warmup,
            });
        }
        if self.max_vanishing_chain == 0 || self.zeno_guard == 0 {
            return Err(PetriError::InvalidConfig {
                what: "loop guards",
                constraint: ">= 1",
                value: 0.0,
            });
        }
        Ok(())
    }
}

/// A reward: an arbitrary function of the marking whose time average the
/// simulator reports. The paper's "steady state percentage of time in state
/// X" measures are indicator rewards over the tangible marking.
///
/// It must depend on the marking alone: the simulator evaluates it once
/// per distinct tangible marking of a replication and reuses the value.
#[derive(Clone)]
pub struct Reward {
    /// Display name.
    pub name: String,
    f: Arc<dyn Fn(&Marking) -> f64 + Send + Sync>,
}

impl std::fmt::Debug for Reward {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reward").field("name", &self.name).finish()
    }
}

impl Reward {
    /// Arbitrary marking function.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Marking) -> f64 + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            f: Arc::new(f),
        }
    }

    /// Token count of one place (its time average = mean tokens — the
    /// statistic the paper reads off TimeNET).
    pub fn tokens(name: impl Into<String>, place: PlaceId) -> Self {
        Self::new(name, move |m: &Marking| m.tokens(place) as f64)
    }

    /// Indicator (0/1) reward — time average is the probability of the
    /// predicate holding.
    pub fn indicator(
        name: impl Into<String>,
        pred: impl Fn(&Marking) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self::new(name, move |m: &Marking| if pred(m) { 1.0 } else { 0.0 })
    }

    /// Evaluate on a marking.
    #[inline]
    pub fn eval(&self, m: &Marking) -> f64 {
        (self.f)(m)
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutput {
    /// Observation-window length (horizon − warmup).
    pub time_observed: f64,
    /// Time-averaged token count per place (canonical place order).
    pub place_means: Vec<f64>,
    /// Time-averaged reward values (same order as the reward slice).
    pub reward_means: Vec<f64>,
    /// Post-warmup firing count per transition.
    pub firings: Vec<u64>,
    /// Marking at the horizon.
    pub final_marking: Marking,
}

impl SimOutput {
    /// Firing throughput (firings per unit time) of a transition index.
    pub fn throughput(&self, transition_index: usize) -> f64 {
        if self.time_observed > 0.0 {
            self.firings[transition_index] as f64 / self.time_observed
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(SimConfig::default().validate().is_ok());
        assert!(SimConfig::for_horizon(10.0).validate().is_ok());
        assert!(SimConfig {
            horizon: 0.0,
            ..SimConfig::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            horizon: f64::INFINITY,
            ..SimConfig::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            warmup: 1000.0,
            ..SimConfig::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            max_vanishing_chain: 0,
            ..SimConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn reward_kinds() {
        let m = Marking::new(vec![2, 0]);
        let r = Reward::tokens("p0", PlaceId(0));
        assert_eq!(r.eval(&m), 2.0);
        let r = Reward::indicator("empty p1", |m: &Marking| m.tokens(PlaceId(1)) == 0);
        assert_eq!(r.eval(&m), 1.0);
        let r = Reward::new("sum", |m: &Marking| m.total_tokens() as f64);
        assert_eq!(r.eval(&m), 2.0);
        assert!(format!("{r:?}").contains("sum"));
        assert_eq!(r.clone().name, "sum");
    }
}
