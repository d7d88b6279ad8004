//! A sensor node: sensing workload → CPU model + radio traffic + battery.
//!
//! [`NodeConfig`] bundles everything one mote needs for an energy verdict —
//! a sensing rate driving the CPU queue, a CPU power profile, a
//! [`RadioModel`] (usually lowered from a [`crate::RadioSpec`]) and a
//! battery — and [`NodeConfig::analyze`] evaluates it with any registered
//! CPU backend into a [`NodeAnalysis`]: per-state CPU occupancy, CPU and
//! radio mean power, and the expected battery lifetime.
//!
//! # Examples
//!
//! ```
//! use wsnem_wsn::{BackendId, NodeConfig, RadioSpec};
//!
//! // One reading every 10 s on the paper's PXA271, CC2420-class radio.
//! let mut node = NodeConfig::monitoring("n0", 10.0);
//! let base = node.analyze(BackendId::Markov).unwrap();
//!
//! // Re-fit the radio with a slower LPL wake-up: less idle listening.
//! node.radio = RadioSpec::Lpl { period_s: 0.5, listen_s: 0.005 }
//!     .lower()
//!     .unwrap();
//! let tuned = node.analyze(BackendId::Markov).unwrap();
//! assert!(tuned.radio_power_mw < base.radio_power_mw);
//! assert!(tuned.lifetime_days > base.lifetime_days);
//! ```

use wsnem_core::{backend, BackendId, BackendRegistry, CpuModelParams, EvalOptions};
use wsnem_energy::{Battery, PowerProfile, StateFractions};

use crate::radio::RadioModel;

/// Node configuration.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeConfig {
    /// Human-readable node name.
    pub name: String,
    /// Sensing events per second; each event is one CPU job and (optionally)
    /// one transmitted packet.
    pub event_rate: f64,
    /// CPU parameters (λ is overridden by `event_rate`).
    pub cpu: CpuModelParams,
    /// CPU power profile.
    pub cpu_profile: PowerProfile,
    /// Radio model.
    pub radio: RadioModel,
    /// Packets transmitted per sensing event.
    pub tx_per_event: f64,
    /// Packets received per second (e.g. forwarded traffic).
    pub rx_rate: f64,
    /// Battery.
    pub battery: Battery,
}

impl NodeConfig {
    /// A periodic environmental-monitoring node (habitat-monitoring style):
    /// one reading per `period_s`, one packet per reading, PXA271 CPU,
    /// CC2420-class radio, two AA cells.
    pub fn monitoring(name: impl Into<String>, period_s: f64) -> Self {
        Self {
            name: name.into(),
            event_rate: 1.0 / period_s,
            cpu: CpuModelParams::paper_defaults(),
            cpu_profile: PowerProfile::pxa271(),
            radio: RadioModel::cc2420_class(),
            tx_per_event: 1.0,
            rx_rate: 0.0,
            battery: Battery::two_aa(),
        }
    }

    /// Effective CPU parameters (event rate wired into λ).
    pub fn cpu_params(&self) -> CpuModelParams {
        self.cpu.with_lambda(self.event_rate)
    }

    /// Packets per second this node originates itself (excluding traffic it
    /// forwards for others).
    pub fn own_tx_rate(&self) -> f64 {
        self.event_rate * self.tx_per_event
    }
}

/// Evaluated node energy budget.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAnalysis {
    /// Node name.
    pub name: String,
    /// CPU steady-state occupancy.
    pub cpu_fractions: StateFractions,
    /// Mean CPU power (mW).
    pub cpu_power_mw: f64,
    /// Mean radio power (mW).
    pub radio_power_mw: f64,
    /// The radio's scheduled duty cycle (listen window over wake-up
    /// period), before traffic airtime — the MAC knob the radio layer
    /// tunes.
    pub radio_duty_cycle: f64,
    /// Total mean power (mW).
    pub total_power_mw: f64,
    /// Expected battery lifetime (days).
    pub lifetime_days: f64,
}

impl NodeConfig {
    /// Evaluate the node with the chosen CPU backend (via the built-in
    /// solver registry with default options).
    pub fn analyze(&self, backend: BackendId) -> Result<NodeAnalysis, wsnem_core::CoreError> {
        self.analyze_with_forwarding(backend, 0.0)
    }

    /// Evaluate the node as a relay carrying `forwarded_rx` extra packets
    /// per second on top of its own sensing work: each forwarded packet is
    /// one additional CPU job, one radio reception *and* one retransmission.
    /// `forwarded_rx = 0` is exactly [`NodeConfig::analyze`].
    pub fn analyze_with_forwarding(
        &self,
        backend: BackendId,
        forwarded_rx: f64,
    ) -> Result<NodeAnalysis, wsnem_core::CoreError> {
        self.analyze_with(
            backend::global(),
            backend,
            &EvalOptions::default(),
            forwarded_rx,
        )
    }

    /// Full-control evaluation: an explicit solver registry (e.g. one with
    /// custom backends registered) and per-evaluation [`EvalOptions`]
    /// (a worker-thread pin, a non-exponential service distribution for the
    /// backends whose capabilities allow it).
    pub fn analyze_with(
        &self,
        registry: &BackendRegistry,
        backend: BackendId,
        opts: &EvalOptions,
        forwarded_rx: f64,
    ) -> Result<NodeAnalysis, wsnem_core::CoreError> {
        let params = self.cpu.with_forwarding(self.event_rate, forwarded_rx);
        let eval = registry.solve(backend, &params, opts)?;
        let cpu_power = self.cpu_profile.mean_power_mw(&eval.fractions);
        let radio_power = self.radio.mean_power_mw(
            self.own_tx_rate() + forwarded_rx,
            self.rx_rate + forwarded_rx,
        );
        let total = cpu_power + radio_power;
        Ok(NodeAnalysis {
            name: self.name.clone(),
            cpu_fractions: eval.fractions,
            cpu_power_mw: cpu_power,
            radio_power_mw: radio_power,
            radio_duty_cycle: self.radio.duty_cycle().min(1.0),
            total_power_mw: total,
            lifetime_days: self.battery.lifetime_days(total),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitoring_node_analyzes() {
        let node = NodeConfig::monitoring("n0", 10.0);
        let a = node.analyze(BackendId::Markov).unwrap();
        assert!(a.cpu_fractions.is_normalized(1e-9));
        assert!(a.cpu_power_mw > 0.0);
        assert!(a.radio_power_mw > 0.0);
        assert!((a.radio_duty_cycle - 0.05).abs() < 1e-12);
        assert!((a.total_power_mw - a.cpu_power_mw - a.radio_power_mw).abs() < 1e-12);
        assert!(a.lifetime_days > 0.0 && a.lifetime_days.is_finite());
        assert_eq!(a.name, "n0");
    }

    #[test]
    fn backends_agree_for_small_delay() {
        let mut node = NodeConfig::monitoring("n", 5.0);
        node.cpu = node
            .cpu
            .with_replications(6)
            .with_horizon(3000.0)
            .with_warmup(100.0);
        let m = node.analyze(BackendId::Markov).unwrap();
        let e = node.analyze(BackendId::Mg1).unwrap();
        let p = node.analyze(BackendId::PetriNet).unwrap();
        let d = node.analyze(BackendId::Des).unwrap();
        assert!(
            m.cpu_fractions.mean_abs_delta_pct(&p.cpu_fractions) < 2.0,
            "markov vs pn"
        );
        assert!(
            m.cpu_fractions.mean_abs_delta_pct(&d.cpu_fractions) < 2.0,
            "markov vs des"
        );
        assert!(
            m.cpu_fractions.mean_abs_delta_pct(&e.cpu_fractions) < 2.0,
            "markov vs mg1"
        );
    }

    #[test]
    fn busier_node_dies_sooner() {
        let lazy = NodeConfig::monitoring("lazy", 60.0)
            .analyze(BackendId::Markov)
            .unwrap();
        let busy = NodeConfig::monitoring("busy", 0.5)
            .analyze(BackendId::Markov)
            .unwrap();
        assert!(lazy.lifetime_days > busy.lifetime_days);
    }

    #[test]
    fn event_rate_overrides_lambda() {
        let node = NodeConfig::monitoring("n", 4.0);
        assert!((node.cpu_params().lambda - 0.25).abs() < 1e-12);
    }

    #[test]
    fn explicit_registry_and_options() {
        use wsnem_core::ServiceDist;
        let mut node = NodeConfig::monitoring("opt", 5.0);
        let registry = wsnem_core::BackendRegistry::builtin();
        // The node's seed and replication budget flow through.
        let mut analyze_seed = |seed| {
            node.cpu = node
                .cpu
                .with_replications(2)
                .with_horizon(300.0)
                .with_seed(seed);
            node.analyze_with(&registry, BackendId::Des, &EvalOptions::default(), 0.0)
                .unwrap()
        };
        let a = analyze_seed(1);
        let b = analyze_seed(2);
        assert_ne!(a.cpu_fractions, b.cpu_fractions, "seed applies");
        // Capability gate: non-exponential service on an analytic backend
        // errors instead of silently computing exponential numbers.
        let err = node
            .analyze_with(
                &registry,
                BackendId::Markov,
                &EvalOptions::default().with_service(ServiceDist::Deterministic),
                0.0,
            )
            .unwrap_err();
        assert!(
            matches!(err, wsnem_core::CoreError::Unsupported { .. }),
            "{err}"
        );
    }
}
