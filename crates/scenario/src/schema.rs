//! The versioned, serde-backed scenario schema.
//!
//! A [`Scenario`] is a declarative description of one energy-modeling
//! experiment: CPU parameters, a power profile, a battery, an arrival
//! workload, the set of model backends to evaluate, optional sweep axes and
//! an optional star network — everything the paper's hard-coded experiment
//! functions took as Rust arguments, now loadable from JSON or TOML files.
//!
//! The schema is versioned ([`SCHEMA_VERSION`]); loaders reject files from a
//! newer schema instead of misinterpreting them, while files back to
//! [`MIN_SCHEMA_VERSION`] keep loading (v2 added the optional
//! `network.topology` section; a v1 file is a valid v2 file without it).

use serde::{Deserialize, Serialize};
use wsnem_core::{backend, BackendId, CpuModelParams, ServiceDist};
use wsnem_energy::{Battery, PowerProfile};
use wsnem_stats::dist::Dist;
use wsnem_wsn::RadioSpec;

use crate::error::ScenarioError;

/// Current scenario schema version. Bump on breaking format changes and
/// keep the golden-file test (`tests/golden_schema.rs`) in sync.
///
/// Version history:
/// * **1** — the original schema: cpu/profile/battery/workload/backends/
///   report/sweep plus an optional star `network`.
/// * **2** — `network` gains an optional `topology` section (star / chain /
///   tree / mesh with static routes) with forwarding-load propagation.
/// * **3** — optional `service` section: a [`ServiceDist`] unpinning the
///   historical "exponential service at `cpu.mu`" assumption for the
///   backends whose capabilities allow it (PetriNet, Des); backend names
///   are now validated against the solver registry with did-you-mean
///   errors.
/// * **4** — optional `network.radio` section plus per-node `radio`
///   overrides: a serializable duty-cycle MAC description
///   ([`wsnem_wsn::RadioSpec`] — presets / LPL / B-MAC / X-MAC / custom)
///   replacing the fixed CC2420-class radio every node used before.
///   Omitting both keeps the historical `cc2420-class` preset, so v1–v3
///   files load and analyze identically.
/// * **5** — optional `network.template` section ([`TemplateSpec`]): a
///   compact homogeneous node description (count + shared rates) replacing
///   the explicit node list for large networks. Template networks run on
///   the structure-of-arrays fast path ([`wsnem_wsn::SoaNetwork`]) and
///   report aggregates instead of per-node rows; a million-node collection
///   tree is a five-line file instead of a million node entries.
pub const SCHEMA_VERSION: u32 = 5;

/// Oldest schema version this build still loads. v1 files parse unchanged
/// (the v2 additions are optional) and produce identical results.
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// Largest `network.template.count`: the structure-of-arrays core indexes
/// nodes with `u32` and reserves `u32::MAX` as its [`wsnem_wsn::SINK`]
/// sentinel, so no node index may reach it.
pub const MAX_TEMPLATE_COUNT: u64 = wsnem_wsn::SINK as u64 - 1;

/// A declarative scenario definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Schema version this file was written against (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Unique scenario name (kebab-case by convention).
    pub name: String,
    /// One-paragraph human description.
    pub description: String,
    /// Shared CPU model parameters (λ, μ, T, D, horizon, replications, seed).
    pub cpu: CpuModelParams,
    /// CPU power profile.
    pub profile: ProfileSpec,
    /// Battery powering the node.
    pub battery: BatterySpec,
    /// Arrival workload. `None` means the paper's default: open Poisson
    /// arrivals at rate `cpu.lambda` (the only workload the analytic
    /// backends model; richer workloads drive the DES backend and the
    /// cross-backend agreement report quantifies the distortion).
    pub workload: Option<WorkloadSpec>,
    /// Service-time distribution (schema v3). `None` keeps the paper's
    /// exponential service at rate `cpu.mu`. A non-exponential choice
    /// restricts `backends` to those whose capabilities advertise
    /// `supports_service_dist` — requesting it from an analytic backend is
    /// a validation error, never a silent exponential fallback.
    pub service: Option<ServiceDist>,
    /// Model backends to evaluate, in order.
    pub backends: Vec<BackendId>,
    /// Report settings (energy horizon, agreement tolerance).
    pub report: ReportSpec,
    /// Optional one-axis parameter sweep.
    pub sweep: Option<SweepSpec>,
    /// Optional star network of nodes sharing this scenario's CPU/profile/
    /// battery but with per-node sensing rates and radio traffic.
    pub network: Option<NetworkSpec>,
}

/// Deprecated alias of [`BackendId`], kept so pre-registry code compiles
/// unchanged and schema v1/v2 files keep loading byte-identically (the
/// serialized names are the same). The old `Backend::assumes_poisson`
/// metadata now lives in each solver's [`wsnem_core::Capabilities`].
pub type Backend = BackendId;

/// Power profile selection: a named preset or custom per-state rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProfileSpec {
    /// Intel PXA271 — the paper's Table 3.
    Pxa271,
    /// TI MSP430-class synthetic composite.
    Msp430Class,
    /// ATmega128L-class synthetic composite.
    Atmega128lClass,
    /// Custom per-state power rates (mW).
    Custom {
        /// Profile name.
        name: String,
        /// Standby power (mW).
        standby_mw: f64,
        /// Power-up power (mW).
        powerup_mw: f64,
        /// Idle power (mW).
        idle_mw: f64,
        /// Active power (mW).
        active_mw: f64,
    },
}

impl ProfileSpec {
    /// Materialize the [`PowerProfile`].
    pub fn build(&self) -> Result<PowerProfile, ScenarioError> {
        match self {
            ProfileSpec::Pxa271 => Ok(PowerProfile::pxa271()),
            ProfileSpec::Msp430Class => Ok(PowerProfile::msp430_class()),
            ProfileSpec::Atmega128lClass => Ok(PowerProfile::atmega128l_class()),
            ProfileSpec::Custom {
                name,
                standby_mw,
                powerup_mw,
                idle_mw,
                active_mw,
            } => PowerProfile::new(name.clone(), *standby_mw, *powerup_mw, *idle_mw, *active_mw)
                .map_err(|e| ScenarioError::Invalid(format!("profile: {e}"))),
        }
    }
}

/// Battery selection: a named preset or custom capacity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BatterySpec {
    /// Two AA alkaline cells in series.
    TwoAa,
    /// CR2032 coin cell.
    Cr2032,
    /// Custom battery.
    Custom {
        /// Rated capacity (mAh).
        capacity_mah: f64,
        /// Nominal voltage (V).
        voltage_v: f64,
        /// Usable fraction of rated capacity in `(0, 1]`.
        usable_fraction: f64,
    },
}

impl BatterySpec {
    /// Materialize the [`Battery`].
    pub fn build(&self) -> Result<Battery, ScenarioError> {
        match *self {
            BatterySpec::TwoAa => Ok(Battery::two_aa()),
            BatterySpec::Cr2032 => Ok(Battery::cr2032()),
            BatterySpec::Custom {
                capacity_mah,
                voltage_v,
                usable_fraction,
            } => {
                if !(capacity_mah > 0.0) || !(voltage_v > 0.0) {
                    return Err(ScenarioError::Invalid(
                        "battery: capacity and voltage must be > 0".into(),
                    ));
                }
                if !(usable_fraction > 0.0 && usable_fraction <= 1.0) {
                    return Err(ScenarioError::Invalid(
                        "battery: usable_fraction must be in (0, 1]".into(),
                    ));
                }
                Ok(Battery {
                    capacity_mah,
                    voltage_v,
                    usable_fraction,
                })
            }
        }
    }
}

/// Arrival workload specification (mirrors `wsnem_des::OpenWorkload` /
/// `ClosedWorkload`, in serializable form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// Open Poisson arrivals at `cpu.lambda` — the paper's generator.
    Poisson,
    /// Renewal process with i.i.d. interarrival gaps.
    Renewal {
        /// Interarrival-gap distribution.
        interarrival: Dist,
    },
    /// On-off bursts: silent `off` periods, Poisson arrivals at `rate_on`
    /// during `on` periods (surveillance target transits).
    BurstyOnOff {
        /// On-period duration distribution.
        on: Dist,
        /// Off-period duration distribution.
        off: Dist,
        /// Poisson arrival rate while on.
        rate_on: f64,
    },
    /// 2-state Markov-modulated Poisson process (day/night modulation).
    Mmpp2 {
        /// Arrival rate in modulating state 0.
        rate0: f64,
        /// Arrival rate in modulating state 1.
        rate1: f64,
        /// Switching rate 0 → 1.
        switch01: f64,
        /// Switching rate 1 → 0.
        switch10: f64,
    },
    /// Replay a fixed cycle of interarrival gaps.
    Trace {
        /// Interarrival gaps (s), replayed cyclically.
        gaps: Vec<f64>,
    },
    /// Closed finite-population workload.
    Closed {
        /// Circulating customers.
        population: u32,
        /// Think-time distribution.
        think: Dist,
    },
}

impl WorkloadSpec {
    /// Build the DES workload for a scenario with arrival rate `lambda`.
    pub fn build(&self, lambda: f64) -> wsnem_des::Workload {
        use wsnem_des::{ClosedWorkload, OpenWorkload, Workload};
        match self {
            WorkloadSpec::Poisson => Workload::open_poisson(lambda),
            WorkloadSpec::Renewal { interarrival } => {
                Workload::Open(OpenWorkload::Renewal(*interarrival))
            }
            WorkloadSpec::BurstyOnOff { on, off, rate_on } => {
                Workload::Open(OpenWorkload::BurstyOnOff {
                    on: *on,
                    off: *off,
                    rate_on: *rate_on,
                })
            }
            WorkloadSpec::Mmpp2 {
                rate0,
                rate1,
                switch01,
                switch10,
            } => Workload::Open(OpenWorkload::Mmpp2 {
                rate0: *rate0,
                rate1: *rate1,
                switch01: *switch01,
                switch10: *switch10,
            }),
            WorkloadSpec::Trace { gaps } => Workload::Open(OpenWorkload::Trace(gaps.clone())),
            WorkloadSpec::Closed { population, think } => Workload::Closed(ClosedWorkload {
                population: *population,
                think: *think,
            }),
        }
    }

    /// True when this workload is (equivalent to) the analytic backends'
    /// Poisson assumption.
    pub fn is_poisson(&self) -> bool {
        matches!(self, WorkloadSpec::Poisson)
    }
}

/// Report settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportSpec {
    /// Horizon (s) the energy breakdown integrates over (paper: 1000 s).
    pub energy_horizon_s: f64,
    /// Cross-backend agreement tolerance in percentage points of mean
    /// absolute state-occupancy delta (`None` = report deltas without a
    /// pass/fail verdict).
    pub agreement_tolerance_pp: Option<f64>,
}

impl Default for ReportSpec {
    fn default() -> Self {
        Self {
            energy_horizon_s: 1000.0,
            agreement_tolerance_pp: Some(2.0),
        }
    }
}

/// The swept parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Power Down Threshold `T` (s) — the paper's Fig. 4/5 axis.
    PowerDownThreshold,
    /// Power Up Delay `D` (s) — the Table 4/5 axis.
    PowerUpDelay,
    /// Arrival rate λ (jobs/s).
    Lambda,
}

impl SweepAxis {
    /// Axis label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SweepAxis::PowerDownThreshold => "power_down_threshold",
            SweepAxis::PowerUpDelay => "power_up_delay",
            SweepAxis::Lambda => "lambda",
        }
    }

    /// Apply a swept value to the base parameters.
    pub fn apply(self, params: CpuModelParams, value: f64) -> CpuModelParams {
        match self {
            SweepAxis::PowerDownThreshold => params.with_power_down_threshold(value),
            SweepAxis::PowerUpDelay => params.with_power_up_delay(value),
            SweepAxis::Lambda => params.with_lambda(value),
        }
    }
}

/// A one-axis sweep: evaluate the scenario's backends at each value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// The swept parameter.
    pub axis: SweepAxis,
    /// Values to evaluate (must be non-empty).
    pub values: Vec<f64>,
}

/// A network whose nodes share the scenario CPU/profile/battery but differ
/// in sensing rate and radio traffic. Without a [`TopologySpec`] this is the
/// v1 star (every node transmits straight to the sink and `rx_rate` is
/// exogenous); with one, forwarding load propagates sink-ward and feeds each
/// relay's CPU arrival rate and radio traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// The sensor nodes. Must be empty when [`NetworkSpec::template`]
    /// describes the nodes instead.
    pub nodes: Vec<NodeSpec>,
    /// Multi-hop routing (schema v2). `None` keeps the v1 star semantics.
    pub topology: Option<TopologySpec>,
    /// Network-wide duty-cycle MAC (schema v4). `None` keeps the
    /// historical `cc2420-class` preset; individual nodes may override it
    /// via [`NodeSpec::radio`].
    pub radio: Option<RadioSpec>,
    /// Compact homogeneous node template (schema v5), mutually exclusive
    /// with `nodes`. `None` keeps the explicit node-list representation.
    pub template: Option<TemplateSpec>,
}

/// A homogeneous node population in one stanza (schema v5): `count` nodes
/// named `{prefix}1` … `{prefix}{count}`, all sharing the same sensing and
/// traffic rates. The topology helpers (star / chain / tree) lay them out
/// positionally, exactly as they would an explicit node list of the same
/// length, and analysis runs on the structure-of-arrays fast path —
/// `count = 1_000_000` is a normal scenario file, not a gigabyte of JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemplateSpec {
    /// Number of nodes, 1 to [`MAX_TEMPLATE_COUNT`].
    pub count: u64,
    /// Node-name prefix; node `i` (1-based) is `{prefix}{i}`.
    pub prefix: String,
    /// Sensing events per second per node (wired into the CPU's λ).
    pub event_rate: f64,
    /// Packets transmitted per sensing event.
    pub tx_per_event: f64,
    /// Exogenous packets received per second.
    pub rx_rate: f64,
}

/// How nodes route toward the sink (schema v2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Every node transmits directly to the sink. Unlike the `None`
    /// topology, this runs through the routed analysis (forwarding loads
    /// are all zero, so the numbers match the v1 star exactly).
    Star,
    /// A linear chain in node-list order: the first node is sink-adjacent
    /// and relays everything behind it.
    Chain,
    /// A complete tree in breadth-first node-list order: the first node is
    /// the sink-adjacent root; node `i` forwards to node `(i - 1) / fanout`.
    Tree {
        /// Children per parent (≥ 1).
        fanout: usize,
    },
    /// An explicit static route set (the mesh case): every node names its
    /// next hop once; `to = "sink"` exits the network.
    Mesh {
        /// One route per node.
        routes: Vec<RouteSpec>,
    },
}

/// One static route of a [`TopologySpec::Mesh`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteSpec {
    /// Name of the forwarding node.
    pub from: String,
    /// Name of the next hop: another node, or the literal `"sink"`.
    pub to: String,
}

impl TopologySpec {
    /// Resolve this topology into per-node next hops over `nodes`. Fails on
    /// unknown/duplicate/missing route endpoints; cycle detection happens in
    /// `wsnem_wsn::Network::validate`.
    pub fn build_next_hops(
        &self,
        nodes: &[NodeSpec],
    ) -> Result<Vec<wsnem_wsn::NextHop>, ScenarioError> {
        use wsnem_wsn::NextHop;
        let n = nodes.len();
        match self {
            TopologySpec::Star => Ok(wsnem_wsn::topology::star_next_hops(n)),
            TopologySpec::Chain => Ok(wsnem_wsn::topology::chain_next_hops(n)),
            TopologySpec::Tree { fanout } => {
                if *fanout == 0 {
                    return Err(ScenarioError::Invalid(
                        "topology: tree fanout must be >= 1".into(),
                    ));
                }
                Ok(wsnem_wsn::topology::tree_next_hops(n, *fanout))
            }
            TopologySpec::Mesh { routes } => {
                let index_of = |name: &str| nodes.iter().position(|node| node.name == name);
                let mut next: Vec<Option<NextHop>> = vec![None; n];
                for r in routes {
                    let from = index_of(&r.from).ok_or_else(|| {
                        ScenarioError::Invalid(format!(
                            "topology: route from unknown node `{}`",
                            r.from
                        ))
                    })?;
                    if next[from].is_some() {
                        return Err(ScenarioError::Invalid(format!(
                            "topology: node `{}` has more than one route",
                            r.from
                        )));
                    }
                    let hop = if r.to == "sink" {
                        NextHop::Sink
                    } else {
                        NextHop::Node(index_of(&r.to).ok_or_else(|| {
                            ScenarioError::Invalid(format!(
                                "topology: route from `{}` to unknown node `{}`",
                                r.from, r.to
                            ))
                        })?)
                    };
                    next[from] = Some(hop);
                }
                next.iter()
                    .enumerate()
                    .map(|(i, hop)| {
                        hop.ok_or_else(|| {
                            ScenarioError::Invalid(format!(
                                "topology: node `{}` has no route (orphan)",
                                nodes[i].name
                            ))
                        })
                    })
                    .collect()
            }
        }
    }

    /// Short display label for listings and reports.
    pub fn label(&self) -> &'static str {
        match self {
            TopologySpec::Star => "star",
            TopologySpec::Chain => "chain",
            TopologySpec::Tree { .. } => "tree",
            TopologySpec::Mesh { .. } => "mesh",
        }
    }
}

/// One node of a [`NetworkSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Node name.
    pub name: String,
    /// Sensing events per second (wired into the CPU's λ).
    pub event_rate: f64,
    /// Packets transmitted per sensing event.
    pub tx_per_event: f64,
    /// Packets received per second (forwarded traffic).
    pub rx_rate: f64,
    /// Per-node duty-cycle MAC override (schema v4). `None` inherits the
    /// network-level [`NetworkSpec::radio`] (or the `cc2420-class` preset
    /// when that is also absent). Relays often override: an always-on or
    /// short-check-interval radio on the sink-ward path trades the relay's
    /// battery for everyone else's preamble cost.
    pub radio: Option<RadioSpec>,
}

impl NetworkSpec {
    /// The duty-cycle MAC node `i` runs: its own override when present,
    /// else the network-level default, else the `cc2420-class` preset
    /// (exactly the radio every node ran before schema v4).
    pub fn radio_spec_for(&self, node: usize) -> RadioSpec {
        self.nodes
            .get(node)
            .and_then(|n| n.radio.clone())
            .or_else(|| self.radio.clone())
            .unwrap_or_default()
    }

    /// Materialize the routed `wsnem_wsn::Network` this spec describes
    /// (shared by validation, the runner and the CLI `topology` / `radio`
    /// commands). A missing topology builds as a star; missing radio
    /// sections lower to the `cc2420-class` preset.
    pub fn build_network(
        &self,
        cpu: CpuModelParams,
        profile: &PowerProfile,
        battery: &Battery,
    ) -> Result<wsnem_wsn::Network, ScenarioError> {
        let nodes: Vec<wsnem_wsn::NodeConfig> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let radio = self.radio_spec_for(i).lower().map_err(|e| {
                    ScenarioError::Invalid(format!("node `{}`: radio: {e}", n.name))
                })?;
                Ok(wsnem_wsn::NodeConfig {
                    name: n.name.clone(),
                    event_rate: n.event_rate,
                    cpu,
                    cpu_profile: profile.clone(),
                    radio,
                    tx_per_event: n.tx_per_event,
                    rx_rate: n.rx_rate,
                    battery: *battery,
                })
            })
            .collect::<Result<_, ScenarioError>>()?;
        let next_hop = match &self.topology {
            None => vec![wsnem_wsn::NextHop::Sink; nodes.len()],
            Some(t) => t.build_next_hops(&self.nodes)?,
        };
        Ok(wsnem_wsn::Network { nodes, next_hop })
    }

    /// Number of nodes this spec describes, without materializing them.
    pub fn node_count(&self) -> usize {
        match &self.template {
            Some(t) => t.count as usize,
            None => self.nodes.len(),
        }
    }

    /// Materialize the structure-of-arrays network this spec describes —
    /// the large-net counterpart of [`NetworkSpec::build_network`].
    ///
    /// A template spec lowers directly to flat arrays with generated names
    /// (no per-node structs at any point); an explicit node list builds the
    /// per-node network first and converts it, which fails for
    /// heterogeneous CPU/profile/battery configurations (those stay on the
    /// per-node path).
    pub fn build_soa(
        &self,
        cpu: CpuModelParams,
        profile: &PowerProfile,
        battery: &Battery,
    ) -> Result<wsnem_wsn::SoaNetwork, ScenarioError> {
        match &self.template {
            Some(t) => {
                let n = t.count as usize;
                let parent = match &self.topology {
                    None | Some(TopologySpec::Star) => wsnem_wsn::star_parents(n),
                    Some(TopologySpec::Chain) => wsnem_wsn::chain_parents(n),
                    Some(TopologySpec::Tree { fanout }) => {
                        if *fanout == 0 {
                            return Err(ScenarioError::Invalid(
                                "topology: tree fanout must be >= 1".into(),
                            ));
                        }
                        wsnem_wsn::tree_parents(n, *fanout)
                    }
                    Some(TopologySpec::Mesh { .. }) => {
                        return Err(ScenarioError::Invalid(
                            "network.template cannot be combined with a mesh topology \
                             (its static routes name specific nodes)"
                                .into(),
                        ))
                    }
                };
                let radio = self
                    .radio
                    .clone()
                    .unwrap_or_default()
                    .lower()
                    .map_err(|e| ScenarioError::Invalid(format!("network.radio: {e}")))?;
                Ok(wsnem_wsn::SoaNetwork::homogeneous(
                    parent,
                    t.prefix.clone(),
                    t.event_rate,
                    t.tx_per_event,
                    t.rx_rate,
                    cpu,
                    profile.clone(),
                    radio,
                    *battery,
                ))
            }
            None => {
                let net = self.build_network(cpu, profile, battery)?;
                wsnem_wsn::SoaNetwork::from_network(&net).map_err(ScenarioError::Invalid)
            }
        }
    }
}

impl Scenario {
    /// Validate the complete scenario (schema version, parameters, specs)
    /// against the built-in solver registry.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.validate_with(backend::global())
    }

    /// Validate against an explicit registry — the one that will actually
    /// solve, so custom solvers' capabilities are honored.
    pub fn validate_with(
        &self,
        registry: &wsnem_core::BackendRegistry,
    ) -> Result<(), ScenarioError> {
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&self.schema_version) {
            return Err(ScenarioError::UnsupportedVersion {
                found: self.schema_version,
                supported: SCHEMA_VERSION,
            });
        }
        if self.name.is_empty() {
            return Err(ScenarioError::Invalid(
                "scenario name must be non-empty".into(),
            ));
        }
        if self.backends.is_empty() {
            return Err(ScenarioError::Invalid(format!(
                "scenario `{}`: at least one backend required",
                self.name
            )));
        }
        for &b in &self.backends {
            if registry.get(b).is_none() {
                return Err(ScenarioError::Invalid(format!(
                    "scenario `{}`: backend `{b}` is not registered",
                    self.name
                )));
            }
        }
        self.cpu
            .validate()
            .map_err(|e| ScenarioError::Invalid(format!("scenario `{}`: cpu: {e}", self.name)))?;
        if let Some(service) = &self.service {
            if self.schema_version < 3 {
                return Err(ScenarioError::Invalid(format!(
                    "scenario `{}`: service requires schema_version >= 3 (found {})",
                    self.name, self.schema_version
                )));
            }
            service.validate(self.cpu.mu).map_err(|e| {
                ScenarioError::Invalid(format!("scenario `{}`: service: {e}", self.name))
            })?;
            if !service.is_exponential() {
                // Capability gate, driven by the registry: analytic backends
                // cannot model a general service law — fail loudly here
                // instead of letting them compute exponential numbers.
                for &b in &self.backends {
                    // Registration was verified earlier in this method.
                    let Some(caps) = registry.capabilities_of(b) else {
                        unreachable!("backend registration checked above")
                    };
                    if !caps.supports_service_dist {
                        return Err(ScenarioError::Invalid(format!(
                            "scenario `{}`: backend `{b}` does not support the \
                             non-exponential service distribution ({}); request only \
                             backends whose capabilities include supports_service_dist \
                             (e.g. Mg1, PetriNet, Des)",
                            self.name,
                            service.label()
                        )));
                    }
                }
            }
        }
        self.profile.build()?;
        self.battery.build()?;
        if let Some(w) = &self.workload {
            w.build(self.cpu.lambda).validate().map_err(|e| {
                ScenarioError::Invalid(format!("scenario `{}`: workload: {e}", self.name))
            })?;
        }
        if !(self.report.energy_horizon_s > 0.0) {
            return Err(ScenarioError::Invalid(format!(
                "scenario `{}`: report.energy_horizon_s must be > 0",
                self.name
            )));
        }
        if let Some(sweep) = &self.sweep {
            if sweep.axis == SweepAxis::Lambda
                && self.workload.as_ref().is_some_and(|w| !w.is_poisson())
            {
                return Err(ScenarioError::Invalid(format!(
                    "scenario `{}`: a Lambda sweep requires the Poisson workload \
                     (non-Poisson workloads do not take their rate from cpu.lambda, \
                     so the DES backend would not actually be swept)",
                    self.name
                )));
            }
            if sweep.values.is_empty() {
                return Err(ScenarioError::Invalid(format!(
                    "scenario `{}`: sweep.values must be non-empty",
                    self.name
                )));
            }
            for &v in &sweep.values {
                sweep.axis.apply(self.cpu, v).validate().map_err(|e| {
                    ScenarioError::Invalid(format!(
                        "scenario `{}`: sweep value {v}: {e}",
                        self.name
                    ))
                })?;
            }
        }
        if let Some(net) = &self.network {
            if let Some(t) = &net.template {
                self.validate_template(net, t)?;
            } else if net.nodes.is_empty() {
                return Err(ScenarioError::Invalid(format!(
                    "scenario `{}`: network.nodes must be non-empty",
                    self.name
                )));
            }
            for n in &net.nodes {
                if !(n.event_rate > 0.0) || !(n.tx_per_event >= 0.0) || !(n.rx_rate >= 0.0) {
                    return Err(ScenarioError::Invalid(format!(
                        "scenario `{}`: node `{}`: rates must be positive/non-negative",
                        self.name, n.name
                    )));
                }
                self.cpu.with_lambda(n.event_rate).validate().map_err(|e| {
                    ScenarioError::Invalid(format!(
                        "scenario `{}`: node `{}`: {e}",
                        self.name, n.name
                    ))
                })?;
            }
            if net.radio.is_some() || net.nodes.iter().any(|n| n.radio.is_some()) {
                if self.schema_version < 4 {
                    return Err(ScenarioError::Invalid(format!(
                        "scenario `{}`: network.radio / per-node radio overrides require \
                         schema_version >= 4 (found {})",
                        self.name, self.schema_version
                    )));
                }
                if let Some(radio) = &net.radio {
                    radio.validate().map_err(|e| {
                        ScenarioError::Invalid(format!(
                            "scenario `{}`: network.radio: {e}",
                            self.name
                        ))
                    })?;
                }
                for n in &net.nodes {
                    if let Some(radio) = &n.radio {
                        radio.validate().map_err(|e| {
                            ScenarioError::Invalid(format!(
                                "scenario `{}`: node `{}`: radio: {e}",
                                self.name, n.name
                            ))
                        })?;
                    }
                }
            }
            if net.topology.is_some() && net.template.is_none() {
                if self.schema_version < 2 {
                    return Err(ScenarioError::Invalid(format!(
                        "scenario `{}`: network.topology requires schema_version >= 2 \
                         (found {})",
                        self.name, self.schema_version
                    )));
                }
                let mut seen = std::collections::BTreeSet::new();
                for n in &net.nodes {
                    if n.name == "sink" {
                        return Err(ScenarioError::Invalid(format!(
                            "scenario `{}`: `sink` is a reserved node name in routed \
                             topologies",
                            self.name
                        )));
                    }
                    if !seen.insert(n.name.as_str()) {
                        return Err(ScenarioError::Invalid(format!(
                            "scenario `{}`: duplicate node name `{}` in a routed topology",
                            self.name, n.name
                        )));
                    }
                }
                let profile = self.profile.build()?;
                let battery = self.battery.build()?;
                let network = net.build_network(self.cpu, &profile, &battery)?;
                network.validate().map_err(|e| {
                    ScenarioError::Invalid(format!("scenario `{}`: {e}", self.name))
                })?;
                // Forwarding load raises relay arrival rates: check every
                // node's *effective* λ still describes a stable queue.
                let forwarded = network.forwarded_rates().map_err(|e| {
                    ScenarioError::Invalid(format!("scenario `{}`: {e}", self.name))
                })?;
                for (n, &fwd) in net.nodes.iter().zip(&forwarded) {
                    self.cpu
                        .with_forwarding(n.event_rate, fwd)
                        .validate()
                        .map_err(|e| {
                            ScenarioError::Invalid(format!(
                                "scenario `{}`: node `{}` (forwarding {fwd:.3} pkt/s \
                                 for its subtree): {e}",
                                self.name, n.name
                            ))
                        })?;
                }
            }
        }
        Ok(())
    }

    /// Validate a template network without materializing any nodes — the
    /// whole point of the template representation is that `count` may be
    /// 10^6, so every check here is closed-form.
    ///
    /// The stability check exploits the topology structure: in a star
    /// nothing forwards; in a chain or complete tree *all* upstream
    /// traffic funnels through the sink-adjacent root, whose forwarded
    /// load is therefore exactly `(count − 1) · event_rate · tx_per_event`
    /// — the worst effective λ in the network.
    fn validate_template(&self, net: &NetworkSpec, t: &TemplateSpec) -> Result<(), ScenarioError> {
        if self.schema_version < 5 {
            return Err(ScenarioError::Invalid(format!(
                "scenario `{}`: network.template requires schema_version >= 5 (found {})",
                self.name, self.schema_version
            )));
        }
        if !net.nodes.is_empty() {
            return Err(ScenarioError::Invalid(format!(
                "scenario `{}`: network.template and network.nodes are mutually \
                 exclusive (the template *is* the node list)",
                self.name
            )));
        }
        if matches!(net.topology, Some(TopologySpec::Mesh { .. })) {
            return Err(ScenarioError::Invalid(format!(
                "scenario `{}`: network.template cannot be combined with a mesh \
                 topology (its static routes name specific nodes)",
                self.name
            )));
        }
        if let Some(TopologySpec::Tree { fanout: 0 }) = net.topology {
            return Err(ScenarioError::Invalid(format!(
                "scenario `{}`: topology: tree fanout must be >= 1",
                self.name
            )));
        }
        if t.count == 0 || t.count > MAX_TEMPLATE_COUNT {
            return Err(ScenarioError::Invalid(format!(
                "scenario `{}`: network.template.count must be in 1..={MAX_TEMPLATE_COUNT} \
                 (found {})",
                self.name, t.count
            )));
        }
        if t.prefix.is_empty() {
            return Err(ScenarioError::Invalid(format!(
                "scenario `{}`: network.template.prefix must be non-empty",
                self.name
            )));
        }
        if !(t.event_rate > 0.0
            && t.event_rate.is_finite()
            && t.tx_per_event >= 0.0
            && t.tx_per_event.is_finite()
            && t.rx_rate >= 0.0
            && t.rx_rate.is_finite())
        {
            return Err(ScenarioError::Invalid(format!(
                "scenario `{}`: template: rates must be positive/non-negative",
                self.name
            )));
        }
        self.cpu.with_lambda(t.event_rate).validate().map_err(|e| {
            ScenarioError::Invalid(format!("scenario `{}`: template: {e}", self.name))
        })?;
        let root_forwarded = match net.topology {
            None | Some(TopologySpec::Star) => 0.0,
            // Chain and complete tree: everything upstream passes the root.
            _ => (t.count - 1) as f64 * t.event_rate * t.tx_per_event,
        };
        self.cpu
            .with_forwarding(t.event_rate, root_forwarded)
            .validate()
            .map_err(|e| {
                ScenarioError::Invalid(format!(
                    "scenario `{}`: template root `{}1` (forwarding {root_forwarded:.3} \
                     pkt/s for the other {} nodes): {e}",
                    self.name,
                    t.prefix,
                    t.count - 1
                ))
            })?;
        // `net.radio` is validated by the shared radio block in
        // `validate_with`, which runs for template networks too.
        Ok(())
    }

    /// A minimal valid scenario with the paper's defaults — the starting
    /// point for programmatic construction and the `export` CLI command.
    pub fn paper_template(name: impl Into<String>) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            name: name.into(),
            description: String::new(),
            cpu: CpuModelParams::paper_defaults(),
            profile: ProfileSpec::Pxa271,
            battery: BatterySpec::TwoAa,
            workload: None,
            service: None,
            backends: vec![BackendId::Markov, BackendId::PetriNet, BackendId::Des],
            report: ReportSpec::default(),
            sweep: None,
            network: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_validates() {
        let s = Scenario::paper_template("t");
        s.validate().unwrap();
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut s = Scenario::paper_template("t");
        s.schema_version = 999;
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::UnsupportedVersion { found: 999, .. })
        ));
        s.schema_version = 0;
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::UnsupportedVersion { found: 0, .. })
        ));
        // v1 files stay loadable.
        s.schema_version = 1;
        s.validate().unwrap();
    }

    #[test]
    fn invalid_pieces_rejected() {
        let mut s = Scenario::paper_template("t");
        s.backends.clear();
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_template("t");
        s.cpu = s.cpu.with_lambda(100.0); // unstable queue
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_template("t");
        s.profile = ProfileSpec::Custom {
            name: "bad".into(),
            standby_mw: -1.0,
            powerup_mw: 0.0,
            idle_mw: 0.0,
            active_mw: 0.0,
        };
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_template("t");
        s.battery = BatterySpec::Custom {
            capacity_mah: 100.0,
            voltage_v: 3.0,
            usable_fraction: 1.5,
        };
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_template("t");
        s.sweep = Some(SweepSpec {
            axis: SweepAxis::PowerDownThreshold,
            values: vec![],
        });
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_template("t");
        s.sweep = Some(SweepSpec {
            axis: SweepAxis::Lambda,
            values: vec![0.5, -1.0],
        });
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_template("t");
        s.network = Some(NetworkSpec {
            nodes: vec![],
            topology: None,
            radio: None,
            template: None,
        });
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_template("t");
        s.workload = Some(WorkloadSpec::Trace { gaps: vec![] });
        assert!(s.validate().is_err());
    }

    #[test]
    fn lambda_sweep_requires_poisson_workload() {
        let mut s = Scenario::paper_template("t");
        s.workload = Some(WorkloadSpec::Mmpp2 {
            rate0: 2.0,
            rate1: 0.5,
            switch01: 0.1,
            switch10: 0.1,
        });
        s.sweep = Some(SweepSpec {
            axis: SweepAxis::Lambda,
            values: vec![0.5, 1.0],
        });
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("Lambda sweep"), "{err}");
        // Other axes stay allowed with non-Poisson workloads.
        s.sweep = Some(SweepSpec {
            axis: SweepAxis::PowerDownThreshold,
            values: vec![0.5, 1.0],
        });
        s.validate().unwrap();
        // And a Lambda sweep with the explicit Poisson workload is fine.
        s.workload = Some(WorkloadSpec::Poisson);
        s.sweep = Some(SweepSpec {
            axis: SweepAxis::Lambda,
            values: vec![0.5, 1.0],
        });
        s.validate().unwrap();
    }

    #[test]
    fn specs_materialize() {
        assert_eq!(ProfileSpec::Pxa271.build().unwrap().name, "PXA271");
        assert!(ProfileSpec::Msp430Class.build().unwrap().standby_mw < 1.0);
        let b = BatterySpec::Cr2032.build().unwrap();
        assert_eq!(b.capacity_mah, 225.0);
        let w = WorkloadSpec::Poisson.build(2.0);
        w.validate().unwrap();
        let c = WorkloadSpec::Closed {
            population: 3,
            think: Dist::Exponential { rate: 1.0 },
        }
        .build(1.0);
        c.validate().unwrap();
    }

    #[test]
    fn sweep_axes_apply() {
        let p = CpuModelParams::paper_defaults();
        assert_eq!(
            SweepAxis::PowerDownThreshold
                .apply(p, 0.7)
                .power_down_threshold,
            0.7
        );
        assert_eq!(SweepAxis::PowerUpDelay.apply(p, 0.2).power_up_delay, 0.2);
        assert_eq!(SweepAxis::Lambda.apply(p, 0.3).lambda, 0.3);
        assert_eq!(SweepAxis::Lambda.label(), "lambda");
    }

    #[test]
    fn backend_metadata_is_capability_driven() {
        // The old `Backend::assumes_poisson` now lives on Capabilities; the
        // deprecated alias still gives the canonical serialized names.
        let caps = |b: BackendId| backend::global().capabilities_of(b).unwrap();
        assert!(caps(BackendId::Markov).assumes_poisson);
        assert!(caps(BackendId::PetriNet).assumes_poisson);
        assert!(!caps(BackendId::Des).assumes_poisson);
        assert_eq!(Backend::ErlangPhase.to_string(), "ErlangPhase");
    }

    #[test]
    fn service_dist_validation_rules() {
        // Needs schema v3.
        let mut s = Scenario::paper_template("svc");
        s.service = Some(ServiceDist::Exponential);
        s.validate().unwrap();
        s.schema_version = 2;
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("schema_version >= 3"), "{err}");

        // Non-exponential service restricted to capable backends.
        let mut s = Scenario::paper_template("svc");
        s.service = Some(ServiceDist::Deterministic);
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("`Markov`"), "{err}");
        assert!(err.contains("supports_service_dist"), "{err}");
        s.backends = vec![BackendId::PetriNet, BackendId::Des];
        s.validate().unwrap();

        // Invalid service parameters rejected.
        let mut s = Scenario::paper_template("svc");
        s.backends = vec![BackendId::Des];
        s.service = Some(ServiceDist::Erlang { k: 0 });
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("service"), "{err}");
    }

    #[test]
    fn unknown_backend_name_gets_did_you_mean() {
        // The satellite bugfix: a typo'd backend name in a scenario file
        // surfaces as a did-you-mean error listing the registered backends,
        // driven by the registry so it can never go stale.
        let good = crate::files::to_string(
            &Scenario::paper_template("typo"),
            crate::files::FileFormat::Json,
        )
        .unwrap();
        let bad = good.replacen("\"Markov\"", "\"Markvo\"", 1);
        let err = crate::files::from_str(&bad, crate::files::FileFormat::Json)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown backend `Markvo`"), "{err}");
        assert!(err.contains("did you mean `Markov`?"), "{err}");
        for id in backend::global().ids() {
            assert!(err.contains(id.name()), "{err} missing {id}");
        }
        // Same behaviour through the TOML path.
        let good = crate::files::to_string(
            &Scenario::paper_template("typo"),
            crate::files::FileFormat::Toml,
        )
        .unwrap();
        let bad = good.replacen("\"PetriNet\"", "\"PetriNte\"", 1);
        let err = crate::files::from_str(&bad, crate::files::FileFormat::Toml)
            .unwrap_err()
            .to_string();
        assert!(err.contains("did you mean `PetriNet`?"), "{err}");
    }

    fn node(name: &str, event_rate: f64) -> NodeSpec {
        NodeSpec {
            name: name.into(),
            event_rate,
            tx_per_event: 1.0,
            rx_rate: 0.0,
            radio: None,
        }
    }

    fn topology_scenario(nodes: Vec<NodeSpec>, topology: TopologySpec) -> Scenario {
        let mut s = Scenario::paper_template("topo");
        s.network = Some(NetworkSpec {
            nodes,
            topology: Some(topology),
            radio: None,
            template: None,
        });
        s
    }

    #[test]
    fn topology_specs_resolve_next_hops() {
        use wsnem_wsn::NextHop;
        let nodes = vec![node("a", 0.5), node("b", 0.5), node("c", 0.5)];
        assert_eq!(
            TopologySpec::Star.build_next_hops(&nodes).unwrap(),
            vec![NextHop::Sink; 3]
        );
        assert_eq!(
            TopologySpec::Chain.build_next_hops(&nodes).unwrap(),
            vec![NextHop::Sink, NextHop::Node(0), NextHop::Node(1)]
        );
        assert_eq!(
            TopologySpec::Tree { fanout: 2 }
                .build_next_hops(&nodes)
                .unwrap(),
            vec![NextHop::Sink, NextHop::Node(0), NextHop::Node(0)]
        );
        let mesh = TopologySpec::Mesh {
            routes: vec![
                RouteSpec {
                    from: "b".into(),
                    to: "a".into(),
                },
                RouteSpec {
                    from: "a".into(),
                    to: "sink".into(),
                },
                RouteSpec {
                    from: "c".into(),
                    to: "a".into(),
                },
            ],
        };
        assert_eq!(
            mesh.build_next_hops(&nodes).unwrap(),
            vec![NextHop::Sink, NextHop::Node(0), NextHop::Node(0)]
        );
        assert_eq!(mesh.label(), "mesh");
        assert_eq!(TopologySpec::Tree { fanout: 3 }.label(), "tree");
    }

    #[test]
    fn topology_requires_schema_v2() {
        let mut s = topology_scenario(vec![node("a", 0.5)], TopologySpec::Star);
        s.validate().unwrap();
        s.schema_version = 1;
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("schema_version >= 2"), "{err}");
    }

    #[test]
    fn mesh_validation_rejects_bad_route_sets() {
        let nodes = || vec![node("a", 0.5), node("b", 0.5)];
        let cases: Vec<(Vec<RouteSpec>, &str)> = vec![
            (
                vec![RouteSpec {
                    from: "a".into(),
                    to: "sink".into(),
                }],
                "orphan",
            ),
            (
                vec![
                    RouteSpec {
                        from: "a".into(),
                        to: "sink".into(),
                    },
                    RouteSpec {
                        from: "a".into(),
                        to: "sink".into(),
                    },
                    RouteSpec {
                        from: "b".into(),
                        to: "a".into(),
                    },
                ],
                "more than one route",
            ),
            (
                vec![
                    RouteSpec {
                        from: "a".into(),
                        to: "sink".into(),
                    },
                    RouteSpec {
                        from: "b".into(),
                        to: "ghost".into(),
                    },
                ],
                "unknown node `ghost`",
            ),
            (
                vec![
                    RouteSpec {
                        from: "ghost".into(),
                        to: "sink".into(),
                    },
                    RouteSpec {
                        from: "b".into(),
                        to: "a".into(),
                    },
                ],
                "unknown node `ghost`",
            ),
            (
                vec![
                    RouteSpec {
                        from: "a".into(),
                        to: "b".into(),
                    },
                    RouteSpec {
                        from: "b".into(),
                        to: "a".into(),
                    },
                ],
                "cycle",
            ),
        ];
        for (routes, needle) in cases {
            let s = topology_scenario(nodes(), TopologySpec::Mesh { routes });
            let err = s.validate().unwrap_err().to_string();
            assert!(err.contains(needle), "expected `{needle}` in `{err}`");
        }
    }

    #[test]
    fn topology_rejects_reserved_and_duplicate_names() {
        let s = topology_scenario(vec![node("sink", 0.5)], TopologySpec::Star);
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("reserved"), "{err}");

        let s = topology_scenario(vec![node("a", 0.5), node("a", 0.5)], TopologySpec::Chain);
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("duplicate"), "{err}");

        // Without a topology, duplicate names stay legal (v1 semantics).
        let mut s = Scenario::paper_template("t");
        s.network = Some(NetworkSpec {
            nodes: vec![node("a", 0.5), node("a", 0.5)],
            topology: None,
            radio: None,
            template: None,
        });
        s.validate().unwrap();
    }

    #[test]
    fn topology_rejects_unstable_relays() {
        // 9 leaves at 1.5 ev/s into one relay: effective λ = 0.5 + 13.5 > μ.
        let mut nodes = vec![node("relay", 0.5)];
        nodes.extend((0..9).map(|i| node(&format!("leaf-{i}"), 1.5)));
        let s = topology_scenario(nodes, TopologySpec::Tree { fanout: 9 });
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("relay") && err.contains("forwarding"), "{err}");
        assert!(err.contains("rho"), "{err}");
    }

    #[test]
    fn radio_section_requires_schema_v4() {
        let mut s = Scenario::paper_template("radio");
        s.network = Some(NetworkSpec {
            nodes: vec![node("a", 0.5)],
            topology: None,
            radio: Some(RadioSpec::default()),
            template: None,
        });
        s.validate().unwrap();
        s.schema_version = 3;
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("schema_version >= 4"), "{err}");

        // A per-node override alone also gates on v4.
        let mut s = Scenario::paper_template("radio");
        let mut n = node("a", 0.5);
        n.radio = Some(RadioSpec::Lpl {
            period_s: 0.2,
            listen_s: 0.004,
        });
        s.network = Some(NetworkSpec {
            nodes: vec![n],
            topology: None,
            radio: None,
            template: None,
        });
        s.validate().unwrap();
        s.schema_version = 3;
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("schema_version >= 4"), "{err}");
    }

    #[test]
    fn invalid_radio_specs_rejected_with_context() {
        // Network-level: unknown preset.
        let mut s = Scenario::paper_template("radio");
        s.network = Some(NetworkSpec {
            nodes: vec![node("a", 0.5)],
            topology: None,
            radio: Some(RadioSpec::Preset("cc9999".into())),
            template: None,
        });
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("network.radio"), "{err}");
        assert!(err.contains("unknown radio preset `cc9999`"), "{err}");
        assert!(err.contains("cc2420-class"), "{err}");

        // Node-level: B-MAC preamble shorter than the check interval.
        let mut s = Scenario::paper_template("radio");
        let mut n = node("a", 0.5);
        n.radio = Some(RadioSpec::BMac {
            check_interval_s: 0.2,
            preamble_s: 0.1,
        });
        s.network = Some(NetworkSpec {
            nodes: vec![n],
            topology: None,
            radio: None,
            template: None,
        });
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("node `a`: radio"), "{err}");
        assert!(err.contains("preamble"), "{err}");
    }

    #[test]
    fn radio_resolution_prefers_node_over_network_over_default() {
        let lpl = RadioSpec::Lpl {
            period_s: 0.2,
            listen_s: 0.004,
        };
        let xmac = RadioSpec::XMac {
            check_interval_s: 0.5,
            strobe_s: 0.004,
            ack_s: 0.001,
        };
        let mut override_node = node("b", 0.5);
        override_node.radio = Some(xmac.clone());
        let spec = NetworkSpec {
            nodes: vec![node("a", 0.5), override_node],
            topology: None,
            radio: Some(lpl.clone()),
            template: None,
        };
        assert_eq!(spec.radio_spec_for(0), lpl);
        assert_eq!(spec.radio_spec_for(1), xmac);
        // No network radio → the historical preset.
        let spec = NetworkSpec {
            nodes: vec![node("a", 0.5)],
            topology: None,
            radio: None,
            template: None,
        };
        assert_eq!(spec.radio_spec_for(0), RadioSpec::default());
        // And the built network carries the lowered models.
        let net = spec
            .build_network(
                CpuModelParams::paper_defaults(),
                &PowerProfile::pxa271(),
                &Battery::two_aa(),
            )
            .unwrap();
        assert_eq!(net.nodes[0].radio, wsnem_wsn::RadioModel::cc2420_class());
    }

    #[test]
    fn tree_fanout_zero_rejected() {
        let s = topology_scenario(
            vec![node("a", 0.5), node("b", 0.5)],
            TopologySpec::Tree { fanout: 0 },
        );
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("fanout"), "{err}");
    }

    fn template_net(count: u64, event_rate: f64, topology: Option<TopologySpec>) -> NetworkSpec {
        NetworkSpec {
            nodes: vec![],
            topology,
            radio: None,
            template: Some(TemplateSpec {
                count,
                prefix: "n".into(),
                event_rate,
                tx_per_event: 1.0,
                rx_rate: 0.05,
            }),
        }
    }

    fn template_scenario(net: NetworkSpec) -> Scenario {
        let mut s = Scenario::paper_template("tpl");
        s.network = Some(net);
        s
    }

    #[test]
    fn template_network_validates_and_counts_without_materializing() {
        let s = template_scenario(template_net(
            1_000_000,
            1e-6,
            Some(TopologySpec::Tree { fanout: 4 }),
        ));
        s.validate().unwrap();
        assert_eq!(s.network.as_ref().unwrap().node_count(), 1_000_000);
    }

    #[test]
    fn template_requires_schema_v5() {
        let mut s = template_scenario(template_net(10, 0.01, None));
        s.schema_version = 4;
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("schema_version >= 5"), "{err}");
        assert!(err.contains("(found 4)"), "{err}");
    }

    #[test]
    fn template_and_nodes_are_mutually_exclusive() {
        let mut net = template_net(10, 0.01, None);
        net.nodes = vec![node("a", 0.5)];
        let err = template_scenario(net).validate().unwrap_err().to_string();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn template_rejects_mesh_topology() {
        let s = template_scenario(template_net(
            10,
            0.01,
            Some(TopologySpec::Mesh { routes: vec![] }),
        ));
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("mesh"), "{err}");
    }

    #[test]
    fn template_rejects_bad_count_prefix_and_rates() {
        let err = template_scenario(template_net(0, 0.01, None))
            .validate()
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("network.template.count must be in 1..="),
            "{err}"
        );

        // The SoA core's u32 node index and SINK sentinel bound the count.
        assert!(
            template_scenario(template_net(MAX_TEMPLATE_COUNT, 1e-12, None))
                .validate()
                .is_ok()
        );
        for count in [MAX_TEMPLATE_COUNT + 1, u64::from(u32::MAX) + 2, u64::MAX] {
            let err = template_scenario(template_net(count, 1e-12, None))
                .validate()
                .unwrap_err()
                .to_string();
            assert!(err.contains("network.template.count"), "{err}");
            assert!(err.contains(&count.to_string()), "{err}");
        }

        let mut net = template_net(10, 0.01, None);
        net.template.as_mut().unwrap().prefix = String::new();
        let err = template_scenario(net).validate().unwrap_err().to_string();
        assert!(err.contains("prefix must be non-empty"), "{err}");

        let err = template_scenario(template_net(10, -0.5, None))
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("rates"), "{err}");
    }

    #[test]
    fn template_root_stability_checked_in_closed_form() {
        // A chain funnels everyone's traffic through the first node:
        // 99 999 upstream nodes × 0.01 pkt/s ≈ 1000 pkt/s >> the paper's
        // service rate, so the root queue is unstable. Validation must say
        // so by name without building 10^5 nodes.
        let s = template_scenario(template_net(100_000, 0.01, Some(TopologySpec::Chain)));
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("root `n1`"), "{err}");
        // A star with the same rates forwards nothing and stays valid.
        let s = template_scenario(template_net(100_000, 0.01, Some(TopologySpec::Star)));
        s.validate().unwrap();
    }

    #[test]
    fn build_soa_lowers_template_and_explicit_specs() {
        let cpu = CpuModelParams::paper_defaults();
        let profile = PowerProfile::pxa271();
        let battery = Battery::two_aa();
        // Template path: flat arrays with generated names.
        let net = template_net(7, 0.01, Some(TopologySpec::Chain));
        let soa = net.build_soa(cpu, &profile, &battery).unwrap();
        assert_eq!(soa.len(), 7);
        assert_eq!(soa.name(0), "n1");
        assert_eq!(soa.name(6), "n7");
        // Explicit homogeneous nodes convert through the per-node network.
        let spec = NetworkSpec {
            nodes: vec![node("a", 0.5), node("b", 0.5)],
            topology: Some(TopologySpec::Chain),
            radio: None,
            template: None,
        };
        let soa = spec.build_soa(cpu, &profile, &battery).unwrap();
        assert_eq!(soa.len(), 2);
        assert_eq!(soa.name(0), "a");
    }

    #[test]
    fn template_round_trips_through_toml() {
        let s = template_scenario(template_net(
            42,
            0.01,
            Some(TopologySpec::Tree { fanout: 3 }),
        ));
        let text = crate::files::to_string(&s, crate::files::FileFormat::Toml).unwrap();
        let back = crate::files::from_str(&text, crate::files::FileFormat::Toml).unwrap();
        assert_eq!(back.network, s.network);
        back.validate().unwrap();
    }
}
