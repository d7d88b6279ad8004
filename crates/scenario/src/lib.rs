//! # wsnem-scenario
//!
//! Declarative, versioned scenario definitions for the wsnem energy models —
//! the layer that turns the paper's hard-coded experiment functions into
//! data: a [`Scenario`] file (JSON or TOML) names the CPU parameters, power
//! profile, battery, arrival workload, the model backends to compare
//! (Markov / Mg1 / Petri net / DES), optional sweep axes and an
//! optional star network; the [`runner`] evaluates it — in parallel across
//! scenarios for batches — into a structured [`ScenarioReport`] with
//! per-state energy breakdowns, battery lifetimes and cross-backend
//! agreement checks.
//!
//! Schema v2 adds multi-hop topologies: a scenario network can declare a
//! [`schema::TopologySpec`] (star, chain, tree with configurable fan-out, or
//! an explicit static-route mesh) and the runner propagates each subtree's
//! packet rate sink-ward, so relay nodes carry their forwarding load in both
//! CPU arrival rate and radio traffic — the load imbalance that determines
//! network lifetime. v1 files keep loading unchanged.
//!
//! Schema v3 unifies backend selection on [`wsnem_core::BackendId`] and
//! adds an optional `service` section — a serializable service-time
//! distribution for the backends whose [`wsnem_core::Capabilities`] allow
//! it. The [`compare`] module runs *every registered backend* over a
//! scenario's sweep and emits the paper's Table 4/5 as a cross-backend
//! comparison matrix (`wsnem compare`).
//!
//! Schema v4 makes the radio a first-class model input: a network can name
//! a duty-cycle MAC ([`RadioSpec`] — presets, LPL, B-MAC-style full
//! preambles, X-MAC-style strobed preambles, custom numbers) and individual
//! nodes can override it, so relay duty cycles are co-tuned with routing
//! and CPU power management. Reports gain per-node radio spec / duty-cycle
//! columns; files that name no radio keep the historical `cc2420-class`
//! preset and analyze identically.
//!
//! One rule set judges every scenario: [`Scenario::diagnose`] lists each
//! error as a [`diag::Diagnostic`] with its lint code and field path.
//! [`Scenario::validate`] fails with the first as a typed [`ScenarioError`];
//! `wsnem check` (`wsnem-analysis`) reports them all, plus its lints.
//!
//! The fleet layer scales all of this from one file to thousands: [`gen`]
//! samples a declared parameter space (grid / seeded random / Latin
//! hypercube) into a directory of scenario files with a reproducibility
//! manifest, [`fleet`] discovers and runs such a directory as one batch,
//! and [`cache`] keys finished reports on a stable content hash of each
//! scenario's canonical serialization (`.wsnem-cache/`), so re-running a
//! 1000-file fleet after editing 3 files simulates exactly 3.
//!
//! A [`builtin`] library of twelve scenarios (paper baseline,
//! threshold-tuning sweep, bursty surveillance traffic, habitat monitoring,
//! a heterogeneous star, three multi-hop topologies, the large-D stress
//! case, a deterministic-service study, an LPL period sweep and a
//! mixed-MAC tree) ships in the binary, so the `wsnem` CLI works with no
//! files at all.
//!
//! ```
//! use wsnem_scenario::{builtin, runner};
//!
//! let mut scenario = builtin::find("paper-defaults").unwrap();
//! scenario.cpu = scenario.cpu.with_replications(2).with_horizon(200.0);
//! let report = runner::run_scenario(&scenario).unwrap();
//! assert_eq!(report.backends.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
// `!(x > 0.0)`-style guards deliberately reject NaN together with the
// out-of-domain values; `partial_cmp` rewrites would lose that property.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod builtin;
pub mod cache;
pub mod compare;
pub mod diag;
pub mod error;
pub mod files;
pub mod fleet;
pub mod gen;
pub mod report;
pub mod runner;
pub mod schema;

pub use cache::{CacheMode, CacheStats, ResultCache};
pub use compare::{
    compare_scenario, compare_scenario_tiered, compare_scenario_with, CompareReport,
    TIERED_RHO_THRESHOLD,
};
pub use error::ScenarioError;
pub use files::{load, FileFormat};
pub use fleet::{run_cached, run_cached_with, store_or_warn, FleetRunOptions};
pub use gen::{FieldSpec, GenField, GenMethod, GenSpec};
pub use report::{
    AggregateNetworkReport, AgreementCheck, BackendReport, CohortNodeReport, EnergyReport,
    HopDepthPercentile, LifetimeHistogramBin, NetworkReport, NodeReport, PhaseSeconds,
    ScenarioReport, DEFAULT_SUMMARY_NODE_LIMIT,
};
pub use runner::{
    call_with_timeout, run_batch_with_metrics, run_batch_with_options, run_scenario,
    run_scenario_bounded, BatchMetrics, BatchProgress, AGGREGATE_NODE_THRESHOLD,
};
pub use schema::{
    BatterySpec, Diagnosis, Load, NetworkSpec, NodeSpec, ProfileSpec, ReportSpec, RouteSpec,
    Scenario, SweepAxis, SweepSpec, TemplateSpec, TopologySpec, WorkloadSpec,
    MAX_CHAIN_TEMPLATE_COUNT, MAX_TEMPLATE_COUNT, MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};
pub use wsnem_core::backend::global as global_registry;
pub use wsnem_core::{BackendId, BackendRegistry, Capabilities, ServiceDist};
pub use wsnem_energy::{Battery, PowerProfile};
// Re-exported so consumers of `NetworkSpec::build_soa` (e.g. the CLI) need
// no direct wsn dependency. Every scenario network evaluates on
// `SoaNetwork`; the per-node `wsnem_wsn::Network` is the reference oracle
// tests compare it against.
pub use wsnem_wsn::{RadioModel, RadioSpec, SoaNetwork, SoaRouting, DEFAULT_RADIO_PRESET, SINK};
