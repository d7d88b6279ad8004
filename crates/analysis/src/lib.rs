//! # wsnem-analysis
//!
//! Static model verification and lints: prove a scenario sound — or explain
//! precisely how it is broken — before a single event fires.
//!
//! The crate powers `wsnem check` (and the preflight inside `wsnem run` /
//! `compare`). Every finding is a [`Diagnostic`] carrying a stable lint
//! code (`E005 unstable-queue`, `W002 radio-saturation`, …), a severity, a
//! location (file / scenario / node / field) and, where one exists, a
//! concrete fix. The data model and lint registry are [`diag`], re-exported
//! from `wsnem-scenario`. Severities are policy, not fate: a [`LintConfig`]
//! applies `rustc`-style `-W` / `-D` / `-A` overrides and `--deny warnings`.
//!
//! Two pass families:
//!
//! * **Scenario passes** ([`scenario_passes`]) work on the file alone.
//!   Their errors are [`wsnem_scenario::Scenario::diagnose`]'s, the rule
//!   set `validate` reads too: schema versions, backends and capabilities,
//!   field ranges, and queue stability at every operating point, relays at
//!   their *forwarding-inflated* arrival rate. The lints add near-saturated
//!   queues, radio airtime saturation, sweep hygiene and workload
//!   approximation.
//! * **Net passes** ([`net_passes`]) build the scenario's per-node EDSPN
//!   exactly as the Petri backend would (or take a raw `.net.json` spec)
//!   and run the `wsnem-petri` analyses: P-semiflow coverage (conservation
//!   and structural boundedness), T-semiflow existence (a steady cycle),
//!   bounded reachability for deadlock detection — with an empty-siphon or
//!   inhibitor-arc witness — and dead-transition detection, plus the
//!   structural classification as an informational note. They read no
//!   delay, so each distinct net structure is analyzed once per process.
//!
//! [`manifest`] adds fleet-manifest verification for `wsnem gen --check`:
//! a generated directory is compared against what its `manifest.json`
//! deterministically regenerates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod engine;
pub mod lints;
pub mod manifest;
pub mod net_passes;
pub mod scenario_passes;

pub use engine::{check_file, check_scenario, counts, resolve, CheckOptions, Counts};
pub use lints::{Level, Lint, LintConfig};
pub use wsnem_scenario::diag;
pub use wsnem_scenario::diag::{Diagnostic, Location, Severity};
