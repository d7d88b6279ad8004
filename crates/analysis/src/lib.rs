//! # wsnem-analysis
//!
//! Static model verification and lints: prove a scenario sound — or explain
//! precisely how it is broken — before a single event fires.
//!
//! The crate powers `wsnem check` (and the preflight inside `wsnem run` /
//! `compare`). Every finding is a [`Diagnostic`] carrying a stable lint
//! code (`E005 unstable-queue`, `W002 radio-saturation`, …), a severity, a
//! location (file / scenario / node / field) and, where one exists, a
//! concrete fix. Severities are policy, not fate: a [`LintConfig`] applies
//! `rustc`-style `-W` / `-D` / `-A` overrides and `--deny warnings`.
//!
//! Two pass families:
//!
//! * **Scenario passes** ([`scenario_passes`]) work on the file alone:
//!   schema versioning, backend registration and capability mismatches,
//!   queue stability ρ = λ_eff·E\[S\] on the *forwarding-inflated* arrival
//!   rate of every network node, radio airtime saturation, and sweep
//!   hygiene. A catch-all keeps `check` at least as strict as schema
//!   validation.
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

pub mod diag;
pub mod engine;
pub mod lints;
pub mod manifest;
pub mod net_passes;
pub mod scenario_passes;

pub use diag::{Diagnostic, Location, Severity};
pub use engine::{check_file, check_scenario, counts, resolve, CheckOptions, Counts};
pub use lints::{Level, Lint, LintConfig};
