//! # wsnem-core
//!
//! The paper's contribution, as a library: four interchangeable models of a
//! wireless-sensor-node processor with power management —
//!
//! * [`MarkovCpuModel`] — the supplementary-variable closed forms
//!   (paper §4.1, Eqs. 1–24),
//! * [`PetriCpuModel`] — the EDSPN of paper Fig. 3 / Table 1 executed on the
//!   `wsnem-petri` token game,
//! * [`DesCpuModel`] — the discrete-event ground-truth simulator
//!   (the paper's Matlab benchmark),
//! * [`Mg1CpuModel`] — the exact M/G/1 Pollaczek–Khinchine closed form for
//!   any service-time law (the million-node analytic fast path),
//!
//! all behind the [`CpuModel`] trait, plus the [`experiments`] harness that
//! regenerates every table and figure of the evaluation section (Fig. 4,
//! Fig. 5, Table 4, Table 5) and the DESIGN.md convergence ablation and
//! Power-Up-Delay sweep.
//!
//! The [`backend`] module is the unified solver API: one [`BackendId`]
//! shared by every layer, an object-safe [`CpuSolver`] trait with a
//! per-backend [`Capabilities`] descriptor, and the [`BackendRegistry`]
//! through which the node/network layer, the scenario runner and the CLI
//! dispatch — the workspace's single backend-dispatch site.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
// `!(x > 0.0)`-style guards deliberately reject NaN together with the
// out-of-domain values; `partial_cmp` rewrites would lose that property.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod backend;
pub mod error;
pub mod evaluation;
pub mod experiments;
pub mod models;
pub mod params;

pub use backend::{BackendId, BackendRegistry, Capabilities, CpuSolver, EvalOptions, ServiceDist};
pub use error::CoreError;
pub use evaluation::{CpuModel, ModelEvaluation};
pub use models::des_model::{DesCpuModel, DesSolver};
pub use models::markov_model::{MarkovCpuModel, MarkovSolver};
pub use models::mg1_model::{Mg1CpuModel, Mg1Solver};
pub use models::petri_model::{
    build_cpu_edspn, build_cpu_edspn_with_service, state_rewards, CpuNetHandles, PetriCpuModel,
    PetriSolver,
};
pub use params::CpuModelParams;
