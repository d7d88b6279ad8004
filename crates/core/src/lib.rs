//! # wsnem-core
//!
//! The paper's contribution, as a library: four interchangeable solvers for
//! one model of a wireless-sensor-node processor with power management —
//!
//! * [`MarkovSolver`] — the supplementary-variable closed forms
//!   (paper §4.1, Eqs. 1–24),
//! * [`Mg1Solver`] — the exact M/G/1 Pollaczek–Khinchine closed form for
//!   any service-time law (the million-node analytic fast path),
//! * [`PetriSolver`] — the EDSPN of paper Fig. 3 / Table 1 executed on the
//!   `wsnem-petri` token game,
//! * [`DesSolver`] — the discrete-event ground-truth simulator
//!   (the paper's Matlab benchmark),
//!
//! plus the [`experiments`] harness that regenerates every table and figure
//! of the evaluation section (Fig. 4, Fig. 5, Table 4, Table 5), plus a
//! convergence ablation and a Power-Up-Delay sweep.
//!
//! The [`backend`] module is the one way to run a solver: one [`BackendId`]
//! shared by every layer, the object-safe [`CpuSolver`] trait with a
//! per-backend [`Capabilities`] descriptor, and the [`BackendRegistry`]
//! through which the experiments, the node/network layer, the scenario
//! runner and the CLI dispatch — the workspace's single backend-dispatch
//! site. A solve takes the model and its simulation budget as
//! [`CpuModelParams`] and how to run it as [`EvalOptions`]:
//!
//! ```
//! use wsnem_core::{backend, BackendId, CpuModelParams, EvalOptions};
//!
//! let params = CpuModelParams::paper_defaults().with_replications(2);
//! let opts = EvalOptions::default().with_threads(Some(1));
//! for id in [BackendId::Markov, BackendId::Des] {
//!     let eval = backend::global().solve(id, &params, &opts).unwrap();
//!     assert!(eval.fractions.is_normalized(1e-6));
//! }
//! ```

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
pub use evaluation::ModelEvaluation;
pub use models::des_model::DesSolver;
pub use models::markov_model::MarkovSolver;
pub use models::mg1_model::Mg1Solver;
pub use models::petri_model::{
    build_cpu_edspn, build_cpu_edspn_with_service, state_rewards, CpuNetHandles, PetriSolver,
};
pub use params::CpuModelParams;
