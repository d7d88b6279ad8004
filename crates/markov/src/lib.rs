//! # wsnem-markov
//!
//! Continuous-time Markov chain (CTMC) substrate and the paper's
//! supplementary-variable processor model.
//!
//! * [`ctmc`] — sparse CTMC representation with steady-state solvers (dense
//!   Gaussian elimination for small chains, Gauss–Seidel for large ones) and
//!   transient analysis by uniformization.
//! * [`birthdeath`] — birth–death chains and M/M/1 / M/M/1/K closed forms
//!   (validation baselines).
//! * [`supplementary`] — the paper's Markov model of the CPU (Eqs. 11–24):
//!   Cox's method of supplementary variables approximating the two
//!   deterministic delays (Power Down Threshold `T`, Power Up Delay `D`).
//!
//! The exact answer for those constant delays is the renewal-reward closed
//! form of `wsnem-core`'s `Mg1` backend; no CTMC approximation of it is
//! kept here.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
// `!(x > 0.0)`-style guards deliberately reject NaN together with the
// out-of-domain values; `partial_cmp` rewrites would lose that property.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod birthdeath;
pub mod ctmc;
pub mod error;
pub mod supplementary;

pub use birthdeath::{mm1, mm1k, BirthDeath};
pub use ctmc::{Ctmc, CtmcBuilder, SteadyStateMethod};
pub use error::MarkovError;
pub use supplementary::SupplementaryVariableModel;
