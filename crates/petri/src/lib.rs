//! # wsnem-petri
//!
//! An Extended Deterministic and Stochastic Petri Net (EDSPN) engine — the
//! from-scratch substitute for TimeNET 4.0 that the paper used to build and
//! simulate its CPU model (paper Fig. 3 / Table 1).
//!
//! Features:
//!
//! * **Net structure** ([`net`]): places, immediate transitions with
//!   priorities and weights, timed transitions with exponential /
//!   deterministic / general firing distributions, input, output and
//!   inhibitor arcs with multiplicities, and a serializable [`net::NetSpec`]
//!   exchange format.
//! * **Token game** ([`sim`]): event-driven simulation with vanishing-marking
//!   resolution, race semantics with enabling-memory (resample) or
//!   age-memory policies, marking rewards and warm-up truncation; one
//!   replication per call, keyed by its RNG stream, so
//!   `wsnem_stats::replicate` runs and reduces them deterministically.
//! * **Structural analysis** ([`analysis`]): incidence matrix, P/T-semiflows
//!   (Farkas), bounded reachability graphs, and — for nets whose timed
//!   transitions are all exponential — vanishing elimination into a tangible
//!   CTMC solved exactly by `wsnem-markov`.
//! * **Model library** ([`models`]): classic nets (M/M/1, M/M/1/K,
//!   producer–consumer, fork–join) used by tests, examples and benches.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
// `!(x > 0.0)`-style guards deliberately reject NaN together with the
// out-of-domain values; `partial_cmp` rewrites would lose that property.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod analysis;
pub mod dot;
pub mod error;
pub mod marking;
pub mod models;
pub mod net;
pub mod sim;

pub use dot::to_dot;
pub use error::PetriError;
pub use marking::Marking;
pub use net::{NetBuilder, NetSpec, PetriNet, PlaceId, TimedPolicy, TransitionId, TransitionKind};
pub use sim::{simulate, simulate_observed, Reward, SimConfig, SimOutput};
