//! # wsnem-stats
//!
//! Self-contained randomness and statistics substrate for the wsnem
//! simulators (EDSPN engine, discrete-event simulator, experiment harness).
//!
//! The crate deliberately avoids external RNG/distribution crates so that a
//! `(master seed, stream id)` pair reproduces **bit-identical** sample paths
//! on every platform and for the lifetime of this repository — a property the
//! cross-model comparison experiments of the paper rely on.
//!
//! Contents:
//!
//! * [`rng`] — SplitMix64 and xoshiro256++ generators, the [`Rng64`]
//!   abstraction and [`StreamFactory`] for independent replication streams.
//! * [`dist`] — continuous and discrete distributions with analytic moments,
//!   sampled by inversion / Box–Muller / Marsaglia–Tsang.
//! * [`online`] — the Welford mean/variance accumulator.
//! * [`timeweighted`] — time-integrals of piecewise-constant signals (the
//!   backbone of "percentage of time in state X" measures).
//! * [`ci`] — normal / Student-t quantiles and confidence intervals.
//! * [`compare`] — the series-comparison metric (MAE) used to
//!   regenerate the paper's Δ tables.
//! * [`hash`] — stable 128-bit FNV-1a content fingerprints (the scenario
//!   result cache's key function; `std::hash` is randomized per process).
//! * [`par`] — the order-preserving parallel executor every compute pool
//!   (replications, sweeps, node maps, scenario batches) runs on.
//! * [`replicate`] — the one way replications run: replication `i` on stream
//!   `i` of the master seed, outputs in replication order, statistics by
//!   in-order [`Welford`] pushes, and sequential stopping to a precision
//!   target ([`replicate::until_precise`]).

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
// `!(x > 0.0)`-style guards deliberately reject NaN together with the
// out-of-domain values; `partial_cmp` rewrites would lose that property.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod ci;
pub mod compare;
pub mod dist;
pub mod error;
pub mod hash;
pub mod online;
pub mod par;
pub mod replicate;
pub mod rng;
pub mod timeweighted;

pub use ci::{normal_quantile, t_quantile, ConfidenceInterval};
pub use compare::mean_abs_error;
pub use dist::{Dist, Sample};
pub use error::StatsError;
pub use hash::{fnv1a128, StableHasher};
pub use online::Welford;
pub use rng::{Rng64, SplitMix64, StreamFactory, Xoshiro256PlusPlus};
pub use timeweighted::TimeWeighted;
