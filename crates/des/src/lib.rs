//! # wsnem-des
//!
//! The discrete-event simulator (DES) of the CPU's power states that the
//! paper uses as ground truth (the authors used a Matlab event simulator;
//! this is the faithful Rust substitute), with its workloads and
//! replications.
//!
//! * [`workload`] — open workload generators (renewal/Poisson, 2-state MMPP,
//!   bursty on-off, trace replay) and closed (finite-population) workloads.
//! * [`cpu`] — the M/M/1-with-setup-and-timeout processor model: Poisson (or
//!   general) arrivals, one server, constant Power-Down Threshold `T` and
//!   Power-Up Delay `D`, with exact time-in-state accounting. Its
//!   future-event list is a fixed-slot agenda: one slot per event kind with
//!   at most one pending instance, a small heap for closed submissions, and
//!   FIFO order among events at the same instant.
//! * [`replication`] — [`run_replications`], independent replications of
//!   [`CpuDes`] on `wsnem_stats::replicate`, where every simulator's
//!   replications run.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
// `!(x > 0.0)`-style guards deliberately reject NaN together with the
// out-of-domain values; `partial_cmp` rewrites would lose that property.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod cpu;
pub mod error;
pub mod replication;
pub mod workload;

pub use cpu::{CpuDes, CpuRunReport, CpuSimParams};
pub use error::DesError;
pub use replication::run_replications;
pub use workload::{ClosedWorkload, OpenWorkload, Workload, WorkloadGen};
