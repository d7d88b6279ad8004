//! # wsnem — Energy Modeling of WSN Processors with Petri Nets
//!
//! A full reproduction of *Shareef & Zhu, "Energy Modeling of Processors in
//! Wireless Sensor Networks based on Petri Nets" (ICPP 2008)* as a production
//! Rust workspace. This crate is a thin facade that re-exports every layer of
//! the stack under one name:
//!
//! * [`stats`] — deterministic RNG streams, distributions, online statistics.
//! * [`petri`] — an Extended Deterministic and Stochastic Petri Net (EDSPN)
//!   engine with structural analysis and a GSPN→CTMC bridge (the paper used
//!   TimeNET 4.0; this is the from-scratch substitute).
//! * [`markov`] — CTMC substrate and the paper's supplementary-variable
//!   closed-form processor model.
//! * [`obs`] — zero-cost observer hooks for both simulation kernels, NDJSON
//!   tracing, sojourn timelines and counters.
//! * [`des`] — a discrete-event simulation kernel and the CPU power-state
//!   simulator used as ground truth (the paper used a Matlab simulator).
//! * [`energy`] — power profiles (PXA271 and friends), energy accounting and
//!   battery lifetime models.
//! * [`core`] — the paper's contribution: four solvers for one CPU model
//!   (Markov, exact M/G/1, Petri net, discrete-event simulation) behind one
//!   backend registry, plus the experiment harness regenerating every table
//!   and figure.
//! * [`wsn`] — sensor-node and network-level studies built on the CPU models.
//!
//! ## Quickstart
//!
//! ```
//! use wsnem::core::{backend, BackendId, CpuModelParams, EvalOptions};
//! use wsnem::energy::PowerProfile;
//!
//! let params = CpuModelParams::paper_defaults().with_power_down_threshold(0.5);
//! let pxa = PowerProfile::pxa271();
//! for id in [BackendId::Markov, BackendId::Des, BackendId::PetriNet] {
//!     let eval = backend::global()
//!         .solve(id, &params, &EvalOptions::default())
//!         .unwrap();
//!     println!("{id} energy: {:.2} J", eval.energy_joules(&pxa, 1000.0));
//! }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub use wsnem_core as core;
pub use wsnem_des as des;
pub use wsnem_energy as energy;
pub use wsnem_markov as markov;
pub use wsnem_obs as obs;
pub use wsnem_petri as petri;
pub use wsnem_stats as stats;
pub use wsnem_wsn as wsn;
