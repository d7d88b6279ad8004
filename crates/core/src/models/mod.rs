//! The four registry solvers, one module per backend.

pub mod des_model;
pub mod markov_model;
pub mod mg1_model;
pub mod petri_model;
