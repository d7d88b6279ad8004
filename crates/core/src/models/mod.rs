//! The CPU model implementations.

pub mod des_model;
pub mod markov_model;
pub mod mg1_model;
pub mod petri_model;
