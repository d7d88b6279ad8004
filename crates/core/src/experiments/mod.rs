//! The experiment harness: every table and figure of the paper's evaluation
//! section, plus a convergence ablation and a Power-Up-Delay sweep.
//!
//! | Artifact | Function | Bench binary |
//! |---|---|---|
//! | Fig. 4 (state percentages vs `T`) | [`sweep::ThresholdSweep`] | `fig4` |
//! | Fig. 5 (energy vs `T`) | [`sweep::SweepResult::energy_series`] | `fig5` |
//! | Table 4 (Δ percentages vs `D`) | [`tables::table4`] | `table4` |
//! | Table 5 (Δ energy vs `D`) | [`tables::table5`] | `table5` |
//! | E8 convergence ablation | [`ablation::convergence_ablation`] | `ablation_convergence` |
//! | E9 Power-Up-Delay sweep | [`delay_sweep::delay_sweep`] | `ext_delay_sweep` |

pub mod ablation;
pub mod delay_sweep;
pub mod sweep;
pub mod tables;

pub use ablation::{convergence_ablation, ConvergenceRow};
pub use delay_sweep::{delay_sweep, markov_validity_boundary, DelaySweepRow};
pub use sweep::{SweepPoint, SweepResult, ThresholdSweep};
pub use tables::{table4, table5, DeltaRow};
