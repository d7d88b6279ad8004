//! E3 — Paper Figure 5: energy consumption (J) vs the Power Down Threshold
//! for Simulation, Markov and Petri net at D = 0.001 s, PXA271 power rates
//! (paper Table 3), Eq. 25 over the simulated horizon. The paper's Eq. 24
//! variant (queueing-estimated runtime, N = λ·horizon jobs) is printed for
//! the Markov model as well.
//!
//! Usage: `cargo run --release -p wsnem-bench --bin fig5 [--quick]`

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem_bench::{f, quick_mode, render_table};
use wsnem_core::experiments::ThresholdSweep;
use wsnem_core::{BackendId, CpuModelParams};
use wsnem_energy::PowerProfile;
use wsnem_markov::SupplementaryVariableModel;

fn main() {
    let quick = quick_mode();
    let params = CpuModelParams::paper_defaults()
        .with_replications(if quick { 4 } else { 32 })
        .with_horizon(if quick { 500.0 } else { 1000.0 })
        .with_warmup(if quick { 25.0 } else { 50.0 });
    let profile = PowerProfile::pxa271();
    let sweep = ThresholdSweep::paper(params, 0.001)
        .run()
        .expect("sweep runs");

    println!("Paper Figure 5 — energy (J) vs Power Down Threshold (Eq. 25, PXA271)");
    println!(
        "lambda = {}/s, mu = {}/s, D = 0.001 s, horizon = {} s\n",
        params.lambda, params.mu, params.horizon
    );

    let sim = sweep.energy_series(BackendId::Des, &profile);
    let mar = sweep.energy_series(BackendId::Markov, &profile);
    let pn = sweep.energy_series(BackendId::PetriNet, &profile);
    let n_jobs = params.lambda * params.horizon;
    let rows: Vec<Vec<String>> = sweep
        .t_values()
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let eq24 = SupplementaryVariableModel::new(params.lambda, params.mu, *t, 0.001)
                .expect("valid params")
                .energy_eq24(&profile, n_jobs)
                .total_joules();
            vec![
                f(*t, 1),
                f(sim[i], 3),
                f(mar[i], 3),
                f(pn[i], 3),
                f(eq24, 3),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "T (s)",
                "Simulation (J)",
                "Markov (J)",
                "Petri Net (J)",
                "Markov Eq.24 (J)"
            ],
            &rows
        )
    );
}
