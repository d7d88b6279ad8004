//! E9 — extension: fine-grained Power-Up-Delay sweep locating the validity
//! boundary of the paper's supplementary-variable approximation, with the
//! exact `Mg1` closed form and the Petri net as accurate references.
//!
//! Usage: `cargo run --release -p wsnem-bench --bin ext_delay_sweep [--quick]`

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem_bench::{f, quick_mode, render_table};
use wsnem_core::experiments::{delay_sweep, markov_validity_boundary};
use wsnem_core::CpuModelParams;

fn main() {
    let quick = quick_mode();
    let params = CpuModelParams::paper_defaults()
        .with_replications(if quick { 4 } else { 24 })
        .with_horizon(if quick { 800.0 } else { 6000.0 })
        .with_warmup(if quick { 50.0 } else { 300.0 });
    let d_values: Vec<f64> = if quick {
        vec![0.01, 0.1, 1.0, 10.0]
    } else {
        vec![0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0]
    };

    let rows = delay_sweep(params, &d_values).expect("sweep runs");

    println!(
        "Extension E9 — model error vs Power Up Delay (T = {} s, λ = {}/s)",
        params.power_down_threshold, params.lambda
    );
    println!("errors are mean |Δ| vs DES over the four states, percentage points\n");
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                f(r.d, 3),
                f(r.lambda_d, 3),
                f(r.markov_err, 3),
                f(r.mg1_err, 3),
                f(r.petri_err, 3),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "D (s)",
                "lambda*D",
                "Markov (SV) err",
                "Mg1 (exact) err",
                "Petri net err"
            ],
            &printable
        )
    );
    match markov_validity_boundary(&rows, 1.0) {
        Some(b) => println!(
            "Supplementary-variable model first exceeds 1 pp error at lambda*D = {b:.3} —\n\
             the basis for wsn::tuning's analytic-backend cutoff (lambda*D <= 0.05 is safely inside)."
        ),
        None => println!("Supplementary-variable model stayed within 1 pp over the sweep."),
    }
}
