//! Quickstart: evaluate the same processor with every registered backend
//! and turn the result into energy and battery lifetime.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::core::{backend, BackendId, CpuModelParams, EvalOptions};
use wsnem::energy::{Battery, PowerProfile};

fn main() {
    // The paper's setup: λ = 1 job/s, mean service 0.1 s, power-down after
    // T = 0.5 s idle, power-up takes D = 1 ms (paper Table 2 / Fig. 4).
    let params = CpuModelParams::paper_defaults()
        .with_power_down_threshold(0.5)
        .with_replications(16)
        .with_horizon(2000.0)
        .with_warmup(100.0);

    let registry = backend::global();
    let evals: Vec<_> = registry
        .ids()
        .into_iter()
        .map(|id| {
            registry
                .solve(id, &params, &EvalOptions::default())
                .unwrap_or_else(|e| panic!("{id} evaluates: {e}"))
        })
        .collect();

    println!("Steady-state occupancy (λ=1/s, μ=10/s, T=0.5 s, D=1 ms):\n");
    for eval in &evals {
        println!(
            "  {:<10} {}   [evaluated in {:.3} ms]",
            eval.kind.to_string(),
            eval.fractions,
            eval.eval_seconds * 1000.0
        );
    }

    let pxa = PowerProfile::pxa271();
    println!("\nEnergy over 1000 s on an Intel PXA271 (paper Table 3 rates):");
    for eval in &evals {
        println!(
            "  {:<10} {:>8.2} J  (mean draw {:>6.2} mW)",
            eval.kind.to_string(),
            eval.energy_joules(&pxa, 1000.0),
            eval.mean_power_mw(&pxa)
        );
    }

    let battery = Battery::two_aa();
    println!("\nBattery lifetime on 2×AA cells at that draw:");
    for eval in &evals {
        let days = battery.lifetime_days(eval.mean_power_mw(&pxa));
        println!("  {:<10} {days:>7.1} days", eval.kind.to_string());
    }

    println!("\nQueueing view (Markov closed forms, Eqs. 21–22):");
    let markov = evals
        .iter()
        .find(|e| e.kind == BackendId::Markov)
        .expect("Markov is registered");
    let jobs = markov.mean_jobs.expect("Markov reports mean jobs");
    let latency = markov.mean_latency.expect("Markov reports latency");
    println!("  mean jobs in system L(1) = {jobs:.4}");
    println!("  mean latency     τ = L/λ = {latency:.4} s");
}
