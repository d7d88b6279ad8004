//! Domain scenario 5 — "how long must the Petri net simulate?"
//!
//! The paper's §6 drawback is the open-ended simulation time TimeNET needs
//! before percentages stabilize. This example uses the sequential-stopping
//! API: replications are added automatically until every state estimate has
//! a 95% confidence interval tighter than 2% relative — and prints the
//! structural report + Graphviz source of the net being solved.
//!
//! Run with: `cargo run --release --example converged_estimation`

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::core::{backend, build_cpu_edspn, BackendId, CpuModelParams, EvalOptions};
use wsnem::petri::analysis::{conflict_sets, is_free_choice};
use wsnem::petri::{simulate, to_dot, Reward, SimConfig};
use wsnem::stats::replicate::{until_precise, PrecisionTarget};

fn main() {
    let params = CpuModelParams::paper_defaults();
    let (net, h) = build_cpu_edspn(
        params.lambda,
        params.mu,
        params.power_down_threshold,
        params.power_up_delay,
    )
    .expect("paper net builds");

    // Structure first: the engine can tell you *why* this net needs
    // priorities (it is not free choice — three transitions compete for
    // CPU_ON under different guards).
    println!("Structural report of the Fig. 3 net:");
    println!("  free choice: {}", is_free_choice(&net));
    for (p, ts) in conflict_sets(&net) {
        let names: Vec<&str> = ts.iter().map(|t| net.transition_name(*t)).collect();
        println!("  conflict at {}: {}", net.place_name(p), names.join(", "));
    }

    // The same four rewards the comparison harness uses.
    let (sb, pu, on, ac) = (h.stand_by, h.power_up, h.cpu_on, h.active);
    let rewards = vec![
        Reward::indicator("standby", move |m| m.tokens(sb) >= 1),
        Reward::indicator("powerup", move |m| m.tokens(pu) >= 1),
        Reward::indicator("idle", move |m| m.tokens(on) >= 1 && m.tokens(ac) == 0),
        Reward::indicator("active", move |m| m.tokens(ac) >= 1),
    ];

    let cfg = SimConfig {
        horizon: 1000.0, // the paper's per-run horizon
        warmup: 50.0,
        ..SimConfig::default()
    };
    let target = PrecisionTarget {
        rel_half_width: 0.02,
        ..PrecisionTarget::default()
    };
    let stopped = until_precise(
        target,
        2008,
        None,
        |rng| simulate(&net, &cfg, &rewards, rng),
        |out| &out.reward_means,
    )
    .expect("simulation runs");

    println!(
        "\nConverged after {} replications of {} s (converged = {}):",
        stopped.run.replications(),
        cfg.horizon,
        stopped.converged
    );
    for (r, ci) in rewards.iter().zip(&stopped.intervals) {
        println!(
            "  {:<8} {:6.3}% +/- {:.3} pp (95% CI)",
            r.name,
            ci.mean * 100.0,
            ci.half_width * 100.0
        );
    }

    // Cross-check against the closed form the paper derives.
    let exact = backend::global()
        .solve(BackendId::Markov, &params, &EvalOptions::default())
        .expect("markov evaluates");
    println!(
        "\nClosed-form (supplementary variables): {}",
        exact.fractions
    );

    println!("\nGraphviz source (render with `dot -Tpng`):\n");
    let dot = to_dot(&net);
    for line in dot.lines().take(12) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", dot.lines().count());
}
