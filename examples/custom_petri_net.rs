//! Domain scenario 3 — the EDSPN engine as a general tool: build a custom
//! net (a bounded producer–consumer), check its invariants, evaluate it two
//! independent ways (exact CTMC vs token-game simulation), and round-trip it
//! through the serializable spec format.
//!
//! Run with: `cargo run --release --example custom_petri_net`

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::petri::analysis::{p_semiflows, tangible_chain, ReachOptions};
use wsnem::petri::models::producer_consumer_net;
use wsnem::petri::{simulate, Reward, SimConfig};
use wsnem::stats::replicate::replicate;

fn main() {
    let capacity = 8;
    let (net, buffer, free) = producer_consumer_net(capacity, 3.0, 4.0).expect("net builds");

    // 1. Structure: the Farkas analyzer proves Buffer + FreeSlots = capacity.
    println!("P-invariants of the producer-consumer net:");
    for inv in p_semiflows(&net).expect("invariants computable") {
        let terms: Vec<String> = net
            .places()
            .filter(|p| inv[p.index()] > 0)
            .map(|p| net.place_name(p).to_owned())
            .collect();
        println!(
            "  {} = {}",
            terms.join(" + "),
            net.initial_marking().weighted_sum(&inv)
        );
    }

    // 2. Exact analysis: vanishing elimination + CTMC steady state.
    let chain = tangible_chain(&net, ReachOptions::default()).expect("chain builds");
    let pi = chain.steady_state().expect("steady state solves");
    let exact_occupancy = chain.expected_tokens(&pi, buffer);
    println!("\nExact (CTMC) mean buffer occupancy:      {exact_occupancy:.5}");

    // 3. Simulation: replicated token game with a fullness reward.
    let full = Reward::indicator("buffer full", move |m| m.tokens(buffer) == capacity);
    let cfg = SimConfig {
        horizon: 20_000.0,
        warmup: 500.0,
        ..SimConfig::default()
    };
    let rewards = [full];
    let run =
        replicate(8, 42, None, |rng| simulate(&net, &cfg, &rewards, rng)).expect("simulation runs");
    println!(
        "Simulated mean buffer occupancy:         {:.5}  (8 replications x 20000 s)",
        run.mean(|out| out.place_means[buffer.index()])
    );
    let exact_full: f64 = chain
        .markings
        .iter()
        .zip(&pi)
        .filter(|(m, _)| m.tokens(buffer) == capacity)
        .map(|(_, p)| p)
        .sum();
    let ci = run
        .ci(|out| out.reward_means[0], 0.95)
        .expect("enough replications");
    println!(
        "P(buffer full): exact {exact_full:.5} vs simulated {:.5} +/- {:.5}",
        ci.mean, ci.half_width
    );
    let _ = free;

    // 4. Persistence: nets serialize to a JSON spec and rebuild identically.
    let spec = net.to_spec();
    let json = serde_json::to_string_pretty(&spec).expect("serializes");
    let rebuilt = serde_json::from_str::<wsnem::petri::NetSpec>(&json)
        .expect("deserializes")
        .build()
        .expect("rebuilds");
    assert_eq!(rebuilt, net);
    println!(
        "\nSpec round-trip OK ({} bytes of JSON describe the net).",
        json.len()
    );
}
