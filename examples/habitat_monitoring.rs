//! Domain scenario 2 — a habitat-monitoring star network (the Great Duck
//! Island setting the paper's introduction cites [10, 12]).
//!
//! Eight nodes report temperature/humidity readings to a sink. Interior
//! nodes sense every 60 s; two gateway-adjacent nodes also forward traffic;
//! one "weather station" node samples at 2 Hz. Which node dies first, and
//! what would halving its sensing rate buy?
//!
//! Run with: `cargo run --release --example habitat_monitoring`

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::wsn::BackendId;
use wsnem::wsn::{Network, NodeConfig};

fn build_network(station_period: f64) -> Network {
    let mut nodes = Vec::new();
    for i in 0..5 {
        nodes.push(NodeConfig::monitoring(format!("interior-{i}"), 60.0));
    }
    for i in 0..2 {
        let mut n = NodeConfig::monitoring(format!("relay-{i}"), 60.0);
        n.rx_rate = 0.2; // forwarded packets per second
        n.tx_per_event = 2.0; // own reading + forwarded batch
        nodes.push(n);
    }
    nodes.push(NodeConfig::monitoring("weather-station", station_period));
    Network::star(nodes)
}

fn main() {
    let net = build_network(0.5);
    let analysis = net.analyze(BackendId::Markov).expect("analysis runs");

    println!(
        "Habitat-monitoring star network (8 nodes, 2xAA each, PXA271 + CC2420-class radio):\n"
    );
    println!(
        "  {:<16} {:>10} {:>10} {:>10} {:>12}",
        "node", "cpu (mW)", "radio (mW)", "total (mW)", "life (days)"
    );
    for n in analysis.per_node.iter().map(|r| &r.analysis) {
        println!(
            "  {:<16} {:>10.3} {:>10.3} {:>10.3} {:>12.1}",
            n.name, n.cpu_power_mw, n.radio_power_mw, n.total_power_mw, n.lifetime_days
        );
    }
    let bottleneck = &analysis.bottleneck().expect("non-empty network").analysis;
    println!(
        "\n  Network lifetime (first death): {:.1} days — bottleneck: {}",
        analysis.first_death_days(),
        bottleneck.name
    );
    println!(
        "  Mean node lifetime:             {:.1} days",
        analysis.mean_lifetime_days()
    );

    // What-if: halve the weather station's sampling rate.
    let slower = build_network(1.0);
    let slower_analysis = slower.analyze(BackendId::Markov).expect("analysis runs");
    println!(
        "\nWhat-if: weather station samples at 1 Hz instead of 2 Hz:\n  network lifetime {:.1} -> {:.1} days ({:+.1}%)",
        analysis.first_death_days(),
        slower_analysis.first_death_days(),
        (slower_analysis.first_death_days() / analysis.first_death_days() - 1.0) * 100.0
    );
    println!(
        "\nNote the paper's observation holds: the radio dominates ({}'s split above),\nbut the CPU share is what the Power-Down-Threshold policy controls.",
        bottleneck.name
    );
}
