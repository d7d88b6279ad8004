//! Cross-backend agreement on a multi-hop chain: all four CPU backends must
//! agree per node within the Table 4 tolerance the runner uses (2 pp mean
//! absolute state-occupancy delta), even though every hop sees a different
//! effective arrival rate (own sensing + forwarded subtree traffic).

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::wsn::{BackendId, Network, NodeConfig};

const TOLERANCE_PP: f64 = 2.0; // the runner's default agreement gate

fn three_hop_chain() -> Network {
    let nodes = (0..3)
        .map(|i| {
            let mut node = NodeConfig::monitoring(format!("hop-{}", i + 1), 1.0);
            node.event_rate = 0.8;
            node.cpu = node
                .cpu
                .with_replications(6)
                .with_horizon(2000.0)
                .with_warmup(100.0);
            node
        })
        .collect();
    Network::chain(nodes)
}

#[test]
fn all_backends_agree_per_node_on_the_chain() {
    let net = three_hop_chain();
    let reference = net.analyze(BackendId::Des).unwrap();
    for backend in [BackendId::Markov, BackendId::Mg1, BackendId::PetriNet] {
        let result = net.analyze(backend).unwrap();
        for (r, d) in result.per_node.iter().zip(&reference.per_node) {
            let delta = r
                .analysis
                .cpu_fractions
                .mean_abs_delta_pct(&d.analysis.cpu_fractions);
            assert!(
                delta < TOLERANCE_PP,
                "{backend:?} vs Des at {}: Δ = {delta:.3} pp",
                r.analysis.name
            );
            let rel_power =
                (r.analysis.cpu_power_mw - d.analysis.cpu_power_mw).abs() / d.analysis.cpu_power_mw;
            assert!(
                rel_power < 0.10,
                "{backend:?} vs Des at {}: power {:.3} vs {:.3} mW",
                r.analysis.name,
                r.analysis.cpu_power_mw,
                d.analysis.cpu_power_mw
            );
        }
    }
}

/// Every backend sees the same structural facts: identical forwarding
/// loads, hop depths, and the relay-dies-first ordering.
#[test]
fn structure_is_backend_invariant_and_relay_dies_first() {
    let net = three_hop_chain();
    for backend in BackendId::ALL {
        let a = net.analyze(backend).unwrap();
        let depths: Vec<u32> = a.per_node.iter().map(|n| n.hop_depth).collect();
        assert_eq!(depths, vec![1, 2, 3], "{backend:?}");
        let fwd: Vec<f64> = a.per_node.iter().map(|n| n.forwarded_rx_pkts_s).collect();
        assert!((fwd[0] - 1.6).abs() < 1e-12, "{backend:?}: {fwd:?}");
        assert!((fwd[1] - 0.8).abs() < 1e-12, "{backend:?}: {fwd:?}");
        assert_eq!(fwd[2], 0.0, "{backend:?}");
        // More forwarded load → more power → shorter life, hop by hop.
        assert!(
            a.per_node[0].analysis.lifetime_days < a.per_node[1].analysis.lifetime_days
                && a.per_node[1].analysis.lifetime_days < a.per_node[2].analysis.lifetime_days,
            "{backend:?}: lifetimes not ordered by load"
        );
        assert_eq!(a.bottleneck_relay().unwrap().analysis.name, "hop-1");
    }
}
