//! Conservation and structural invariants of multi-hop routed topologies,
//! checked over randomly generated trees and meshes (seeded hand-rolled
//! property loops — the build is offline, without proptest; every case is
//! reproducible from its stream index).

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::stats::rng::{Rng64, StreamFactory};
use wsnem::wsn::{BackendId, Network, NextHop, NodeConfig};

fn uniform<R: Rng64>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

fn arb_nodes<R: Rng64>(rng: &mut R, n: usize) -> Vec<NodeConfig> {
    (0..n)
        .map(|i| {
            let mut node = NodeConfig::monitoring(format!("n{i}"), 1.0);
            node.event_rate = uniform(rng, 0.01, 0.4);
            node.tx_per_event = uniform(rng, 0.0, 3.0);
            node.rx_rate = uniform(rng, 0.0, 0.5);
            node
        })
        .collect()
}

/// A random sink-reaching routing: node `i` forwards to a uniformly chosen
/// lower index, or (for index 0 and with some probability elsewhere) to the
/// sink. Forward edges only point downward, so the result is acyclic by
/// construction — an arbitrary forest, i.e. a mesh with static routes.
fn arb_forest<R: Rng64>(rng: &mut R, n: usize) -> Vec<NextHop> {
    (0..n)
        .map(|i| {
            if i == 0 || rng.next_bool(0.2) {
                NextHop::Sink
            } else {
                NextHop::Node(rng.next_bounded(i as u64) as usize)
            }
        })
        .collect()
}

fn cases(stream: u64, n_cases: u64) -> impl Iterator<Item = (u64, Network)> {
    let factory = StreamFactory::new(0x7090_1097 ^ stream);
    (0..n_cases).map(move |i| {
        let mut rng = factory.stream(i);
        let n = 2 + rng.next_bounded(18) as usize;
        let nodes = arb_nodes(&mut rng, n);
        let next_hop = arb_forest(&mut rng, n);
        (i, Network { nodes, next_hop })
    })
}

/// Conservation of traffic: the packet rate entering the sink equals the
/// sum of every node's own transmit rate — nothing is created, dropped or
/// double-counted en route. Checked by explicitly accumulating each
/// sink-adjacent node's output.
#[test]
fn sink_inflow_equals_sum_of_source_rates() {
    for (i, net) in cases(1, 64) {
        net.validate().unwrap_or_else(|e| panic!("case {i}: {e}"));
        let forwarded = net.forwarded_rates().unwrap();
        let into_sink: f64 = net
            .next_hop
            .iter()
            .enumerate()
            .filter(|(_, hop)| matches!(hop, NextHop::Sink))
            .map(|(j, _)| net.nodes[j].own_tx_rate() + forwarded[j])
            .sum();
        let sources: f64 = net.nodes.iter().map(NodeConfig::own_tx_rate).sum();
        assert!(
            (into_sink - sources).abs() <= 1e-9 * sources.max(1.0),
            "case {i}: sink inflow {into_sink} != total source rate {sources}"
        );
        assert!((net.sink_arrival_pkts_s() - sources).abs() <= 1e-9 * sources.max(1.0));
    }
}

/// No node's forwarded load is negative or exceeds the network-wide total
/// source rate, and leaves (nodes nobody routes through) forward nothing.
#[test]
fn forwarded_loads_are_bounded() {
    for (i, net) in cases(2, 64) {
        let forwarded = net.forwarded_rates().unwrap();
        let total: f64 = net.nodes.iter().map(NodeConfig::own_tx_rate).sum();
        let mut has_parent = vec![false; net.nodes.len()];
        for hop in &net.next_hop {
            if let NextHop::Node(j) = *hop {
                has_parent[j] = true;
            }
        }
        for (j, &f) in forwarded.iter().enumerate() {
            assert!(f >= 0.0, "case {i} node {j}: negative forwarded load {f}");
            assert!(
                f <= total + 1e-9 * total.max(1.0),
                "case {i} node {j}: forwarded {f} exceeds network total {total}"
            );
            if !has_parent[j] {
                assert_eq!(f, 0.0, "case {i} node {j}: leaf with forwarded load");
            }
        }
    }
}

/// A node's forwarded input is exactly the sum of its children's outputs,
/// and subtree sizes/depths are structurally consistent.
#[test]
fn per_node_flow_balance_and_structure() {
    for (i, net) in cases(3, 64) {
        let forwarded = net.forwarded_rates().unwrap();
        let depths = net.hop_depths().unwrap();
        let sizes = net.subtree_sizes().unwrap();
        let n = net.nodes.len();
        for parent in 0..n {
            let children: Vec<usize> = (0..n)
                .filter(|&c| net.next_hop[c] == NextHop::Node(parent))
                .collect();
            let child_out: f64 = children
                .iter()
                .map(|&c| net.nodes[c].own_tx_rate() + forwarded[c])
                .sum();
            assert!(
                (forwarded[parent] - child_out).abs() <= 1e-9 * child_out.max(1.0),
                "case {i} node {parent}: forwarded {} != children output {child_out}",
                forwarded[parent]
            );
            let child_sizes: usize = children.iter().map(|&c| sizes[c]).sum();
            assert_eq!(sizes[parent], 1 + child_sizes, "case {i} node {parent}");
            for &c in &children {
                assert_eq!(depths[c], depths[parent] + 1, "case {i} child {c}");
            }
        }
        for (j, &d) in depths.iter().enumerate() {
            assert!(d >= 1 && d as usize <= n, "case {i} node {j}: depth {d}");
            if matches!(net.next_hop[j], NextHop::Sink) {
                assert_eq!(d, 1, "case {i} node {j}: sink-adjacent depth");
            }
        }
        assert_eq!(sizes.iter().sum::<usize>(), {
            // Every node appears in exactly depth-many subtrees.
            depths.iter().map(|&d| d as usize).sum::<usize>()
        });
    }
}

/// Random complete trees: the breadth-first constructor agrees with the
/// generic invariants, and the root carries everything.
#[test]
fn random_trees_conserve_traffic() {
    let factory = StreamFactory::new(0x7090_2000);
    for i in 0..32 {
        let mut rng = factory.stream(i);
        let n = 2 + rng.next_bounded(14) as usize;
        let fanout = 1 + rng.next_bounded(4) as usize;
        let net = Network::tree(arb_nodes(&mut rng, n), fanout);
        net.validate().unwrap();
        let forwarded = net.forwarded_rates().unwrap();
        let sources: f64 = net.nodes.iter().map(NodeConfig::own_tx_rate).sum();
        // The root is the only sink-adjacent node: it forwards everything
        // except its own traffic.
        let expect_root = sources - net.nodes[0].own_tx_rate();
        assert!(
            (forwarded[0] - expect_root).abs() <= 1e-9 * sources.max(1.0),
            "case {i}: root forwards {} expected {expect_root}",
            forwarded[0]
        );
        assert_eq!(net.subtree_sizes().unwrap()[0], n);
    }
}

/// Cycles are rejected for any rotation/size, never mis-analyzed.
#[test]
fn random_cycles_are_rejected() {
    let factory = StreamFactory::new(0x7090_3000);
    for i in 0..32 {
        let mut rng = factory.stream(i);
        let n = 2 + rng.next_bounded(10) as usize;
        let nodes = arb_nodes(&mut rng, n);
        let mut next_hop = arb_forest(&mut rng, n);
        // Rewire a random ring through the first k nodes.
        let k = 2 + rng.next_bounded((n - 1) as u64) as usize;
        for (j, hop) in next_hop.iter_mut().enumerate().take(k) {
            *hop = NextHop::Node((j + 1) % k);
        }
        let net = Network { nodes, next_hop };
        let err = net.validate().unwrap_err();
        assert!(err.contains("cycle"), "case {i}: {err}");
        assert!(net.forwarded_rates().is_err(), "case {i}");
        assert!(net.analyze(BackendId::Markov).is_err(), "case {i}");
    }
}

/// The routed star is numerically identical to the legacy star analysis,
/// which analyzed every node on its own — the v1 ↔ v2 bridge at the
/// analysis level.
#[test]
fn routed_star_matches_legacy_star_exactly() {
    let factory = StreamFactory::new(0x7090_4000);
    for i in 0..8 {
        let mut rng = factory.stream(i);
        let n = 1 + rng.next_bounded(6) as usize;
        let nodes = arb_nodes(&mut rng, n);
        let routed = Network::star(nodes.clone())
            .analyze(BackendId::Markov)
            .unwrap();
        assert_eq!(nodes.len(), routed.per_node.len());
        for (node, b) in nodes.iter().zip(&routed.per_node) {
            let legacy = node.analyze(BackendId::Markov).unwrap();
            assert_eq!(
                legacy, b.analysis,
                "case {i}: star analyses must be identical"
            );
            assert_eq!(b.hop_depth, 1);
            assert_eq!(b.forwarded_rx_pkts_s, 0.0);
        }
    }
}
