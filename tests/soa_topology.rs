//! SoA topology core vs the per-node oracle.
//!
//! The million-node fast path analyzes networks in structure-of-arrays
//! form (`wsnem::wsn::SoaNetwork`) instead of building one
//! `NodeConfig`/`RoutedNodeAnalysis` struct per node. This battery holds
//! the two implementations to *equality* — not closeness — on seeded
//! random forests up to 10^5 nodes: identical hop depths, bit-identical
//! forwarded-rate sums (the SoA pass replays the oracle's deepest-first
//! stable order), identical subtree sizes and bottleneck ranking, and
//! aggregate accessors that match a from-scratch recomputation over the
//! oracle's per-node results.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::core::backend::global;
use wsnem::core::{BackendId, EvalOptions};
use wsnem::stats::rng::{Rng64, Xoshiro256PlusPlus};
use wsnem::wsn::{
    chain_parents, star_parents, tree_parents, Network, NextHop, NodeConfig, SoaNetwork, SINK,
};

/// A seeded random forest over `n` nodes: each node forwards either to the
/// sink or to a strictly lower index, so the routing is acyclic by
/// construction and typically has many sink-adjacent roots. Workloads are
/// heterogeneous (per-node event and rx rates) but small enough that even
/// the heaviest relay stays stable under Mg1.
fn random_forest(n: usize, seed: u64) -> Network {
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let mut nodes = Vec::with_capacity(n);
    let mut next_hop = Vec::with_capacity(n);
    for i in 0..n {
        let mut node = NodeConfig::monitoring(format!("n{}", i + 1), 60.0);
        // Rates sum to well under mu even if one root drains everything.
        node.event_rate = (0.2 + 0.8 * rng.next_f64()) * 2.0 / n as f64;
        node.rx_rate = 0.1 * rng.next_f64() / n as f64;
        node.tx_per_event = 1.0;
        nodes.push(node);
        // ~1/8 of nodes are sink-adjacent; the rest attach uniformly below.
        next_hop.push(if i == 0 || rng.next_u64().is_multiple_of(8) {
            NextHop::Sink
        } else {
            NextHop::Node(rng.next_u64() as usize % i)
        });
    }
    let net = Network { nodes, next_hop };
    net.validate().unwrap();
    net
}

#[test]
fn parent_array_helpers_match_the_next_hop_constructors() {
    use wsnem::wsn::topology::{chain_next_hops, star_next_hops, tree_next_hops};
    let to_parents = |hops: Vec<NextHop>| -> Vec<u32> {
        hops.iter()
            .map(|h| match *h {
                NextHop::Sink => SINK,
                NextHop::Node(j) => j as u32,
            })
            .collect()
    };
    for n in [0usize, 1, 2, 7, 100] {
        assert_eq!(star_parents(n), to_parents(star_next_hops(n)));
        assert_eq!(chain_parents(n), to_parents(chain_next_hops(n)));
        for fanout in [1usize, 2, 3, 8] {
            assert_eq!(
                tree_parents(n, fanout),
                to_parents(tree_next_hops(n, fanout)),
                "n = {n}, fanout = {fanout}"
            );
        }
    }
}

#[test]
fn soa_routing_is_bit_identical_to_the_oracle_on_random_forests() {
    for (n, seed) in [(1usize, 1u64), (2, 2), (17, 3), (1000, 4), (100_000, 5)] {
        let net = random_forest(n, seed);
        let oracle = net.routing().unwrap();
        let soa = SoaNetwork::from_network(&net).unwrap();
        soa.validate().unwrap();
        let routing = soa.routing().unwrap();
        assert_eq!(routing.depths, oracle.depths, "n = {n}: depths");
        assert_eq!(
            routing.subtree_sizes,
            oracle
                .subtree_sizes
                .iter()
                .map(|&s| s as u32)
                .collect::<Vec<_>>(),
            "n = {n}: subtree sizes"
        );
        // Bit-identical, not approximately equal: the SoA pass promises the
        // oracle's exact summation order.
        for i in 0..n {
            assert!(
                routing.forwarded[i].to_bits() == oracle.forwarded[i].to_bits(),
                "n = {n}, node {i}: forwarded {} vs oracle {}",
                routing.forwarded[i],
                oracle.forwarded[i]
            );
        }
        assert_eq!(
            soa.sink_arrival_pkts_s().to_bits(),
            net.sink_arrival_pkts_s().to_bits(),
            "n = {n}: sink arrival"
        );
    }
}

#[test]
fn soa_analysis_matches_the_oracle_per_node_and_in_aggregate() {
    let n = 5000;
    let net = random_forest(n, 0x50A);
    let soa = SoaNetwork::from_network(&net).unwrap();
    let oracle = net.analyze_with_threads(BackendId::Mg1, Some(1)).unwrap();
    let analysis = soa
        .analyze_with(global(), BackendId::Mg1, &EvalOptions::default(), Some(1))
        .unwrap();
    assert_eq!(analysis.len(), n);

    // Per-node: power and lifetime must agree to the last bit — both paths
    // evaluate the identical closed-form recipe on identical inputs.
    for (i, routed) in oracle.per_node.iter().enumerate() {
        assert_eq!(soa.name(i), routed.analysis.name, "node {i}: name");
        assert_eq!(analysis.depths[i], routed.hop_depth, "node {i}: depth");
        assert_eq!(
            analysis.subtree_sizes[i] as usize, routed.subtree_size,
            "node {i}: subtree"
        );
        assert_eq!(
            analysis.forwarded[i].to_bits(),
            routed.forwarded_rx_pkts_s.to_bits(),
            "node {i}: forwarded"
        );
        assert_eq!(
            analysis.total_power_mw[i].to_bits(),
            routed.analysis.total_power_mw.to_bits(),
            "node {i}: total power"
        );
        assert_eq!(
            analysis.lifetime_days[i].to_bits(),
            routed.analysis.lifetime_days.to_bits(),
            "node {i}: lifetime"
        );
    }

    // Aggregates vs a from-scratch recomputation over the oracle results.
    let lifetimes: Vec<f64> = oracle
        .per_node
        .iter()
        .map(|r| r.analysis.lifetime_days)
        .collect();
    let min = lifetimes.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = lifetimes.iter().sum::<f64>() / n as f64;
    assert_eq!(analysis.first_death_days().to_bits(), min.to_bits());
    assert!((analysis.mean_lifetime_days() - mean).abs() <= 1e-12 * mean);
    let total: f64 = oracle
        .per_node
        .iter()
        .map(|r| r.analysis.total_power_mw)
        .sum();
    assert!((analysis.total_power_mw() - total).abs() <= 1e-9);
    assert_eq!(
        analysis.max_hop_depth(),
        oracle.per_node.iter().map(|r| r.hop_depth).max().unwrap()
    );
    assert_eq!(
        analysis.sink_arrival_pkts_s.to_bits(),
        oracle.sink_arrival_pkts_s.to_bits()
    );

    // Ranking: bottleneck, bottleneck relay and the worst-k cohort must
    // name the same nodes as the oracle's accessors / a full sort.
    let bottleneck = analysis.bottleneck().unwrap();
    assert_eq!(
        soa.name(bottleneck),
        oracle.bottleneck().unwrap().analysis.name
    );
    let relay = analysis.bottleneck_relay().unwrap();
    assert_eq!(
        soa.name(relay),
        oracle.bottleneck_relay().unwrap().analysis.name
    );
    let mut by_lifetime: Vec<usize> = (0..n).collect();
    by_lifetime.sort_by(|&a, &b| lifetimes[a].total_cmp(&lifetimes[b]).then(a.cmp(&b)));
    for k in [0usize, 1, 10, 137] {
        assert_eq!(
            analysis.worst_lifetime_cohort(k),
            by_lifetime[..k].to_vec(),
            "worst-{k} cohort"
        );
    }

    // Histogram and percentile accessors agree with naive recomputations.
    let near = analysis.near_unstable_count(0.5);
    let naive_near = analysis.rho.iter().filter(|&&r| r >= 0.5).count();
    assert_eq!(near, naive_near);
    let hist = analysis.lifetime_histogram(16);
    assert_eq!(hist.len(), 16);
    assert_eq!(hist.iter().map(|b| b.count).sum::<u64>(), n as u64);
    assert!(hist[0].lo <= min && min < hist[0].hi);
    let pcts = analysis.hop_depth_percentiles(&[50.0, 90.0, 100.0]);
    assert!(pcts.windows(2).all(|w| w[0].1 <= w[1].1), "{pcts:?}");
    assert_eq!(pcts.last().unwrap().1, analysis.max_hop_depth());
    let mut sorted_depths = analysis.depths.clone();
    sorted_depths.sort_unstable();
    for &(p, v) in &pcts {
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        assert_eq!(v, sorted_depths[rank - 1], "p{p}");
    }
}

#[test]
fn homogeneous_constructor_matches_the_oracle_on_regular_topologies() {
    // The template fast path builds SoA networks directly (no per-node
    // specs ever exist); those must equal the oracle's star/chain/tree
    // constructors node for node.
    // Period 100 s keeps even the chain's root relay stable: it forwards
    // 299 × 0.01 pkt/s, so its CPU runs at rho ≈ 0.3.
    let n = 300;
    let proto = NodeConfig::monitoring("n1", 100.0);
    let mk_nodes = || {
        (0..n)
            .map(|i| {
                let mut nd = proto.clone();
                nd.name = format!("n{}", i + 1);
                nd
            })
            .collect::<Vec<_>>()
    };
    let cases: [(Vec<u32>, Network); 3] = [
        (star_parents(n), Network::star(mk_nodes())),
        (chain_parents(n), Network::chain(mk_nodes())),
        (tree_parents(n, 3), Network::tree(mk_nodes(), 3)),
    ];
    for (parents, net) in cases {
        let soa = SoaNetwork::homogeneous(
            parents,
            "n",
            proto.event_rate,
            proto.tx_per_event,
            proto.rx_rate,
            proto.cpu,
            proto.cpu_profile.clone(),
            proto.radio,
            proto.battery,
        );
        let a = soa
            .analyze_with(global(), BackendId::Mg1, &EvalOptions::default(), Some(1))
            .unwrap();
        let b = net.analyze_with_threads(BackendId::Mg1, Some(1)).unwrap();
        for (i, routed) in b.per_node.iter().enumerate() {
            assert_eq!(soa.name(i), routed.analysis.name);
            assert_eq!(a.depths[i], routed.hop_depth);
            assert_eq!(
                a.total_power_mw[i].to_bits(),
                routed.analysis.total_power_mw.to_bits()
            );
            assert_eq!(
                a.lifetime_days[i].to_bits(),
                routed.analysis.lifetime_days.to_bits()
            );
        }
    }
}

#[test]
fn soa_node_map_is_bit_identical_across_thread_counts() {
    // 10^4 nodes on 3 workers claim blocks of 10^4 / (3 × 1024) = 3 nodes,
    // so this runs multi-index blocks on the real node map. Per-node rates
    // differ, so a result written to the wrong index would show.
    let n = 10_000;
    let mut rng = Xoshiro256PlusPlus::new(0x7EE);
    let nodes = (0..n)
        .map(|i| {
            let mut node = NodeConfig::monitoring(format!("n{}", i + 1), 60.0);
            node.event_rate = (0.2 + 0.8 * rng.next_f64()) / n as f64;
            node
        })
        .collect();
    let soa = SoaNetwork::from_network(&Network::tree(nodes, 4)).unwrap();
    let run = |threads| {
        soa.analyze_with(global(), BackendId::Mg1, &EvalOptions::default(), threads)
            .unwrap()
    };
    let (one, three) = (run(Some(1)), run(Some(3)));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(one.depths, three.depths);
    assert_eq!(one.subtree_sizes, three.subtree_sizes);
    assert_eq!(bits(&one.forwarded), bits(&three.forwarded));
    assert_eq!(bits(&one.total_power_mw), bits(&three.total_power_mw));
    assert_eq!(bits(&one.lifetime_days), bits(&three.lifetime_days));
    assert_eq!(bits(&one.rho), bits(&three.rho));
    assert_eq!(
        one.sink_arrival_pkts_s.to_bits(),
        three.sink_arrival_pkts_s.to_bits()
    );
}
