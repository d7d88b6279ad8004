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
//! oracle's per-node results. The SoA core evaluates each run of
//! consecutive nodes with bitwise-equal inputs once; the run-breaker
//! forests below pin that sharing to the oracle too, and a call-counting
//! solver pins how many evaluations it makes.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use wsnem::core::backend::global;
use wsnem::core::{
    BackendId, BackendRegistry, Capabilities, CoreError, CpuModelParams, CpuSolver, EvalOptions,
    Mg1Solver, ModelEvaluation,
};
use wsnem::stats::rng::{Rng64, Xoshiro256PlusPlus};
use wsnem::wsn::{
    chain_parents, star_parents, tree_parents, Network, NetworkError, NextHop, NodeConfig,
    RadioSpec, Routes, SoaAnalysis, SoaNetwork, SINK,
};

/// Each value's bits, in order.
fn bits(values: impl Iterator<Item = f64>) -> Vec<u64> {
    values.map(f64::to_bits).collect()
}

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
        assert_eq!(
            routing.depths.iter().collect::<Vec<_>>(),
            oracle.depths,
            "n = {n}: depths"
        );
        assert_eq!(
            routing.subtree_sizes.iter().collect::<Vec<_>>(),
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
    let naive_near = analysis.rho.iter().filter(|&r| r >= 0.5).count();
    assert_eq!(near, naive_near);
    let hist = analysis.lifetime_histogram(16);
    assert_eq!(hist.len(), 16);
    assert_eq!(hist.iter().map(|b| b.count).sum::<u64>(), n as u64);
    assert!(hist[0].lo <= min && min < hist[0].hi);
    let pcts = analysis.hop_depth_percentiles(&[50.0, 90.0, 100.0]);
    assert!(pcts.windows(2).all(|w| w[0].1 <= w[1].1), "{pcts:?}");
    assert_eq!(pcts.last().unwrap().1, analysis.max_hop_depth());
    let mut sorted_depths: Vec<u32> = analysis.depths.iter().collect();
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
    // Each topology both as a rule and as its parent array.
    let cases: [(Routes, Network); 6] = [
        (Routes::Star, Network::star(mk_nodes())),
        (Routes::Parents(star_parents(n)), Network::star(mk_nodes())),
        (Routes::CHAIN, Network::chain(mk_nodes())),
        (
            Routes::Parents(chain_parents(n)),
            Network::chain(mk_nodes()),
        ),
        (Routes::Tree { fanout: 3 }, Network::tree(mk_nodes(), 3)),
        (
            Routes::Parents(tree_parents(n, 3)),
            Network::tree(mk_nodes(), 3),
        ),
    ];
    for (routes, net) in cases {
        let soa = SoaNetwork::homogeneous(
            routes,
            n,
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
            assert_eq!(a.subtree_sizes[i] as usize, routed.subtree_size);
            assert_eq!(
                a.forwarded[i].to_bits(),
                routed.forwarded_rx_pkts_s.to_bits()
            );
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
    assert_eq!(one.depths, three.depths);
    assert_eq!(one.subtree_sizes, three.subtree_sizes);
    assert_eq!(bits(one.forwarded.iter()), bits(three.forwarded.iter()));
    assert_eq!(
        bits(one.total_power_mw.iter()),
        bits(three.total_power_mw.iter())
    );
    assert_eq!(
        bits(one.lifetime_days.iter()),
        bits(three.lifetime_days.iter())
    );
    assert_eq!(bits(one.rho.iter()), bits(three.rho.iter()));
    assert_eq!(
        one.sink_arrival_pkts_s.to_bits(),
        three.sink_arrival_pkts_s.to_bits()
    );
}

/// The built-in Mg1 solver behind a call counter.
struct CountingMg1(Arc<AtomicUsize>);

impl CpuSolver for CountingMg1 {
    fn capabilities(&self) -> Capabilities {
        Mg1Solver.capabilities()
    }

    fn solve(
        &self,
        params: &CpuModelParams,
        opts: &EvalOptions,
    ) -> Result<ModelEvaluation, CoreError> {
        self.0.fetch_add(1, Ordering::Relaxed);
        Mg1Solver.solve(params, opts)
    }
}

/// A registry holding only the counting Mg1 solver, and its counter.
fn counting_registry() -> (BackendRegistry, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let mut registry = BackendRegistry::new();
    registry.register(Box::new(CountingMg1(Arc::clone(&calls))));
    (registry, calls)
}

/// Analyze on the counting registry; returns the analysis and the number of
/// solves it made.
fn analyze_counted(
    soa: &SoaNetwork,
    threads: Option<usize>,
) -> (Result<wsnem::wsn::SoaAnalysis, NetworkError>, usize) {
    let (registry, calls) = counting_registry();
    let result = soa.analyze_with(&registry, BackendId::Mg1, &EvalOptions::default(), threads);
    (result, calls.load(Ordering::Relaxed))
}

/// A homogeneous net of `n` monitoring nodes on `routes`. Period 10^4 s
/// keeps the root of a 10^4-node tree at rho = 0.1.
fn homogeneous(routes: Routes, n: usize) -> SoaNetwork {
    let proto = NodeConfig::monitoring("n1", 1e4);
    SoaNetwork::homogeneous(
        routes,
        n,
        "n",
        proto.event_rate,
        proto.tx_per_event,
        proto.rx_rate,
        proto.cpu,
        proto.cpu_profile,
        proto.radio,
        proto.battery,
    )
}

#[test]
fn analyze_with_solves_once_per_run_of_equal_inputs() {
    for (tree, star, chain) in [
        (
            homogeneous(Routes::Tree { fanout: 4 }, 10_000),
            homogeneous(Routes::Star, 10_000),
            homogeneous(Routes::CHAIN, 100),
        ),
        (
            homogeneous(Routes::Parents(tree_parents(10_000, 4)), 10_000),
            homogeneous(Routes::Parents(star_parents(10_000)), 10_000),
            homogeneous(Routes::Parents(chain_parents(100)), 100),
        ),
    ] {
        let forwarded: Vec<f64> = tree.routing().unwrap().forwarded.iter().collect();
        let runs = 1 + forwarded
            .windows(2)
            .filter(|w| w[0].to_bits() != w[1].to_bits())
            .count();
        // A complete fanout-4 tree has a handful of operating points, not 10^4.
        assert!(runs < 64, "{runs} runs");
        for threads in [Some(1), Some(3)] {
            assert_eq!(analyze_counted(&tree, threads).1, runs, "tree");
            assert_eq!(analyze_counted(&star, threads).1, 1, "star");
            assert_eq!(analyze_counted(&chain, threads).1, 100, "chain");
        }
    }
}

/// A seeded forest built to form and break runs of equal inputs. Event
/// rates come from a three-value set and repeat the previous node's rate
/// three times in four; only the first eighth of the nodes can be relays,
/// so the rest are leaves (zero forwarded load) that line up into runs.
/// An alternative radio overrides the first node of every fifth run from
/// the fifth on (a run boundary; node 0 keeps the shared radio) and the
/// middle node of every third run of three or more (mid-run).
fn run_forest(n: usize, seed: u64) -> Network {
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let rates = [0.5, 1.0, 2.0].map(|r| r / n as f64);
    let relays = (n / 8).max(1);
    let mut rate = rates[0];
    let mut nodes = Vec::with_capacity(n);
    let mut next_hop = Vec::with_capacity(n);
    for i in 0..n {
        if rng.next_u64().is_multiple_of(4) {
            rate = rates[rng.next_u64() as usize % rates.len()];
        }
        let mut node = NodeConfig::monitoring(format!("n{}", i + 1), 60.0);
        node.event_rate = rate;
        nodes.push(node);
        next_hop.push(if i == 0 || rng.next_u64().is_multiple_of(8) {
            NextHop::Sink
        } else {
            NextHop::Node(rng.next_u64() as usize % i.min(relays))
        });
    }
    let mut net = Network { nodes, next_hop };
    let forwarded = net.routing().unwrap().forwarded;
    let mut starts: Vec<usize> = (0..n)
        .filter(|&i| {
            i == 0
                || net.nodes[i].event_rate.to_bits() != net.nodes[i - 1].event_rate.to_bits()
                || forwarded[i].to_bits() != forwarded[i - 1].to_bits()
        })
        .collect();
    starts.push(n);
    let alt = RadioSpec::Preset("cc2420-always-on".into())
        .lower()
        .unwrap();
    for (r, run) in starts.windows(2).enumerate() {
        if r % 5 == 4 {
            net.nodes[run[0]].radio = alt;
        }
        if r % 3 == 0 && run[1] - run[0] >= 3 {
            net.nodes[(run[0] + run[1]) / 2].radio = alt;
        }
    }
    net.validate().unwrap();
    net
}

#[test]
fn run_sharing_is_bit_identical_to_the_oracle_across_run_breakers() {
    for (n, seed) in [(40usize, 21u64), (2000, 22), (20_000, 23)] {
        let net = run_forest(n, seed);
        let soa = SoaNetwork::from_network(&net).unwrap();
        soa.validate().unwrap();
        let overrides = soa.radio_overrides.len();
        assert!(
            overrides > 0 && overrides < n / 4,
            "n = {n}: {overrides} overrides"
        );
        let oracle = net.analyze_with_threads(BackendId::Mg1, Some(1)).unwrap();
        let (one, solves_one) = analyze_counted(&soa, Some(1));
        let (three, solves_three) = analyze_counted(&soa, Some(3));
        let (one, three) = (one.unwrap(), three.unwrap());
        // Runs formed, so most nodes took a shared result.
        assert_eq!(solves_one, solves_three);
        assert!(solves_one < n / 2, "n = {n}: {solves_one} solves");
        for a in [&one, &three] {
            for (i, routed) in oracle.per_node.iter().enumerate() {
                assert_eq!(a.depths[i], routed.hop_depth, "n = {n}, node {i}");
                assert_eq!(a.subtree_sizes[i] as usize, routed.subtree_size);
                assert_eq!(
                    a.forwarded[i].to_bits(),
                    routed.forwarded_rx_pkts_s.to_bits(),
                    "n = {n}, node {i}: forwarded"
                );
                assert_eq!(
                    a.total_power_mw[i].to_bits(),
                    routed.analysis.total_power_mw.to_bits(),
                    "n = {n}, node {i}: total power"
                );
                assert_eq!(
                    a.lifetime_days[i].to_bits(),
                    routed.analysis.lifetime_days.to_bits(),
                    "n = {n}, node {i}: lifetime"
                );
            }
            assert_eq!(
                a.sink_arrival_pkts_s.to_bits(),
                oracle.sink_arrival_pkts_s.to_bits()
            );
        }
        assert_eq!(bits(one.rho.iter()), bits(three.rho.iter()), "n = {n}: rho");
    }
}

#[test]
fn an_unstable_run_reports_its_lowest_index_node_with_the_oracle_error_text() {
    // A star, so nothing forwards: nodes n4..=n8 form one run at an unstable
    // rate (12 ev/s against mu = 10), n13..=n16 a second one.
    let nodes = (0..16)
        .map(|i| {
            let mut node = NodeConfig::monitoring(format!("n{}", i + 1), 10.0);
            if (3..8).contains(&i) || i >= 12 {
                node.event_rate = 12.0;
            }
            node
        })
        .collect();
    let net = Network::star(nodes);
    let expected = net
        .analyze_with_threads(BackendId::Mg1, Some(1))
        .unwrap_err()
        .to_string();
    assert!(expected.starts_with("node `n4`: "), "{expected}");
    let soa = SoaNetwork::from_network(&net).unwrap();
    for threads in [Some(1), Some(3)] {
        let (result, solves) = analyze_counted(&soa, threads);
        let err = result.unwrap_err();
        assert!(
            matches!(&err, NetworkError::Node { node, .. } if node == "n4"),
            "{err}"
        );
        assert_eq!(err.to_string(), expected);
        // Four runs: n1..=n3, n4..=n8, n9..=n12, n13..=n16.
        assert_eq!(solves, 4);
    }
}

/// Holds every aggregate accessor to a per-node recomputation over the
/// analysis's own columns, exactly (f64 results by their bits). The
/// accessors read one node per run; these references read every node.
fn assert_aggregates_match_per_node(a: &SoaAnalysis, label: &str) {
    let n = a.len();
    let lifetimes = &a.lifetime_days;
    let by_lifetime = |x: &usize, y: &usize| lifetimes[*x].total_cmp(&lifetimes[*y]);
    let min = lifetimes.iter().fold(f64::INFINITY, f64::min);
    let max = lifetimes.iter().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(a.first_death_days().to_bits(), min.to_bits(), "{label}");
    assert_eq!(a.bottleneck(), (0..n).min_by(by_lifetime), "{label}");
    assert_eq!(
        a.bottleneck_relay(),
        (0..n).filter(|&i| a.forwarded[i] > 0.0).min_by(by_lifetime),
        "{label}: relay"
    );

    for bins in [1usize, 7, 16] {
        let width = if max > min {
            (max - min) / bins as f64
        } else {
            1.0
        };
        let mut counts = vec![0u64; bins];
        for x in lifetimes.iter() {
            counts[(((x - min) / width) as usize).min(bins - 1)] += 1;
        }
        let hist = a.lifetime_histogram(bins);
        assert_eq!(hist.len(), bins, "{label}");
        for (b, bin) in hist.iter().enumerate() {
            assert_eq!(bin.count, counts[b], "{label}: bin {b} of {bins}");
            assert_eq!(bin.lo.to_bits(), (min + b as f64 * width).to_bits());
            assert_eq!(bin.hi.to_bits(), (min + (b + 1) as f64 * width).to_bits());
        }
    }

    let mut ranked: Vec<usize> = (0..n).collect();
    ranked.sort_by(|x, y| by_lifetime(x, y).then(x.cmp(y)));
    let (longest_start, longest) = a
        .runs
        .iter()
        .enumerate()
        .map(|(r, run)| {
            let end = a.runs.get(r + 1).map_or(n, |next| next.start);
            (run.start, end - run.start)
        })
        .max_by_key(|&(_, len)| len)
        .unwrap();
    for k in [0, 1, longest - 1, longest, longest + 1, 137] {
        assert_eq!(
            a.worst_lifetime_cohort(k),
            ranked[..k.min(n)].to_vec(),
            "{label}: worst-{k} cohort"
        );
    }

    let rho_min = a.rho.iter().fold(f64::INFINITY, f64::min);
    let rho_max = a.rho.iter().fold(f64::NEG_INFINITY, f64::max);
    for threshold in [a.rho[longest_start], rho_min, rho_max, 0.0, 0.9] {
        assert_eq!(
            a.near_unstable_count(threshold),
            a.rho.iter().filter(|&r| r >= threshold).count(),
            "{label}: near-unstable at rho {threshold}"
        );
    }

    let mut sorted_depths: Vec<u32> = a.depths.iter().collect();
    sorted_depths.sort_unstable();
    let max_depth = sorted_depths.last().copied().unwrap_or(0);
    assert_eq!(a.max_hop_depth(), max_depth, "{label}");
    let percentiles = [0.0, 0.001, 25.0, 50.0, 90.0, 99.0, 99.99, 100.0];
    for (p, depth) in a.hop_depth_percentiles(&percentiles) {
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        assert_eq!(depth, sorted_depths[rank - 1], "{label}: p{p}");
    }
}

fn analyze_mg1(soa: &SoaNetwork) -> SoaAnalysis {
    soa.analyze_with(global(), BackendId::Mg1, &EvalOptions::default(), Some(1))
        .unwrap()
}

#[test]
fn run_level_aggregates_match_per_node_recomputation_on_nets_with_long_runs() {
    let nets = [
        (
            "run forest 2000",
            SoaNetwork::from_network(&run_forest(2000, 22)).unwrap(),
        ),
        (
            "run forest 20000",
            SoaNetwork::from_network(&run_forest(20_000, 23)).unwrap(),
        ),
        (
            "tree 10^4 fanout 4",
            homogeneous(Routes::Tree { fanout: 4 }, 10_000),
        ),
        (
            "tree 10^4 fanout 4 parents",
            homogeneous(Routes::Parents(tree_parents(10_000, 4)), 10_000),
        ),
        (
            "tree 3000 fanout 7",
            homogeneous(Routes::Tree { fanout: 7 }, 3000),
        ),
        (
            "tree 3000 fanout 7 parents",
            homogeneous(Routes::Parents(tree_parents(3000, 7)), 3000),
        ),
        ("chain 100", homogeneous(Routes::CHAIN, 100)),
        (
            "chain 100 parents",
            homogeneous(Routes::Parents(chain_parents(100)), 100),
        ),
        ("star 5000", homogeneous(Routes::Star, 5000)),
        (
            "star 5000 parents",
            homogeneous(Routes::Parents(star_parents(5000)), 5000),
        ),
    ];
    for (label, soa) in &nets {
        let a = analyze_mg1(soa);
        // Every net but the chain has runs of several nodes.
        let repeats = a.runs.len() < a.len();
        assert_eq!(
            repeats,
            !label.starts_with("chain"),
            "{label}: {} runs",
            a.runs.len()
        );
        assert_aggregates_match_per_node(&a, label);
    }
}

#[test]
fn ties_across_non_adjacent_runs_resolve_to_the_lower_index() {
    // Nodes 1 and 4 relay one leaf each (nodes 6 and 7), so they forward
    // bitwise-equal loads, share the shortest lifetime, and sit in two
    // runs that other runs separate: [0] [1] [2, 3] [4] [5] [6, 7].
    let mut nodes: Vec<NodeConfig> = (0..8)
        .map(|i| NodeConfig::monitoring(format!("n{}", i + 1), 60.0))
        .collect();
    nodes[0].event_rate *= 0.5;
    nodes[5].event_rate *= 0.5;
    let next_hop = [
        NextHop::Sink,
        NextHop::Sink,
        NextHop::Sink,
        NextHop::Sink,
        NextHop::Sink,
        NextHop::Sink,
        NextHop::Node(1),
        NextHop::Node(4),
    ]
    .to_vec();
    let net = Network { nodes, next_hop };
    let soa = SoaNetwork::from_network(&net).unwrap();
    let a = analyze_mg1(&soa);
    let starts: Vec<usize> = a.runs.iter().map(|run| run.start).collect();
    assert_eq!(starts, vec![0, 1, 2, 4, 5, 6]);
    assert_eq!(a.lifetime_days[1].to_bits(), a.lifetime_days[4].to_bits());
    assert_eq!(a.bottleneck(), Some(1));
    assert_eq!(a.bottleneck_relay(), Some(1));
    assert_eq!(a.worst_lifetime_cohort(1), vec![1]);
    assert_eq!(a.worst_lifetime_cohort(2), vec![1, 4]);
    let oracle = net.analyze_with_threads(BackendId::Mg1, Some(1)).unwrap();
    assert_eq!(oracle.bottleneck().unwrap().analysis.name, "n2");
    assert_eq!(oracle.bottleneck_relay().unwrap().analysis.name, "n2");
    assert_aggregates_match_per_node(&a, "tie net");
}

#[test]
fn soa_routing_errors_match_the_oracle_text() {
    // Each case: a next-hop table over n nodes (`None` = sink), and the
    // node the error must name.
    let cycle = |n: usize, from: usize, to: usize| {
        let mut hops: Vec<Option<usize>> = (0..n).map(|i| i.checked_sub(1)).collect();
        hops[from] = Some(to);
        hops
    };
    let cases: [(&str, Vec<Option<usize>>, &str); 5] = [
        ("self-loop", vec![None, Some(0), Some(2), Some(1)], "n3"),
        ("2-cycle", vec![None, Some(2), Some(1), Some(0)], "n2"),
        // Nodes 10..=40 forward down the chain, and node 10 back to 40.
        ("long cycle", cycle(50, 10, 40), "n11"),
        // Node 1 starts a branch into the cycle 2 -> 3 -> 4 -> 2.
        (
            "cycle behind a branch",
            vec![None, Some(2), Some(3), Some(4), Some(2), Some(0)],
            "n2",
        ),
        ("out of range", vec![None, Some(0), Some(9)], "n3"),
    ];
    for (label, hops, named) in cases {
        let n = hops.len();
        let net = Network {
            nodes: (0..n)
                .map(|i| NodeConfig::monitoring(format!("n{}", i + 1), 60.0))
                .collect(),
            next_hop: hops
                .iter()
                .map(|h| h.map_or(NextHop::Sink, NextHop::Node))
                .collect(),
        };
        let soa = SoaNetwork::from_network(&net).unwrap();
        let expected = net.routing().unwrap_err();
        assert!(
            expected.contains(&format!("`{named}`")),
            "{label}: {expected}"
        );
        assert_eq!(soa.routing().unwrap_err(), expected, "{label}: routing");
        assert_eq!(soa.hop_depths().unwrap_err(), expected, "{label}: depths");
        assert_eq!(
            soa.validate().unwrap_err(),
            net.validate().unwrap_err(),
            "{label}: validate"
        );
    }
}

#[test]
fn a_template_lowers_to_one_run_per_input_column() {
    use wsnem_scenario::{NetworkSpec, TemplateSpec, TopologySpec};
    let n = 100_000;
    let spec = NetworkSpec {
        nodes: Vec::new(),
        topology: Some(TopologySpec::Tree { fanout: 4 }),
        radio: None,
        template: Some(TemplateSpec {
            count: n as u64,
            prefix: "n".into(),
            event_rate: 1e-5,
            tx_per_event: 1.0,
            rx_rate: 0.0,
        }),
    };
    let soa = spec
        .build_soa(
            CpuModelParams::paper_defaults(),
            &wsnem::energy::PowerProfile::pxa271(),
            &wsnem::energy::Battery::two_aa(),
        )
        .unwrap();
    for (label, column) in [
        ("event_rate", &soa.event_rate),
        ("tx_per_event", &soa.tx_per_event),
        ("rx_rate", &soa.rx_rate),
    ] {
        assert_eq!(column.len(), n, "{label}");
        assert_eq!(column.run_count(), 1, "{label}");
    }
    // The analysis columns hold one value per run of the analysis, or
    // fewer where neighbouring runs share one.
    let a = analyze_mg1(&soa);
    assert!(a.runs.len() < 64, "{} runs", a.runs.len());
    for column in [&a.total_power_mw, &a.lifetime_days, &a.rho] {
        assert_eq!(column.len(), n);
        assert!(column.run_count() <= a.runs.len());
    }
}

#[test]
fn explicit_blocks_of_equal_event_rates_match_the_oracle() {
    // Blocks of 1, 2, ..., 40 star-adjacent leaves under one chain of
    // relays: each block shares an event rate, and the blocks alternate
    // between two rates so neighbouring blocks differ.
    let sizes: Vec<usize> = (1..=40).collect();
    let mut nodes = Vec::new();
    let mut next_hop = Vec::new();
    for (b, &size) in sizes.iter().enumerate() {
        for _ in 0..size {
            let mut node = NodeConfig::monitoring(format!("n{}", nodes.len() + 1), 60.0);
            node.event_rate = if b % 2 == 0 { 1e-3 } else { 2e-3 };
            next_hop.push(match nodes.len() {
                0 => NextHop::Sink,
                i if i % 7 == 0 => NextHop::Node(i - 7),
                _ => NextHop::Sink,
            });
            nodes.push(node);
        }
    }
    let net = Network { nodes, next_hop };
    net.validate().unwrap();
    let soa = SoaNetwork::from_network(&net).unwrap();
    assert_eq!(soa.event_rate.run_count(), sizes.len());
    assert_eq!(soa.tx_per_event.run_count(), 1);
    assert_eq!(soa.rx_rate.run_count(), 1);
    let oracle = net.analyze_with_threads(BackendId::Mg1, Some(1)).unwrap();
    let a = analyze_mg1(&soa);
    for (i, routed) in oracle.per_node.iter().enumerate() {
        assert_eq!(
            soa.event_rate[i].to_bits(),
            net.nodes[i].event_rate.to_bits()
        );
        assert_eq!(
            a.forwarded[i].to_bits(),
            routed.forwarded_rx_pkts_s.to_bits(),
            "node {i}: forwarded"
        );
        assert_eq!(
            a.total_power_mw[i].to_bits(),
            routed.analysis.total_power_mw.to_bits(),
            "node {i}: total power"
        );
        assert_eq!(
            a.lifetime_days[i].to_bits(),
            routed.analysis.lifetime_days.to_bits(),
            "node {i}: lifetime"
        );
    }
    assert_eq!(
        a.total_power_mw().to_bits(),
        oracle.total_power_mw().to_bits()
    );
    assert_eq!(
        a.mean_lifetime_days().to_bits(),
        oracle.mean_lifetime_days().to_bits()
    );
    assert_eq!(
        a.first_death_days().to_bits(),
        oracle.first_death_days().to_bits()
    );
    assert_aggregates_match_per_node(&a, "explicit blocks");
}
