//! Multi-hop routed topologies with forwarding-load propagation.
//!
//! The paper models one node's CPU, but its WSN setting is multi-hop: relay
//! nodes near the sink carry the aggregate traffic of their subtree, which
//! is exactly the load imbalance that determines network lifetime. A
//! routed [`Network`] gives every node a static [`NextHop`] toward the sink
//! (a star is the one-hop case), and the per-node *forwarding load* is
//! computed by propagating subtree packet rates sink-ward — a node's
//! effective CPU arrival rate becomes
//! `own_rate + sum(children's forwarded output)`, and its radio both
//! receives and retransmits that forwarded traffic.
//!
//! Conservation holds by construction: the packet rate entering the sink
//! equals the sum of every node's own transmit rate (nothing is created or
//! dropped en route), and the accompanying test battery pins that invariant
//! for random trees and meshes.
//!
//! Nodes are heterogeneous, radios included: a relay can run a different
//! duty-cycle MAC (a [`crate::RadioSpec`] override) than its leaves, which
//! is why [`RoutedAnalysis::bottleneck_relay`] ranks forwarding nodes by
//! *lifetime* rather than raw forwarded load — the energy price of carrying
//! a subtree depends on the MAC carrying it.
//!
//! Scenario networks do not evaluate here: every one of them, whatever its
//! size, runs on the structure-of-arrays core ([`crate::SoaNetwork`]). This
//! per-node model is the reference oracle that core is tested against
//! (`tests/soa_topology.rs` pins the two bit-identical), and the readable
//! form for library users and examples.
//!
//! # Examples
//!
//! ```
//! use wsnem_wsn::{BackendId, Network, NodeConfig};
//!
//! // A 3-hop chain sensing once every 2 s per node.
//! let nodes: Vec<NodeConfig> = (0..3)
//!     .map(|i| NodeConfig::monitoring(format!("n{i}"), 2.0))
//!     .collect();
//! let net = Network::chain(nodes);
//! // The sink-adjacent relay carries the other two nodes' packets...
//! assert_eq!(net.forwarded_rates().unwrap(), vec![1.0, 0.5, 0.0]);
//! // ...so it burns more power and dies first.
//! let analysis = net.analyze(BackendId::Markov).unwrap();
//! assert_eq!(analysis.bottleneck_relay().unwrap().analysis.name, "n0");
//! ```

use wsnem_core::BackendId;
use wsnem_stats::par;

use crate::node::{NodeAnalysis, NodeConfig};

/// Where a node forwards its collected traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum NextHop {
    /// Directly to the (mains-powered, unmodeled) sink.
    Sink,
    /// To another node, by index into the node list.
    Node(usize),
}

/// Next hops of a star over `n` nodes: everyone transmits to the sink.
pub fn star_next_hops(n: usize) -> Vec<NextHop> {
    vec![NextHop::Sink; n]
}

/// Next hops of a linear chain: node 0 is sink-adjacent and every later
/// node forwards to its predecessor.
pub fn chain_next_hops(n: usize) -> Vec<NextHop> {
    (0..n)
        .map(|i| {
            if i == 0 {
                NextHop::Sink
            } else {
                NextHop::Node(i - 1)
            }
        })
        .collect()
}

/// Next hops of a complete `fanout`-ary tree in breadth-first order: node 0
/// is the sink-adjacent root and node `i > 0` forwards to `(i - 1) / fanout`.
/// `fanout < 1` is treated as 1 (a chain).
pub fn tree_next_hops(n: usize, fanout: usize) -> Vec<NextHop> {
    let fanout = fanout.max(1);
    (0..n)
        .map(|i| {
            if i == 0 {
                NextHop::Sink
            } else {
                NextHop::Node((i - 1) / fanout)
            }
        })
        .collect()
}

/// The routing structure derived from a network's next hops, computed in
/// one sink-ward pass: hop depths, forwarded input rates and subtree sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTable {
    /// Hops to the sink per node (sink-adjacent = 1).
    pub depths: Vec<u32>,
    /// Forwarded input rate per node (packets/s).
    pub forwarded: Vec<f64>,
    /// Subtree size per node (each node counts itself).
    pub subtree_sizes: Vec<usize>,
}

/// A routed multi-hop network: heterogeneous nodes plus one static next hop
/// per node. Star, chain and tree are constructors; arbitrary
/// (cycle-free) route sets model meshes with static routing.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Network {
    /// The sensor nodes.
    pub nodes: Vec<NodeConfig>,
    /// `next_hop[i]` is where node `i` forwards; same length as `nodes`.
    pub next_hop: Vec<NextHop>,
}

/// One node's routed analysis: the energy verdict plus its place in the
/// routing structure.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedNodeAnalysis {
    /// The energy/battery verdict (CPU λ already includes forwarded load).
    pub analysis: NodeAnalysis,
    /// Hops to the sink (sink-adjacent nodes are depth 1).
    pub hop_depth: u32,
    /// Forwarded traffic received from children (packets/s).
    pub forwarded_rx_pkts_s: f64,
    /// Total offered transmit rate: own packets plus forwarded (packets/s).
    pub offered_tx_pkts_s: f64,
    /// Nodes in this node's subtree, itself included.
    pub subtree_size: usize,
}

/// Evaluated routed-network energy budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedAnalysis {
    /// Per-node results, in configuration order.
    pub per_node: Vec<RoutedNodeAnalysis>,
    /// Total packet rate entering the sink (packets/s).
    pub sink_arrival_pkts_s: f64,
}

impl Network {
    /// Every node transmits directly to the sink — the v1 star, as a routed
    /// network. Forwarding loads are all zero, so each node's analysis is
    /// its standalone [`NodeConfig::analyze`].
    ///
    /// ```
    /// use wsnem_wsn::{BackendId, Network, NodeConfig};
    ///
    /// let nodes = (0..4)
    ///     .map(|i| NodeConfig::monitoring(format!("node-{i}"), 10.0))
    ///     .collect();
    /// let a = Network::star(nodes).analyze(BackendId::Markov).unwrap();
    /// // Identical nodes die together: first death == mean lifetime.
    /// assert!((a.first_death_days() - a.mean_lifetime_days()).abs() < 1e-9);
    /// ```
    pub fn star(nodes: Vec<NodeConfig>) -> Self {
        let next_hop = star_next_hops(nodes.len());
        Self { nodes, next_hop }
    }

    /// A linear chain: `nodes[0]` is sink-adjacent and every later node
    /// forwards to its predecessor, so node 0 relays the whole line.
    pub fn chain(nodes: Vec<NodeConfig>) -> Self {
        let next_hop = chain_next_hops(nodes.len());
        Self { nodes, next_hop }
    }

    /// A complete `fanout`-ary tree in breadth-first order (see
    /// [`tree_next_hops`]): `nodes[0]` is the sink-adjacent root.
    pub fn tree(nodes: Vec<NodeConfig>, fanout: usize) -> Self {
        let next_hop = tree_next_hops(nodes.len(), fanout);
        Self { nodes, next_hop }
    }

    /// Validate the routing: every next hop in range, no self-loops, and
    /// every node reaches the sink (equivalently, no cycles — each node has
    /// exactly one outgoing route, so an unreachable node is one whose
    /// forward walk enters a cycle).
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.len() != self.next_hop.len() {
            return Err(format!(
                "routing table has {} entries for {} nodes",
                self.next_hop.len(),
                self.nodes.len()
            ));
        }
        for (i, hop) in self.next_hop.iter().enumerate() {
            if let NextHop::Node(j) = *hop {
                if j >= self.nodes.len() {
                    return Err(format!(
                        "node `{}` forwards to index {j}, but there are only {} nodes",
                        self.nodes[i].name,
                        self.nodes.len()
                    ));
                }
                if j == i {
                    return Err(format!("node `{}` forwards to itself", self.nodes[i].name));
                }
            }
        }
        self.hop_depths().map(|_| ())
    }

    /// Hops to the sink per node (sink-adjacent = 1). Fails on cycles,
    /// naming an affected node. Every routing computation funnels through
    /// here, so malformed tables error instead of panicking even for
    /// hand-built (or deserialized) networks that skipped `validate`.
    pub fn hop_depths(&self) -> Result<Vec<u32>, String> {
        let n = self.nodes.len();
        if self.next_hop.len() != n {
            return Err(format!(
                "routing table has {} entries for {n} nodes",
                self.next_hop.len()
            ));
        }
        let mut depths: Vec<u32> = vec![0; n]; // 0 = not yet computed
        for start in 0..n {
            if depths[start] != 0 {
                continue;
            }
            // Walk sink-ward, collecting the unresolved prefix of the path.
            let mut path = Vec::new();
            let mut cur = start;
            let base = loop {
                path.push(cur);
                if path.len() > n {
                    return Err(format!(
                        "node `{}` cannot reach the sink (routing cycle)",
                        self.nodes[start].name
                    ));
                }
                match self.next_hop[cur] {
                    NextHop::Sink => break 0,
                    NextHop::Node(j) => {
                        if j >= n {
                            return Err(format!(
                                "node `{}` forwards to index {j}, but there are only {n} nodes",
                                self.nodes[cur].name
                            ));
                        }
                        if depths[j] != 0 {
                            break depths[j];
                        }
                        if path.contains(&j) {
                            return Err(format!(
                                "node `{}` cannot reach the sink (routing cycle)",
                                self.nodes[start].name
                            ));
                        }
                        cur = j;
                    }
                }
            };
            for (back, &node) in path.iter().rev().enumerate() {
                depths[node] = base + 1 + back as u32;
            }
        }
        Ok(depths)
    }

    /// Depths, forwarded rates and subtree sizes in one deepest-first pass
    /// (the single place the sink-ward propagation is implemented).
    pub fn routing(&self) -> Result<RoutingTable, String> {
        let depths = self.hop_depths()?;
        let n = self.nodes.len();
        let mut order: Vec<usize> = (0..n).collect();
        // Deepest first: every child is settled before its parent.
        order.sort_by(|&a, &b| depths[b].cmp(&depths[a]));
        let mut forwarded = vec![0.0f64; n];
        let mut subtree_sizes = vec![1usize; n];
        for &i in &order {
            let out = self.nodes[i].own_tx_rate() + forwarded[i];
            if let NextHop::Node(parent) = self.next_hop[i] {
                forwarded[parent] += out;
                subtree_sizes[parent] += subtree_sizes[i];
            }
        }
        Ok(RoutingTable {
            depths,
            forwarded,
            subtree_sizes,
        })
    }

    /// Per-node forwarded input rate (packets/s): the sum over children of
    /// their *output* rate (own transmissions plus what they themselves
    /// forward). Exogenous `rx_rate` traffic is consumed locally, as in the
    /// star model, and is not re-forwarded.
    pub fn forwarded_rates(&self) -> Result<Vec<f64>, String> {
        self.routing().map(|r| r.forwarded)
    }

    /// Subtree sizes (each node counts itself).
    pub fn subtree_sizes(&self) -> Result<Vec<usize>, String> {
        self.routing().map(|r| r.subtree_sizes)
    }

    /// Total packet rate entering the sink — by conservation, the sum of
    /// every node's own transmit rate.
    pub fn sink_arrival_pkts_s(&self) -> f64 {
        self.nodes.iter().map(NodeConfig::own_tx_rate).sum()
    }

    /// Analyze every node with forwarding loads applied, parallelizing
    /// across all cores.
    pub fn analyze(&self, backend: BackendId) -> Result<RoutedAnalysis, NetworkError> {
        self.analyze_with_threads(backend, None)
    }

    /// Analyze on a pinned number of worker threads (`None` = available
    /// parallelism; batch runners pass `Some(1)`).
    pub fn analyze_with_threads(
        &self,
        backend: BackendId,
        threads: Option<usize>,
    ) -> Result<RoutedAnalysis, NetworkError> {
        let RoutingTable {
            depths,
            forwarded,
            subtree_sizes: sizes,
        } = self.routing().map_err(NetworkError::Routing)?;
        let analyses = par::map_indexed(self.nodes.len(), threads, |i| {
            self.nodes[i].analyze_with_forwarding(backend, forwarded[i])
        });
        let mut per_node = Vec::with_capacity(self.nodes.len());
        for (i, a) in analyses.into_iter().enumerate() {
            let analysis = a.map_err(|e| NetworkError::Node {
                node: self.nodes[i].name.clone(),
                source: e,
            })?;
            per_node.push(RoutedNodeAnalysis {
                analysis,
                hop_depth: depths[i],
                forwarded_rx_pkts_s: forwarded[i],
                offered_tx_pkts_s: self.nodes[i].own_tx_rate() + forwarded[i],
                subtree_size: sizes[i],
            });
        }
        Ok(RoutedAnalysis {
            per_node,
            sink_arrival_pkts_s: self.sink_arrival_pkts_s(),
        })
    }
}

/// Errors from routed-network analysis.
#[derive(Debug)]
pub enum NetworkError {
    /// The routing table is invalid (cycle, orphan, bad index).
    Routing(String),
    /// One node's model evaluation failed (e.g. forwarding load pushed its
    /// effective arrival rate past the service rate).
    Node {
        /// Name of the failing node.
        node: String,
        /// The underlying model error.
        source: wsnem_core::CoreError,
    },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::Routing(msg) => write!(f, "invalid topology: {msg}"),
            NetworkError::Node { node, source } => {
                write!(f, "node `{node}`: {source}")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

impl RoutedAnalysis {
    /// Lifetime until the first node dies (days).
    pub fn first_death_days(&self) -> f64 {
        self.per_node
            .iter()
            .map(|n| n.analysis.lifetime_days)
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean node lifetime (days).
    pub fn mean_lifetime_days(&self) -> f64 {
        if self.per_node.is_empty() {
            return 0.0;
        }
        self.per_node
            .iter()
            .map(|n| n.analysis.lifetime_days)
            .sum::<f64>()
            / self.per_node.len() as f64
    }

    /// Total network power (mW).
    pub fn total_power_mw(&self) -> f64 {
        self.per_node
            .iter()
            .map(|n| n.analysis.total_power_mw)
            .sum()
    }

    /// The node with the shortest lifetime.
    pub fn bottleneck(&self) -> Option<&RoutedNodeAnalysis> {
        self.per_node.iter().min_by(|a, b| {
            a.analysis
                .lifetime_days
                .total_cmp(&b.analysis.lifetime_days)
        })
    }

    /// The routing hot spot: the *shortest-lived* forwarding node (`None`
    /// when nothing forwards, e.g. a star).
    ///
    /// Lifetime-ranked rather than load-ranked because the metric is
    /// MAC-sensitive: with per-node radio overrides, a relay on an
    /// expensive MAC (long preambles, high duty cycle) can be the hot spot
    /// even though another relay carries more packets. In homogeneous
    /// networks the two rankings coincide.
    pub fn bottleneck_relay(&self) -> Option<&RoutedNodeAnalysis> {
        self.per_node
            .iter()
            .filter(|n| n.forwarded_rx_pkts_s > 0.0)
            .min_by(|a, b| {
                a.analysis
                    .lifetime_days
                    .total_cmp(&b.analysis.lifetime_days)
            })
    }

    /// The deepest hop count in the network (0 for an empty network).
    pub fn max_hop_depth(&self) -> u32 {
        self.per_node.iter().map(|n| n.hop_depth).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitoring_nodes(n: usize, period_s: f64) -> Vec<NodeConfig> {
        (0..n)
            .map(|i| NodeConfig::monitoring(format!("node-{i}"), period_s))
            .collect()
    }

    #[test]
    fn star_has_no_forwarding_and_matches_star_network() {
        // A star network analyzes every node on its own: the routed star
        // must reproduce each standalone node analysis exactly.
        let nodes = monitoring_nodes(3, 10.0);
        let routed = Network::star(nodes.clone());
        routed.validate().unwrap();
        assert_eq!(routed.hop_depths().unwrap(), vec![1, 1, 1]);
        assert_eq!(routed.forwarded_rates().unwrap(), vec![0.0; 3]);
        let r = routed.analyze(BackendId::Markov).unwrap();
        for (node, r) in nodes.iter().zip(&r.per_node) {
            let alone = node.analyze(BackendId::Markov).unwrap();
            assert_eq!(alone, r.analysis, "star and routed-star must agree exactly");
        }
        assert!(r.bottleneck_relay().is_none());
    }

    #[test]
    fn homogeneous_star_uniform_lifetimes() {
        let a = Network::star(monitoring_nodes(4, 10.0))
            .analyze(BackendId::Markov)
            .unwrap();
        assert_eq!(a.per_node.len(), 4);
        let first = a.first_death_days();
        let mean = a.mean_lifetime_days();
        assert!(
            (first - mean).abs() < 1e-9,
            "homogeneous nodes die together"
        );
        assert!(a.total_power_mw() > 0.0);
        assert!(a.bottleneck().is_some());
    }

    #[test]
    fn heterogeneous_star_bottleneck_is_busiest() {
        let mut nodes = monitoring_nodes(3, 30.0);
        nodes[1] = NodeConfig::monitoring("hot", 0.5);
        let a = Network::star(nodes).analyze(BackendId::Markov).unwrap();
        assert_eq!(a.bottleneck().unwrap().analysis.name, "hot");
        assert!(a.first_death_days() < a.mean_lifetime_days());
    }

    #[test]
    fn empty_star() {
        let a = Network::star(vec![]).analyze(BackendId::Markov).unwrap();
        assert_eq!(a.mean_lifetime_days(), 0.0);
        assert!(a.first_death_days().is_infinite());
        assert!(a.bottleneck().is_none());
    }

    #[test]
    fn chain_depths_and_loads() {
        let net = Network::chain(monitoring_nodes(4, 2.0)); // 0.5 ev/s each
        net.validate().unwrap();
        assert_eq!(net.hop_depths().unwrap(), vec![1, 2, 3, 4]);
        let fwd = net.forwarded_rates().unwrap();
        // node 3 forwards nothing; node 0 relays the other three.
        assert_eq!(fwd[3], 0.0);
        assert!((fwd[2] - 0.5).abs() < 1e-12);
        assert!((fwd[1] - 1.0).abs() < 1e-12);
        assert!((fwd[0] - 1.5).abs() < 1e-12);
        assert_eq!(net.subtree_sizes().unwrap(), vec![4, 3, 2, 1]);
        assert!((net.sink_arrival_pkts_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tree_parent_structure() {
        let net = Network::tree(monitoring_nodes(7, 10.0), 2);
        net.validate().unwrap();
        assert_eq!(net.next_hop[0], NextHop::Sink);
        assert_eq!(net.next_hop[1], NextHop::Node(0));
        assert_eq!(net.next_hop[2], NextHop::Node(0));
        assert_eq!(net.next_hop[3], NextHop::Node(1));
        assert_eq!(net.next_hop[6], NextHop::Node(2));
        assert_eq!(net.hop_depths().unwrap(), vec![1, 2, 2, 3, 3, 3, 3]);
        assert_eq!(net.subtree_sizes().unwrap()[0], 7);
    }

    #[test]
    fn relay_dies_first_in_a_chain() {
        let net = Network::chain(monitoring_nodes(3, 1.0));
        let a = net.analyze(BackendId::Markov).unwrap();
        let relay = &a.per_node[0];
        assert_eq!(a.bottleneck().unwrap().analysis.name, "node-0");
        assert_eq!(a.bottleneck_relay().unwrap().analysis.name, "node-0");
        for leafward in &a.per_node[1..] {
            assert!(
                relay.analysis.lifetime_days < leafward.analysis.lifetime_days,
                "sink-adjacent relay must die first"
            );
        }
        assert_eq!(a.max_hop_depth(), 3);
    }

    #[test]
    fn bottleneck_relay_is_mac_sensitive() {
        // Chain n0 <- n1 <- n2: n0 forwards 1.0 pkt/s, n1 forwards 0.5.
        // With homogeneous radios the heaviest relay (n0) is the hot spot;
        // putting the mid relay on an always-on radio (duty cycle 1) makes
        // *it* the shortest-lived forwarder despite carrying less traffic.
        let mut nodes = monitoring_nodes(3, 2.0);
        let homogeneous = Network::chain(nodes.clone());
        let a = homogeneous.analyze(BackendId::Markov).unwrap();
        assert_eq!(a.bottleneck_relay().unwrap().analysis.name, "node-0");

        nodes[1].radio = crate::RadioSpec::Preset("cc2420-always-on".into())
            .lower()
            .unwrap();
        let heterogeneous = Network::chain(nodes);
        let a = heterogeneous.analyze(BackendId::Markov).unwrap();
        let hot = a.bottleneck_relay().unwrap();
        assert_eq!(hot.analysis.name, "node-1");
        assert_eq!(hot.analysis.radio_duty_cycle, 1.0);
        assert!(
            hot.forwarded_rx_pkts_s < a.per_node[0].forwarded_rx_pkts_s,
            "the hot spot forwards less than n0 — it is the MAC, not the load"
        );
    }

    #[test]
    fn cycles_and_orphans_rejected() {
        let mut net = Network::chain(monitoring_nodes(3, 10.0));
        net.next_hop[0] = NextHop::Node(2); // 0 → 2 → 1 → 0
        let err = net.validate().unwrap_err();
        assert!(err.contains("cycle"), "{err}");

        let mut net = Network::chain(monitoring_nodes(3, 10.0));
        net.next_hop[1] = NextHop::Node(9);
        let err = net.validate().unwrap_err();
        assert!(err.contains("only 3 nodes"), "{err}");

        let mut net = Network::chain(monitoring_nodes(2, 10.0));
        net.next_hop[1] = NextHop::Node(1);
        let err = net.validate().unwrap_err();
        assert!(err.contains("itself"), "{err}");

        let mut net = Network::chain(monitoring_nodes(2, 10.0));
        net.next_hop.pop();
        assert!(net.validate().is_err());
        // A hand-built network that skipped validate() must error from the
        // analysis entry points too, not panic on the short routing table.
        let err = net.analyze(BackendId::Markov).unwrap_err();
        assert!(err.to_string().contains("1 entries for 2 nodes"), "{err}");
        assert!(net.hop_depths().is_err());
        assert!(net.forwarded_rates().is_err());
    }

    #[test]
    fn overloaded_relay_reports_node_name() {
        // 9 leaves at 1.5 ev/s each feeding one relay: effective λ ≈ 13.7
        // exceeds μ = 10 → unstable queue, reported against the relay.
        let nodes = monitoring_nodes(10, 1.0 / 1.5);
        let net = Network::tree(nodes, 9);
        let err = net.analyze(BackendId::Markov).unwrap_err();
        match &err {
            NetworkError::Node { node, .. } => assert_eq!(node, "node-0"),
            other => panic!("expected node error, got {other}"),
        }
        assert!(err.to_string().contains("node-0"));
    }

    #[cfg(feature = "serde")]
    #[test]
    fn routed_network_serde_round_trip() {
        let net = Network::tree(monitoring_nodes(3, 5.0), 2);
        let json = serde_json::to_string(&net).unwrap();
        let back: Network = serde_json::from_str(&json).unwrap();
        assert_eq!(back, net);
    }
}
