//! The built-in scenario library.
//!
//! Twelve ready-to-run scenarios ship with the binary so `wsnem list` /
//! `wsnem run --all` work out of the box. They cover the paper's baseline,
//! both evaluation axes (Fig. 4/5's threshold sweep, Table 4/5's power-up
//! delay stress), the bursty-arrivals study from the surveillance domain,
//! two application-layer studies (habitat monitoring, a heterogeneous star
//! network), three multi-hop topologies (schema v2): a data-collection
//! tree, a 3-hop chain and a static-route mesh, where forwarding load
//! concentrates on sink-adjacent relays and shortens their lifetime — and
//! two radio/MAC studies (schema v4): an LPL check-interval sweep exposing
//! the listen-vs-preamble energy tradeoff and a mixed-MAC collection tree
//! whose always-on root relay pays for everyone else's duty cycling.

use wsnem_core::{BackendId, ServiceDist};
use wsnem_stats::dist::Dist;
use wsnem_wsn::RadioSpec;

use crate::error::ScenarioError;
use crate::schema::{
    BatterySpec, NetworkSpec, NodeSpec, ProfileSpec, ReportSpec, RouteSpec, Scenario, SweepAxis,
    SweepSpec, TopologySpec, WorkloadSpec,
};

fn plain_node(name: impl Into<String>, event_rate: f64) -> NodeSpec {
    NodeSpec {
        name: name.into(),
        event_rate,
        tx_per_event: 1.0,
        rx_rate: 0.0,
        radio: None,
    }
}

/// The paper's Table 2 baseline: λ = 1/s, μ = 10/s, T = 0.5 s, D = 1 ms,
/// PXA271, all three backends with a 2 pp agreement gate.
pub fn paper_defaults() -> Scenario {
    let mut s = Scenario::paper_template("paper-defaults");
    s.description = "The paper's Table 2 operating point on the PXA271: Poisson arrivals \
                     at 1 job/s, mean service 0.1 s, T = 0.5 s, D = 1 ms. All three \
                     backends must agree within 2 percentage points."
        .into();
    s.cpu = s.cpu.with_replications(8).with_horizon(1000.0);
    s
}

/// Fig. 4/5: sweep the Power Down Threshold and find the energy optimum.
pub fn threshold_tuning() -> Scenario {
    let mut s = Scenario::paper_template("threshold-tuning");
    s.description = "The design question behind Fig. 5: which Power Down Threshold \
                     minimizes energy? Sweeps T from 0.1 s to 1.0 s with the analytic \
                     Markov backend (exact in this small-D regime) and reports the \
                     best point."
        .into();
    s.backends = vec![BackendId::Markov];
    s.sweep = Some(SweepSpec {
        axis: SweepAxis::PowerDownThreshold,
        values: (1..=10).map(|i| i as f64 / 10.0).collect(),
    });
    s
}

/// Bursty surveillance traffic vs the Poisson assumption (the VigilNet
/// setting the paper's introduction cites).
pub fn surveillance_bursty() -> Scenario {
    let mut s = Scenario::paper_template("surveillance-bursty");
    s.description = "A surveillance node sees nothing for ~20 s, then a target transit \
                     produces a 4 s burst of detections at 6/s (same ~1/s mean as the \
                     paper's Poisson workload). The DES simulates the real burst \
                     process; the analytic backends keep their Poisson assumption — \
                     the agreement section quantifies how much the assumption \
                     misbudgets the battery."
        .into();
    s.cpu = s
        .cpu
        .with_replications(8)
        .with_horizon(5000.0)
        .with_warmup(200.0);
    s.workload = Some(WorkloadSpec::BurstyOnOff {
        on: Dist::Deterministic(4.0),
        off: Dist::Deterministic(20.0),
        rate_on: 6.0,
    });
    s.backends = vec![BackendId::Markov, BackendId::Des];
    // The distortion is the point — report deltas without a pass/fail gate.
    s.report = ReportSpec {
        energy_horizon_s: 1000.0,
        agreement_tolerance_pp: None,
    };
    s
}

/// Habitat monitoring: one reading per minute on an MSP430-class CPU with a
/// CR2032 — the months-long-lifetime regime.
pub fn habitat_monitoring() -> Scenario {
    let mut s = Scenario::paper_template("habitat-monitoring");
    s.description = "A habitat-monitoring node taking one reading per minute on an \
                     MSP430-class processor powered by a CR2032 coin cell. Aggressive \
                     power-down (T = 50 ms) keeps the CPU asleep between readings; \
                     lifetime is reported in days."
        .into();
    s.cpu = s
        .cpu
        .with_lambda(1.0 / 60.0)
        .with_power_down_threshold(0.05)
        .with_replications(8)
        .with_horizon(20_000.0)
        .with_warmup(500.0);
    s.profile = ProfileSpec::Msp430Class;
    s.battery = BatterySpec::Cr2032;
    s.backends = vec![BackendId::Markov, BackendId::Des];
    s
}

/// A heterogeneous star: sampler nodes, a camera node and a relay with
/// forwarded traffic — first-death vs mean lifetime.
pub fn heterogeneous_star() -> Scenario {
    let mut s = Scenario::paper_template("heterogeneous-star");
    s.description = "A star network of five PXA271 nodes: three slow environmental \
                     samplers, one busy camera node and one relay receiving forwarded \
                     packets. Reports per-node power budgets, the network's \
                     first-node-death lifetime and its bottleneck."
        .into();
    s.backends = vec![BackendId::Markov];
    s.network = Some(NetworkSpec {
        nodes: vec![
            NodeSpec {
                name: "sampler-0".into(),
                event_rate: 0.05,
                tx_per_event: 1.0,
                rx_rate: 0.0,
                radio: None,
            },
            NodeSpec {
                name: "sampler-1".into(),
                event_rate: 0.05,
                tx_per_event: 1.0,
                rx_rate: 0.0,
                radio: None,
            },
            NodeSpec {
                name: "sampler-2".into(),
                event_rate: 0.1,
                tx_per_event: 1.0,
                rx_rate: 0.0,
                radio: None,
            },
            NodeSpec {
                name: "camera".into(),
                event_rate: 2.0,
                tx_per_event: 4.0,
                rx_rate: 0.0,
                radio: None,
            },
            NodeSpec {
                name: "relay".into(),
                event_rate: 0.2,
                tx_per_event: 1.0,
                rx_rate: 2.5,
                radio: None,
            },
        ],
        topology: None,
        radio: None,
        template: None,
    });
    s
}

/// A binary data-collection tree: forwarding load concentrates on the
/// sink-adjacent root relay, which therefore dies first — the
/// routing-induced load imbalance that determines multi-hop network
/// lifetime.
pub fn tree_collection() -> Scenario {
    let mut s = Scenario::paper_template("tree-collection");
    s.description = "Seven identical sampling nodes in a complete binary collection tree \
                     (depth 3). Every node senses at the same rate, but the root relay \
                     carries its whole subtree's traffic sink-ward, so its CPU arrival \
                     rate is 7x a leaf's and its battery dies first — the relay \
                     bottleneck that sizes multi-hop WSN lifetimes."
        .into();
    s.backends = vec![BackendId::Markov];
    s.network = Some(NetworkSpec {
        nodes: (0..7)
            .map(|i| {
                let role = match i {
                    0 => "root".to_owned(),
                    1 | 2 => format!("relay-{i}"),
                    _ => format!("leaf-{i}"),
                };
                plain_node(role, 0.5)
            })
            .collect(),
        topology: Some(TopologySpec::Tree { fanout: 2 }),
        radio: None,
        template: None,
    });
    s
}

/// A 3-hop chain evaluated by every backend — the cross-backend agreement
/// study on a topology where each node sees a different effective load.
pub fn chain_3hop() -> Scenario {
    let mut s = Scenario::paper_template("chain-3hop");
    s.description = "Three nodes in a line: the sink-adjacent relay forwards for the two \
                     behind it, so effective arrival rates are 2.4/1.6/0.8 jobs per \
                     second at hop depths 1/2/3. All four backends evaluate the base \
                     parameters; the network section uses the analytic Markov model \
                     per node. Agreement must hold within the paper's 2 pp tolerance."
        .into();
    s.cpu = s.cpu.with_lambda(0.8).with_replications(8);
    s.backends = vec![
        BackendId::Markov,
        BackendId::Mg1,
        BackendId::PetriNet,
        BackendId::Des,
    ];
    s.network = Some(NetworkSpec {
        nodes: vec![
            plain_node("relay", 0.8),
            plain_node("mid", 0.8),
            plain_node("leaf", 0.8),
        ],
        topology: Some(TopologySpec::Chain),
        radio: None,
        template: None,
    });
    s
}

/// A mesh with explicit static routes: two branches of unequal depth merge
/// at different relays, so the forwarding load is asymmetric.
pub fn mesh_field() -> Scenario {
    let mut s = Scenario::paper_template("mesh-field");
    s.description = "A five-node field deployment with hand-written static routes: a \
                     gateway and a second sink-adjacent node, a camera feeding the \
                     gateway directly and two samplers routed through an intermediate \
                     hop. The explicit edge list is the mesh case of the topology \
                     schema; the report shows where the forwarding load lands."
        .into();
    s.backends = vec![BackendId::Markov];
    s.network = Some(NetworkSpec {
        nodes: vec![
            plain_node("gateway", 0.2),
            NodeSpec {
                name: "camera".into(),
                event_rate: 1.5,
                tx_per_event: 2.0,
                rx_rate: 0.0,
                radio: None,
            },
            plain_node("west-relay", 0.3),
            plain_node("sampler-a", 0.4),
            plain_node("sampler-b", 0.6),
        ],
        topology: Some(TopologySpec::Mesh {
            routes: vec![
                RouteSpec {
                    from: "gateway".into(),
                    to: "sink".into(),
                },
                RouteSpec {
                    from: "camera".into(),
                    to: "gateway".into(),
                },
                RouteSpec {
                    from: "west-relay".into(),
                    to: "sink".into(),
                },
                RouteSpec {
                    from: "sampler-a".into(),
                    to: "west-relay".into(),
                },
                RouteSpec {
                    from: "sampler-b".into(),
                    to: "west-relay".into(),
                },
            ],
        }),
        radio: None,
        template: None,
    });
    s
}

/// Table 4/5's stress axis: a large Power Up Delay breaks the
/// supplementary-variable approximation; the exact Mg1 closed form and the
/// simulators stay accurate.
pub fn powerup_delay_stress() -> Scenario {
    let mut s = Scenario::paper_template("powerup-delay-stress");
    s.description = "The failure mode the paper's Tables 4/5 quantify: at D = 10 s the \
                     supplementary-variable Markov model overestimates utilization \
                     several-fold while the exact Mg1 closed form, the Petri net and \
                     the DES agree. No tolerance gate — the disagreement is the result."
        .into();
    s.cpu = s
        .cpu
        .with_power_up_delay(10.0)
        .with_replications(8)
        .with_horizon(5000.0)
        .with_warmup(500.0);
    s.backends = vec![
        BackendId::Markov,
        BackendId::Mg1,
        BackendId::PetriNet,
        BackendId::Des,
    ];
    s.report = ReportSpec {
        energy_horizon_s: 1000.0,
        agreement_tolerance_pp: None,
    };
    s
}

/// Schema v3's service-time axis: deterministic (fixed-length) jobs instead
/// of exponential service — only the backends whose capabilities advertise
/// `supports_service_dist` can model it.
pub fn deterministic_service() -> Scenario {
    let mut s = Scenario::paper_template("deterministic-service");
    s.description = "Sensor firmware often runs a fixed-length processing routine per \
                     reading, not an exponentially distributed one. This scenario keeps \
                     the paper's operating point but makes service deterministic at \
                     0.1 s (schema v3 `service` section). Only the Petri net and the \
                     DES can model it — the analytic backends would reject the request \
                     as Unsupported rather than report exponential numbers."
        .into();
    s.cpu = s
        .cpu
        .with_replications(8)
        .with_horizon(2000.0)
        .with_warmup(100.0);
    s.service = Some(ServiceDist::Deterministic);
    s.backends = vec![BackendId::PetriNet, BackendId::Des];
    s
}

/// Schema v4's radio axis, part 1: sweep the LPL check interval (wake-up
/// period) across otherwise identical nodes and watch the documented
/// listen-vs-preamble tradeoff — short periods burn idle listening, long
/// periods burn transmit preambles, and the energy optimum sits in between.
pub fn lpl_period_sweep() -> Scenario {
    let mut s = Scenario::paper_template("lpl-period-sweep");
    s.description = "Six identical sampling nodes (0.5 readings/s), each on a B-MAC-style \
                     full-preamble LPL radio with a different check interval: 20 ms to \
                     1 s, preamble = period. Short periods listen too often (idle cost \
                     ~ sample/period), long periods pay a full preamble per packet \
                     (tx cost ~ rate x period), so mean radio power is U-shaped in the \
                     period and the per-node CSV duty-cycle/radio columns show both \
                     slopes. The 1 s node dies first; the optimum sits near 100 ms."
        .into();
    s.backends = vec![BackendId::Markov];
    let point = |name: &str, period_s: f64| NodeSpec {
        name: name.into(),
        event_rate: 0.5,
        tx_per_event: 1.0,
        rx_rate: 0.0,
        radio: Some(RadioSpec::BMac {
            check_interval_s: period_s,
            preamble_s: period_s,
        }),
    };
    s.network = Some(NetworkSpec {
        nodes: vec![
            point("p-20ms", 0.02),
            point("p-50ms", 0.05),
            point("p-100ms", 0.1),
            point("p-250ms", 0.25),
            point("p-500ms", 0.5),
            point("p-1s", 1.0),
        ],
        topology: None,
        radio: None,
        template: None,
    });
    s
}

/// Schema v4's radio axis, part 2: heterogeneous MACs in one collection
/// tree — leaves strobe (X-MAC), the root relay overrides to an always-on
/// radio and pays for the whole network's rendezvous.
pub fn mac_heterogeneous_tree() -> Scenario {
    let mut s = Scenario::paper_template("mac-heterogeneous-tree");
    s.description = "The tree-collection deployment with a schema v4 radio section: the \
                     network default is a strobed-preamble X-MAC (0.5 s check interval, \
                     ~1% duty cycle), but the sink-adjacent root overrides to an \
                     always-on cc2420 so it never misses a strobe from its busy \
                     subtree. The override makes the bottleneck-relay metric \
                     MAC-sensitive: the root's radio, not its forwarded packet count, \
                     is what kills it first."
        .into();
    s.backends = vec![BackendId::Markov];
    let mut nodes: Vec<NodeSpec> = (0..7)
        .map(|i| {
            let role = match i {
                0 => "root".to_owned(),
                1 | 2 => format!("relay-{i}"),
                _ => format!("leaf-{i}"),
            };
            plain_node(role, 0.5)
        })
        .collect();
    nodes[0].radio = Some(RadioSpec::Preset("cc2420-always-on".into()));
    s.network = Some(NetworkSpec {
        nodes,
        topology: Some(TopologySpec::Tree { fanout: 2 }),
        radio: Some(RadioSpec::XMac {
            check_interval_s: 0.5,
            strobe_s: 0.004,
            ack_s: 0.001,
        }),
        template: None,
    });
    s
}

/// All built-in scenarios, in presentation order.
pub fn all() -> Vec<Scenario> {
    vec![
        paper_defaults(),
        threshold_tuning(),
        surveillance_bursty(),
        habitat_monitoring(),
        heterogeneous_star(),
        tree_collection(),
        chain_3hop(),
        mesh_field(),
        powerup_delay_stress(),
        deterministic_service(),
        lpl_period_sweep(),
        mac_heterogeneous_tree(),
    ]
}

/// Look a built-in up by name.
pub fn find(name: &str) -> Result<Scenario, ScenarioError> {
    all()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| ScenarioError::UnknownBuiltin(name.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_has_at_least_five_scenarios() {
        assert!(all().len() >= 5);
    }

    #[test]
    fn every_builtin_validates() {
        for s in all() {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(!s.description.is_empty(), "{}", s.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = all().into_iter().map(|s| s.name).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn find_by_name() {
        assert_eq!(find("paper-defaults").unwrap().name, "paper-defaults");
        assert!(matches!(
            find("nope"),
            Err(ScenarioError::UnknownBuiltin(_))
        ));
    }

    #[test]
    fn library_covers_the_feature_space() {
        let scenarios = all();
        assert!(
            scenarios.iter().any(|s| s.sweep.is_some()),
            "a sweep scenario"
        );
        assert!(
            scenarios.iter().any(|s| s.network.is_some()),
            "a network scenario"
        );
        assert!(
            scenarios
                .iter()
                .any(|s| s.workload.as_ref().is_some_and(|w| !w.is_poisson())),
            "a non-Poisson workload scenario"
        );
        assert!(
            scenarios
                .iter()
                .any(|s| s.backends.contains(&BackendId::Mg1)),
            "an exact Mg1 scenario"
        );
        assert!(
            scenarios
                .iter()
                .any(|s| s.service.as_ref().is_some_and(|d| !d.is_exponential())),
            "a non-exponential service scenario"
        );
        assert!(
            scenarios
                .iter()
                .any(|s| s.network.as_ref().is_some_and(
                    |n| n.radio.is_some() && n.nodes.iter().any(|x| x.radio.is_some())
                )),
            "a scenario with both a network radio and a per-node override"
        );
        let topologies: Vec<&str> = scenarios
            .iter()
            .filter_map(|s| s.network.as_ref())
            .filter_map(|n| n.topology.as_ref())
            .map(|t| t.label())
            .collect();
        for shape in ["tree", "chain", "mesh"] {
            assert!(topologies.contains(&shape), "a {shape} topology scenario");
        }
    }

    #[test]
    fn tree_collection_shows_relay_bottleneck() {
        // Acceptance criterion: in the built-in tree, the sink-adjacent
        // relay's lifetime is strictly shorter than every leaf's.
        let mut s = tree_collection();
        s.cpu = s.cpu.with_replications(2).with_horizon(300.0);
        let report = crate::runner::run_scenario(&s).unwrap();
        let net = report.network.unwrap();
        assert_eq!(net.bottleneck, "root");
        assert_eq!(net.bottleneck_relay, "root");
        assert_eq!(net.max_hop_depth, 3);
        let root = net.nodes.iter().find(|n| n.name == "root").unwrap();
        assert!((root.forwarded_rx_pkts_s - 3.0).abs() < 1e-12);
        for leaf in net.nodes.iter().filter(|n| n.name.starts_with("leaf")) {
            assert!(
                root.lifetime_days < leaf.lifetime_days,
                "root {} vs {} {}",
                root.lifetime_days,
                leaf.name,
                leaf.lifetime_days
            );
        }
        // Conservation at the sink: 7 nodes x 0.5 pkt/s.
        assert!((net.sink_arrival_pkts_s - 3.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_service_runs_on_capable_backends() {
        let mut s = deterministic_service();
        s.cpu = s.cpu.with_replications(3).with_horizon(800.0);
        let report = crate::runner::run_scenario(&s).unwrap();
        assert_eq!(report.backends.len(), 2);
        // Fixed-length jobs: utilization stays ρ, and the two capable
        // backends agree with each other.
        for b in &report.backends {
            assert!((b.fractions.active - 0.1).abs() < 0.02, "{:?}", b);
        }
        assert_eq!(report.agreement.len(), 1);
        assert!(
            report.agreement[0].mean_abs_delta_pp < 2.0,
            "{:?}",
            report.agreement[0]
        );
    }

    #[test]
    fn lpl_period_sweep_shows_listen_vs_preamble_tradeoff() {
        // Acceptance criterion: the period sweep is U-shaped — the shortest
        // period loses to idle listening, the longest to transmit
        // preambles, and an interior point wins.
        let mut s = lpl_period_sweep();
        s.cpu = s.cpu.with_replications(2).with_horizon(300.0);
        let report = crate::runner::run_scenario(&s).unwrap();
        let net = report.network.unwrap();
        let power = |n: &str| {
            net.nodes
                .iter()
                .find(|x| x.name == n)
                .unwrap()
                .total_power_mw
        };
        // Left slope: idle listening falls as the period grows.
        assert!(power("p-20ms") > power("p-50ms"), "listen cost slope");
        // Right slope: preamble cost rises with the period.
        assert!(power("p-250ms") < power("p-500ms"), "preamble cost slope");
        assert!(power("p-500ms") < power("p-1s"), "preamble cost slope");
        // Interior optimum: both extremes lose to the middle.
        let best = net
            .nodes
            .iter()
            .min_by(|a, b| a.total_power_mw.total_cmp(&b.total_power_mw))
            .unwrap();
        assert!(
            best.name == "p-50ms" || best.name == "p-100ms",
            "optimum should be interior, got {}",
            best.name
        );
        // The long-period node dies first.
        assert_eq!(net.bottleneck, "p-1s");
        // Duty cycles fall monotonically with the period in the CSV-visible
        // columns: 2.5 ms sample over the period.
        let duty = |n: &str| {
            net.nodes
                .iter()
                .find(|x| x.name == n)
                .unwrap()
                .radio_duty_cycle
        };
        assert!((duty("p-20ms") - 0.125).abs() < 1e-12);
        assert!((duty("p-1s") - 0.0025).abs() < 1e-12);
        for n in &net.nodes {
            assert_eq!(n.radio_spec, "b-mac");
        }
    }

    #[test]
    fn mac_heterogeneous_tree_root_pays_for_the_override() {
        let mut s = mac_heterogeneous_tree();
        s.cpu = s.cpu.with_replications(2).with_horizon(300.0);
        let report = crate::runner::run_scenario(&s).unwrap();
        let net = report.network.unwrap();
        assert_eq!(net.radio, "x-mac");
        let root = net.nodes.iter().find(|n| n.name == "root").unwrap();
        assert_eq!(root.radio_spec, "cc2420-always-on");
        assert_eq!(root.radio_duty_cycle, 1.0);
        // The always-on override dominates the root's budget: its radio
        // out-draws every strobing node — including the mid relays, whose
        // strobed preambles carry three times the root's *own* traffic.
        for other in net.nodes.iter().filter(|n| n.name != "root") {
            assert_eq!(other.radio_spec, "x-mac");
            assert!((other.radio_duty_cycle - 0.01).abs() < 1e-12);
            assert!(root.radio_power_mw > 2.0 * other.radio_power_mw);
        }
        assert_eq!(net.bottleneck, "root");
        assert_eq!(net.bottleneck_relay, "root");
    }

    #[test]
    fn mesh_field_routes_resolve() {
        let mut s = mesh_field();
        s.cpu = s.cpu.with_replications(2).with_horizon(300.0);
        let report = crate::runner::run_scenario(&s).unwrap();
        let net = report.network.unwrap();
        assert_eq!(net.topology, "mesh");
        assert_eq!(net.max_hop_depth, 2);
        let gateway = net.nodes.iter().find(|n| n.name == "gateway").unwrap();
        let west = net.nodes.iter().find(|n| n.name == "west-relay").unwrap();
        // camera: 1.5 ev/s x 2 pkts; samplers: 0.4 + 0.6 pkt/s.
        assert!((gateway.forwarded_rx_pkts_s - 3.0).abs() < 1e-12);
        assert!((west.forwarded_rx_pkts_s - 1.0).abs() < 1e-12);
        assert_eq!(net.bottleneck_relay, "gateway");
    }
}
