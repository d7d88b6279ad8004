//! Golden-file tests pinning the scenario schema.
//!
//! `tests/golden/scenario_v5.json` is the canonical serialized form of a
//! fixed scenario under the current schema. If the byte-match test fails,
//! the on-disk format changed: either revert the accidental change, or —
//! for an intentional format change — bump `wsnem_scenario::SCHEMA_VERSION`,
//! regenerate the golden file (`WSNEM_BLESS=1 cargo test -p wsnem --test
//! golden_schema`) and add a migration note to README.md.
//!
//! `tests/golden/scenario_v1.json` through `scenario_v4.json` are frozen
//! at their original bytes forever: they are the back-compat fixtures
//! proving that files written before the topology extension (v2), before
//! the unified-backend/service extension (v3), before the duty-cycle radio
//! extension (v4) and before the homogeneous node template (v5) keep
//! loading, validating and analyzing unchanged.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem_scenario::{
    builtin, files, runner, FileFormat, Scenario, MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};

const GOLDEN_V1_PATH: &str = "tests/golden/scenario_v1.json";
const GOLDEN_V2_PATH: &str = "tests/golden/scenario_v2.json";
const GOLDEN_V3_PATH: &str = "tests/golden/scenario_v3.json";
const GOLDEN_V4_PATH: &str = "tests/golden/scenario_v4.json";
const GOLDEN_V5_PATH: &str = "tests/golden/scenario_v5.json";

/// The fixed scenario the v1 golden file pins (as written by the v1 code:
/// no `topology` key). Touches every v1 schema section.
fn pinned_scenario_v1() -> Scenario {
    use wsnem::stats::dist::Dist;
    use wsnem_scenario::{
        BackendId, BatterySpec, NetworkSpec, NodeSpec, ProfileSpec, ReportSpec, SweepAxis,
        SweepSpec, WorkloadSpec,
    };

    let mut s = Scenario::paper_template("golden-v1");
    s.schema_version = 1;
    s.description = "fixture covering every schema section".into();
    s.cpu = s.cpu.with_seed(42);
    s.profile = ProfileSpec::Custom {
        name: "golden-cpu".into(),
        standby_mw: 1.5,
        powerup_mw: 20.0,
        idle_mw: 10.0,
        active_mw: 25.0,
    };
    s.battery = BatterySpec::Custom {
        capacity_mah: 1000.0,
        voltage_v: 3.0,
        usable_fraction: 0.9,
    };
    s.workload = Some(WorkloadSpec::BurstyOnOff {
        on: Dist::Deterministic(2.0),
        off: Dist::Exponential { rate: 0.1 },
        rate_on: 5.0,
    });
    // The file names the retired `ErlangPhase` backend in this slot; it
    // loads as its exact replacement, `Mg1`.
    s.backends = vec![
        BackendId::Markov,
        BackendId::Mg1,
        BackendId::PetriNet,
        BackendId::Des,
    ];
    s.report = ReportSpec {
        energy_horizon_s: 2000.0,
        agreement_tolerance_pp: Some(2.5),
    };
    s.sweep = Some(SweepSpec {
        axis: SweepAxis::PowerDownThreshold,
        values: vec![0.1, 0.25, 0.5],
    });
    s.network = Some(NetworkSpec {
        nodes: vec![NodeSpec {
            name: "n0".into(),
            event_rate: 0.5,
            tx_per_event: 1.0,
            rx_rate: 0.25,
            radio: None,
        }],
        topology: None,
        radio: None,
        template: None,
    });
    s
}

/// The fixed scenario the v2 golden file pins: the v1 sections plus the
/// schema v2 addition — a routed topology with static mesh routes. Frozen
/// at schema_version 2 (as written by the v2 code).
fn pinned_scenario_v2() -> Scenario {
    use wsnem_scenario::{NetworkSpec, NodeSpec, RouteSpec, TopologySpec};

    let mut s = pinned_scenario_v1();
    s.schema_version = 2;
    s.name = "golden-v2".into();
    let node = |name: &str, event_rate: f64| NodeSpec {
        name: name.into(),
        event_rate,
        tx_per_event: 1.0,
        rx_rate: 0.0,
        radio: None,
    };
    s.network = Some(NetworkSpec {
        nodes: vec![node("relay", 0.5), node("mid", 0.4), node("leaf", 0.3)],
        topology: Some(TopologySpec::Mesh {
            routes: vec![
                RouteSpec {
                    from: "relay".into(),
                    to: "sink".into(),
                },
                RouteSpec {
                    from: "mid".into(),
                    to: "relay".into(),
                },
                RouteSpec {
                    from: "leaf".into(),
                    to: "mid".into(),
                },
            ],
        }),
        radio: None,
        template: None,
    });
    s
}

/// The fixed scenario the v3 golden file pins: the v2 sections plus the
/// schema v3 addition — a non-exponential service distribution (restricted
/// to the backends whose capabilities support it). Frozen at
/// schema_version 3 (as written by the v3 code).
fn pinned_scenario_v3() -> Scenario {
    use wsnem_scenario::{BackendId, ServiceDist};

    let mut s = pinned_scenario_v2();
    s.schema_version = 3;
    s.name = "golden-v3".into();
    s.service = Some(ServiceDist::Erlang { k: 3 });
    s.backends = vec![BackendId::PetriNet, BackendId::Des];
    s
}

/// The fixed scenario the v4 golden file pins: the v3 sections plus the
/// schema v4 addition — a network-wide duty-cycle MAC with a per-node
/// override. Frozen at schema_version 4 (as written by the v4 code).
fn pinned_scenario_v4() -> Scenario {
    use wsnem_scenario::RadioSpec;

    let mut s = pinned_scenario_v3();
    s.schema_version = 4;
    s.name = "golden-v4".into();
    let net = s.network.as_mut().expect("v3 fixture has a network");
    net.radio = Some(RadioSpec::BMac {
        check_interval_s: 0.1,
        preamble_s: 0.1,
    });
    // The sink-adjacent relay overrides the network MAC: strobed preambles
    // keep its heavy forwarded traffic affordable.
    net.nodes[0].radio = Some(RadioSpec::XMac {
        check_interval_s: 0.1,
        strobe_s: 0.004,
        ack_s: 0.001,
    });
    s
}

/// The fixed scenario the v5 golden file pins: the v4 sections plus the
/// schema v5 addition — a homogeneous node template on a tree topology,
/// the compact form the million-node analytic fast path consumes.
fn pinned_scenario_v5() -> Scenario {
    use wsnem_scenario::{BackendId, NetworkSpec, RadioSpec, TemplateSpec, TopologySpec};

    let mut s = pinned_scenario_v4();
    s.schema_version = SCHEMA_VERSION;
    s.name = "golden-v5".into();
    s.backends = vec![BackendId::Mg1, BackendId::Des];
    s.network = Some(NetworkSpec {
        nodes: Vec::new(),
        topology: Some(TopologySpec::Tree { fanout: 4 }),
        radio: Some(RadioSpec::BMac {
            check_interval_s: 0.1,
            preamble_s: 0.1,
        }),
        template: Some(TemplateSpec {
            count: 5000,
            prefix: "n".into(),
            event_rate: 1e-4,
            tx_per_event: 1.0,
            rx_rate: 0.0,
        }),
    });
    s
}

#[test]
fn schema_version_is_pinned() {
    // Bumping either constant is a format event: regenerate/add golden
    // files and document the migration.
    assert_eq!(SCHEMA_VERSION, 5);
    assert_eq!(MIN_SCHEMA_VERSION, 1);
}

#[test]
fn golden_v5_file_matches_serialization() {
    let scenario = pinned_scenario_v5();
    let serialized = files::to_string(&scenario, FileFormat::Json).unwrap() + "\n";

    if std::env::var_os("WSNEM_BLESS").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_V5_PATH, &serialized).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_V5_PATH)
        .expect("golden file missing — run with WSNEM_BLESS=1 to create it");
    assert_eq!(
        serialized, golden,
        "scenario schema drifted from the v5 golden file; \
         see the module docs for the intended workflow"
    );
}

#[test]
fn golden_v5_file_parses_and_validates() {
    let golden = std::fs::read_to_string(GOLDEN_V5_PATH).expect("golden file present");
    let scenario = files::from_str(&golden, FileFormat::Json).unwrap();
    assert_eq!(scenario, pinned_scenario_v5());
    assert_eq!(scenario.schema_version, SCHEMA_VERSION);
    assert_eq!(
        scenario.network.as_ref().unwrap().node_count(),
        5000,
        "template count is the node count — no per-node specs materialize"
    );
}

/// The v4 golden bytes must keep loading forever — they stand in for every
/// scenario file written before the homogeneous node template.
#[test]
fn golden_v4_file_still_loads_unchanged() {
    let golden = std::fs::read_to_string(GOLDEN_V4_PATH).expect("v4 golden file present");
    assert!(
        !golden.contains("template"),
        "the v4 fixture must stay a genuine v4 file; never regenerate it"
    );
    let scenario = files::from_str(&golden, FileFormat::Json).unwrap();
    assert_eq!(scenario, pinned_scenario_v4());
    assert_eq!(scenario.schema_version, 4);
    // And it still analyzes — per-node mesh path, overridden MAC included.
    let mut quick = scenario;
    quick.cpu = quick.cpu.with_replications(2).with_horizon(300.0);
    quick.backends = vec![wsnem_scenario::BackendId::Markov];
    quick.sweep = None;
    quick.workload = None;
    quick.service = None;
    let report = runner::run_scenario(&quick).unwrap();
    let net = report.network.unwrap();
    assert_eq!(net.topology, "mesh");
    assert_eq!(net.nodes[0].radio_spec, "x-mac");
}

/// The v3 golden bytes must keep loading forever — they stand in for every
/// scenario file written before the duty-cycle radio extension.
#[test]
fn golden_v3_file_still_loads_unchanged() {
    let golden = std::fs::read_to_string(GOLDEN_V3_PATH).expect("v3 golden file present");
    assert!(
        !golden.contains("\"radio\""),
        "the v3 fixture must stay a genuine v3 file; never regenerate it"
    );
    let scenario = files::from_str(&golden, FileFormat::Json).unwrap();
    assert_eq!(scenario, pinned_scenario_v3());
    assert_eq!(scenario.schema_version, 3);
    // And it still analyzes — on the same cc2420-class radio every pre-v4
    // file implied.
    let mut quick = scenario;
    quick.cpu = quick.cpu.with_replications(2).with_horizon(300.0);
    quick.backends = vec![wsnem_scenario::BackendId::Markov];
    quick.sweep = None;
    quick.workload = None;
    quick.service = None;
    let report = runner::run_scenario(&quick).unwrap();
    let net = report.network.unwrap();
    assert_eq!(net.topology, "mesh");
    for node in &net.nodes {
        assert_eq!(node.radio_spec, "cc2420-class");
        assert!((node.radio_duty_cycle - 0.05).abs() < 1e-12);
    }
}

/// The v2 golden bytes must keep loading forever — they stand in for every
/// scenario file written before the unified-backend/service extension.
#[test]
fn golden_v2_file_still_loads_unchanged() {
    let golden = std::fs::read_to_string(GOLDEN_V2_PATH).expect("v2 golden file present");
    assert!(
        !golden.contains("service"),
        "the v2 fixture must stay a genuine v2 file; never regenerate it"
    );
    let scenario = files::from_str(&golden, FileFormat::Json).unwrap();
    assert_eq!(scenario, pinned_scenario_v2());
    assert_eq!(scenario.schema_version, 2);
    // And it still analyzes: same backends, same routed topology semantics.
    let mut quick = scenario;
    quick.cpu = quick.cpu.with_replications(2).with_horizon(300.0);
    quick.backends = vec![wsnem_scenario::BackendId::Markov];
    quick.sweep = None;
    quick.workload = None;
    let report = runner::run_scenario(&quick).unwrap();
    let net = report.network.unwrap();
    assert_eq!(net.topology, "mesh");
    assert_eq!(net.max_hop_depth, 3);
}

/// The v1 golden bytes must keep loading forever — they stand in for every
/// scenario file users wrote before the topology extension.
#[test]
fn golden_v1_file_still_loads_unchanged() {
    let golden = std::fs::read_to_string(GOLDEN_V1_PATH).expect("v1 golden file present");
    assert!(
        !golden.contains("topology"),
        "the v1 fixture must stay a genuine v1 file; never regenerate it"
    );
    let scenario = files::from_str(&golden, FileFormat::Json).unwrap();
    assert_eq!(scenario, pinned_scenario_v1());
    assert_eq!(scenario.schema_version, 1);
    // And the loaded v1 network still analyzes: no topology → star.
    let mut quick = scenario;
    quick.cpu = quick.cpu.with_replications(2).with_horizon(300.0);
    quick.backends = vec![wsnem_scenario::BackendId::Markov];
    quick.sweep = None;
    quick.workload = None;
    let report = runner::run_scenario(&quick).unwrap();
    let net = report.network.unwrap();
    assert_eq!(net.topology, "star");
    assert_eq!(net.max_hop_depth, 1);
}

/// The frozen v1/v2 files name the retired Erlang-phase backend; it loads
/// as `Mg1`, and the report row carries the exact closed form bit for bit.
#[test]
fn golden_v1_v2_erlang_slot_analyzes_as_exact_mg1() {
    use wsnem::core::EvalOptions;
    use wsnem_scenario::{global_registry, BackendId};

    for path in [GOLDEN_V1_PATH, GOLDEN_V2_PATH] {
        let golden = std::fs::read_to_string(path).expect("golden file present");
        let mut quick = files::from_str(&golden, FileFormat::Json).unwrap();
        assert_eq!(quick.backends[1], BackendId::Mg1, "{path}");
        quick.cpu = quick.cpu.with_replications(2).with_horizon(300.0);
        quick.sweep = None;
        let report = runner::run_scenario(&quick).unwrap();
        let row = report
            .backends
            .iter()
            .find(|b| b.backend == BackendId::Mg1)
            .expect("an Mg1 row");
        let exact = global_registry()
            .solve(BackendId::Mg1, &quick.cpu, &EvalOptions::default())
            .unwrap();
        assert_eq!(row.fractions, exact.fractions, "{path}");
    }
}

#[test]
fn newer_schema_versions_are_rejected_not_misread() {
    let golden = std::fs::read_to_string(GOLDEN_V5_PATH).expect("golden file present");
    let future = SCHEMA_VERSION + 1;
    let bumped = golden.replacen(
        &format!("\"schema_version\": {SCHEMA_VERSION}"),
        &format!("\"schema_version\": {future}"),
        1,
    );
    assert_ne!(golden, bumped, "fixture must contain the version field");
    let err = files::from_str(&bumped, FileFormat::Json).unwrap_err();
    assert!(
        err.to_string()
            .contains(&format!("schema version {future}")),
        "unexpected error: {err}"
    );
}

/// v1 → v2 compatibility: every builtin that uses no v2-only feature, when
/// rewritten as a v1 file, loads and analyzes to *identical* results —
/// replication streams included.
#[test]
fn v1_builtins_round_trip_and_analyze_identically() {
    let mut checked = 0;
    for scenario in builtin::all() {
        if scenario
            .network
            .as_ref()
            .is_some_and(|n| n.topology.is_some())
        {
            continue; // v2-only feature; cannot be expressed as v1
        }
        if scenario.service.is_some() {
            continue; // v3-only feature; cannot be expressed as v1
        }
        if scenario
            .network
            .as_ref()
            .is_some_and(|n| n.radio.is_some() || n.nodes.iter().any(|node| node.radio.is_some()))
        {
            continue; // v4-only feature; cannot be expressed as v1
        }
        if scenario
            .network
            .as_ref()
            .is_some_and(|n| n.template.is_some())
        {
            continue; // v5-only feature; cannot be expressed as v1
        }
        let mut quick = scenario;
        quick.cpu = quick
            .cpu
            .with_replications(2)
            .with_horizon(300.0)
            .with_warmup(quick.cpu.warmup.min(30.0));
        if let Some(sweep) = &mut quick.sweep {
            sweep.values.truncate(2);
        }

        let mut v1 = quick.clone();
        v1.schema_version = 1;
        for format in [FileFormat::Json, FileFormat::Toml] {
            let text = files::to_string(&v1, format).unwrap();
            let loaded = files::from_str(&text, format)
                .unwrap_or_else(|e| panic!("{} as v1 {format:?}: {e}\n{text}", v1.name));
            assert_eq!(loaded, v1, "{} via {format:?}", v1.name);
        }

        let v2_report = runner::run_scenario(&quick).unwrap();
        let v1_report = runner::run_scenario(&v1).unwrap();
        assert_eq!(v1_report.schema_version, 1);
        for (a, b) in v2_report.backends.iter().zip(&v1_report.backends) {
            assert_eq!(a.backend, b.backend, "{}", quick.name);
            assert_eq!(a.fractions, b.fractions, "{}", quick.name);
            assert_eq!(a.energy, b.energy, "{}", quick.name);
            assert_eq!(
                a.battery_lifetime_days, b.battery_lifetime_days,
                "{}",
                quick.name
            );
        }
        match (&v2_report.network, &v1_report.network) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.nodes, b.nodes, "{}", quick.name);
                assert_eq!(a.first_death_days, b.first_death_days, "{}", quick.name);
                assert_eq!(a.bottleneck, b.bottleneck, "{}", quick.name);
            }
            _ => panic!("{}: network sections differ", quick.name),
        }
        checked += 1;
    }
    assert!(checked >= 5, "expected most builtins to be v1-expressible");
}
