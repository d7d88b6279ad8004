//! Serde round-trip guarantees for the scenario subsystem and the types it
//! serializes: anything a user can put in a scenario file must survive
//! serialize → deserialize → re-serialize unchanged, in both JSON and TOML,
//! and a user-authored file must load and run through all three backends.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::core::CpuModelParams;
use wsnem::petri::{NetBuilder, NetSpec, TransitionKind};
use wsnem::stats::dist::Dist;
use wsnem::stats::rng::{Rng64, StreamFactory};
use wsnem_scenario::{builtin, files, runner, BackendId, FileFormat, Scenario};

fn uniform<R: Rng64>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Random-but-valid CPU parameters survive JSON and TOML round-trips
/// bit-exactly (shortest-round-trip float formatting end to end).
#[test]
fn cpu_params_round_trip_property() {
    let factory = StreamFactory::new(0x5CE_A101);
    for i in 0..64 {
        let mut rng = factory.stream(i);
        let lambda = uniform(&mut rng, 0.01, 5.0);
        let p = CpuModelParams::paper_defaults()
            .with_lambda(lambda)
            .with_mu(lambda / uniform(&mut rng, 0.02, 0.95))
            .with_power_down_threshold(uniform(&mut rng, 0.0, 3.0))
            .with_power_up_delay(uniform(&mut rng, 0.0, 2.0))
            .with_horizon(uniform(&mut rng, 10.0, 10_000.0))
            .with_replications(1 + rng.next_bounded(64) as usize)
            .with_seed(rng.next_u64());

        let json = serde_json::to_string(&p).unwrap();
        let back: CpuModelParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p, "case {i} JSON: {json}");
        assert_eq!(serde_json::to_string(&back).unwrap(), json, "case {i}");

        let toml_text = toml::to_string(&p).unwrap();
        let back: CpuModelParams = toml::from_str(&toml_text).unwrap();
        assert_eq!(back, p, "case {i} TOML:\n{toml_text}");
        assert_eq!(toml::to_string(&back).unwrap(), toml_text, "case {i}");
    }
}

/// Randomly generated Petri nets survive NetSpec JSON round-trips and
/// rebuild to an identical net.
#[test]
fn petri_net_spec_round_trip_property() {
    let factory = StreamFactory::new(0x9E7_0002);
    for i in 0..48 {
        let mut rng = factory.stream(i);
        let n_places = 2 + rng.next_bounded(5) as usize;
        let mut b = NetBuilder::new();
        let places: Vec<_> = (0..n_places)
            .map(|p| b.place(format!("p{p}"), rng.next_bounded(5) as u32))
            .collect();
        let n_trans = 1 + rng.next_bounded(5) as usize;
        for t in 0..n_trans {
            let kind = match rng.next_bounded(4) {
                0 => TransitionKind::Immediate {
                    priority: 1 + rng.next_bounded(3) as u8,
                    weight: uniform(&mut rng, 0.5, 4.0),
                },
                1 => TransitionKind::exponential(uniform(&mut rng, 0.1, 8.0)),
                2 => TransitionKind::deterministic(uniform(&mut rng, 0.01, 2.0)),
                _ => TransitionKind::timed(Dist::Erlang {
                    k: 1 + rng.next_bounded(4) as u32,
                    rate: uniform(&mut rng, 0.5, 6.0),
                }),
            };
            let tid = b.transition(format!("t{t}"), kind);
            let inp = rng.next_bounded(n_places as u64) as usize;
            b.input_arc(places[inp], tid, 1 + rng.next_bounded(2) as u32);
            let out = rng.next_bounded(n_places as u64) as usize;
            b.output_arc(tid, places[out], 1 + rng.next_bounded(2) as u32);
            if rng.next_bool(0.4) {
                let inh = rng.next_bounded(n_places as u64) as usize;
                if inh != inp {
                    b.inhibitor_arc(places[inh], tid, 1 + rng.next_bounded(3) as u32);
                }
            }
        }
        let net = b.build().expect("generated net is valid");

        let spec = net.to_spec();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: NetSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec, "case {i}");
        assert_eq!(back.build().unwrap(), net, "case {i}: rebuilt net differs");
        assert_eq!(
            serde_json::to_string_pretty(&back).unwrap(),
            json,
            "case {i}: re-serialization not stable"
        );
    }
}

/// Every built-in scenario survives serialize → deserialize → re-serialize
/// unchanged, in both formats.
#[test]
fn builtin_scenarios_round_trip_stably() {
    for scenario in builtin::all() {
        for format in [FileFormat::Json, FileFormat::Toml] {
            let text1 = files::to_string(&scenario, format).unwrap();
            let back = files::from_str(&text1, format)
                .unwrap_or_else(|e| panic!("{} ({format:?}): {e}\n{text1}", scenario.name));
            assert_eq!(back, scenario, "{} via {format:?}", scenario.name);
            let text2 = files::to_string(&back, format).unwrap();
            assert_eq!(text1, text2, "{} via {format:?}: unstable", scenario.name);
        }
    }
}

/// The acceptance-criteria scenario: a user-authored TOML file (written the
/// way a human would write it, not machine-exported) loads and runs through
/// all three backends; the same scenario authored as JSON produces the same
/// report.
#[test]
fn user_authored_scenario_runs_all_three_backends() {
    let toml_text = r#"
schema_version = 1
name = "my-experiment"
description = "hand-written scenario exercising all three backends"
profile = "Pxa271"
battery = "TwoAa"
backends = ["Markov", "PetriNet", "Des"]

[cpu]
lambda = 0.8
mu = 8.0
power_down_threshold = 0.3
power_up_delay = 0.002
horizon = 500.0
warmup = 50.0
replications = 3
master_seed = 7

[report]
energy_horizon_s = 1000.0
agreement_tolerance_pp = 3.0
"#;
    let scenario: Scenario = files::from_str(toml_text, FileFormat::Toml).unwrap();
    assert_eq!(scenario.name, "my-experiment");
    let report = runner::run_scenario(&scenario).unwrap();
    assert_eq!(report.backends.len(), 3);
    let kinds: Vec<BackendId> = report.backends.iter().map(|b| b.backend).collect();
    assert_eq!(
        kinds,
        vec![BackendId::Markov, BackendId::PetriNet, BackendId::Des]
    );
    for b in &report.backends {
        assert!(b.fractions.is_normalized(1e-6), "{:?}", b.fractions);
        assert!(b.energy.total_mj > 0.0);
        assert!(b.battery_lifetime_days > 0.0);
    }
    for a in &report.agreement {
        assert_eq!(a.within_tolerance, Some(true), "{a:?}");
    }

    // The same scenario as JSON gives the same report (identical seeds).
    let json_text = serde_json::to_string(&scenario).unwrap();
    let from_json: Scenario = files::from_str(&json_text, FileFormat::Json).unwrap();
    assert_eq!(from_json, scenario);
    let report2 = runner::run_scenario(&from_json).unwrap();
    // Identical seeds → identical numbers (only wall-clock timings differ).
    for (a, b) in report.backends.iter().zip(&report2.backends) {
        assert_eq!(a.backend, b.backend);
        assert_eq!(a.fractions, b.fractions);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.battery_lifetime_days, b.battery_lifetime_days);
    }
}

/// Reports themselves round-trip through JSON — a consumer can parse
/// `wsnem run --format json` output back into typed reports.
#[test]
fn reports_round_trip_through_json() {
    let mut scenario = builtin::find("paper-defaults").unwrap();
    scenario.cpu = scenario.cpu.with_replications(2).with_horizon(200.0);
    let report = runner::run_scenario(&scenario).unwrap();
    let json = serde_json::to_string_pretty(&report).unwrap();
    let back: wsnem_scenario::ScenarioReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}
