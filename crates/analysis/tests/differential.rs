//! `validate` and `check` read one rule set: on every builtin and golden
//! scenario, and on seeded, structure-aware mutations of each, a scenario
//! fails `Scenario::validate_with` exactly when `check_scenario` reports an
//! error, and with the code of the first one.

#![allow(clippy::disallowed_methods)] // tests may panic on broken invariants
use wsnem_analysis::{check_scenario, CheckOptions, Diagnostic, Severity};
use wsnem_core::{
    BackendId, BackendRegistry, DesSolver, MarkovSolver, Mg1Solver, PetriSolver, ServiceDist,
};
use wsnem_scenario::files::{self, FileFormat};
use wsnem_scenario::{
    BatterySpec, Scenario, ScenarioError, SweepAxis, TopologySpec, SCHEMA_VERSION,
};
use wsnem_stats::dist::Dist;
use wsnem_stats::rng::{Rng64, SplitMix64};
use wsnem_stats::Sample;

const GOLDEN: [&str; 5] = [
    "scenario_v1.json",
    "scenario_v2.json",
    "scenario_v3.json",
    "scenario_v4.json",
    "scenario_v5.json",
];

fn read(path: &str) -> String {
    let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every builtin and every golden scenario file.
fn bases() -> Vec<Scenario> {
    let mut out = wsnem_scenario::builtin::all();
    for name in GOLDEN {
        let text = read(&format!("../../tests/golden/{name}"));
        out.push(files::parse_str(&text, FileFormat::Json).expect("golden parses"));
    }
    out
}

/// A registry of every built-in solver except `missing`.
fn registry_without(missing: BackendId) -> BackendRegistry {
    let mut r = BackendRegistry::new();
    let solvers: [Box<dyn wsnem_core::CpuSolver>; 4] = [
        Box::new(MarkovSolver),
        Box::new(Mg1Solver),
        Box::new(PetriSolver),
        Box::new(DesSolver),
    ];
    for solver in solvers {
        if solver.id() != missing {
            r.register(solver);
        }
    }
    r
}

/// The code `validate` fails with, if it fails.
fn validate_code(s: &Scenario, registry: &BackendRegistry) -> Option<&'static str> {
    match s.validate_with(registry) {
        Ok(()) => None,
        Err(ScenarioError::UnsupportedVersion { .. }) => Some("E002"),
        Err(ScenarioError::Invalid(d)) => Some(d.code),
        Err(other) => panic!("{}: unexpected error kind: {other}", s.name),
    }
}

/// Assert that `validate` and `check` agree on `s`; return check's errors.
fn agree(label: &str, s: &Scenario, registry: &BackendRegistry) -> Vec<Diagnostic> {
    let errors: Vec<Diagnostic> = check_scenario(s, registry, CheckOptions::default())
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    let validated = validate_code(s, registry);
    assert_eq!(
        validated,
        errors.first().map(|d| d.code),
        "{label}: validate says {validated:?}, check says {errors:#?}"
    );
    errors
}

/// A seeded draw in `[lo, hi)`.
fn draw(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Structure-aware edits of `base`, each labelled, with the code it must
/// raise when it targets one rule (`None` for edits that may stay valid).
fn mutants(base: &Scenario, rng: &mut SplitMix64) -> Vec<(String, Scenario, Option<&'static str>)> {
    let mut out = Vec::new();
    let mut edit = |what: &str, code: Option<&'static str>, f: &mut dyn FnMut(&mut Scenario)| {
        let mut s = base.clone();
        f(&mut s);
        if s != *base {
            out.push((format!("{} / {what}", base.name), s, code));
        }
    };
    // Fields out of range.
    let mu = -draw(rng, 0.0, 10.0);
    edit("cpu.mu < 0", Some("E004"), &mut |s| s.cpu.mu = mu);
    edit("cpu.horizon = 0", Some("E004"), &mut |s| {
        s.cpu.horizon = 0.0
    });
    edit("cpu.warmup = horizon", Some("E004"), &mut |s| {
        s.cpu.warmup = s.cpu.horizon
    });
    edit("cpu.replications = 0", Some("E004"), &mut |s| {
        s.cpu.replications = 0
    });
    let t = -draw(rng, 0.0, 1.0);
    edit("cpu.power_down_threshold < 0", Some("E004"), &mut |s| {
        s.cpu.power_down_threshold = t
    });
    edit("report.energy_horizon_s = 0", Some("E004"), &mut |s| {
        s.report.energy_horizon_s = 0.0
    });
    let usable = draw(rng, 1.01, 2.0);
    edit("battery usable_fraction > 1", Some("E004"), &mut |s| {
        s.battery = BatterySpec::Custom {
            capacity_mah: 2000.0,
            voltage_v: 3.0,
            usable_fraction: usable,
        }
    });
    let pick = rng.next_u64() as usize;
    edit("a node rate < 0", Some("E004"), &mut |s| {
        if let Some(net) = s.network.as_mut().filter(|n| !n.nodes.is_empty()) {
            let i = pick % net.nodes.len();
            net.nodes[i].event_rate = -1.0;
        }
    });
    edit("sweep value NaN", Some("E004"), &mut |s| {
        if let Some(sweep) = s.sweep.as_mut() {
            let i = pick % sweep.values.len().max(1);
            if let Some(v) = sweep.values.get_mut(i) {
                *v = f64::NAN;
            }
        }
    });
    edit("template count 0", Some("E004"), &mut |s| {
        if let Some(t) = s.network.as_mut().and_then(|n| n.template.as_mut()) {
            t.count = 0;
        }
    });
    edit("template count past u32", Some("E004"), &mut |s| {
        if let Some(t) = s.network.as_mut().and_then(|n| n.template.as_mut()) {
            t.count = u64::from(u32::MAX) + 2;
        }
    });
    // Dropped sections: required ones empty, optional ones gone.
    edit("no backends", Some("E004"), &mut |s| s.backends.clear());
    edit("no sweep values", Some("E004"), &mut |s| {
        if let Some(sweep) = s.sweep.as_mut() {
            sweep.values.clear()
        }
    });
    edit("no nodes", Some("E004"), &mut |s| {
        if let Some(net) = s.network.as_mut().filter(|n| n.template.is_none()) {
            net.nodes.clear()
        }
    });
    edit("no network", None, &mut |s| s.network = None);
    edit("no service", None, &mut |s| s.service = None);
    edit("no workload", None, &mut |s| s.workload = None);
    edit("no topology", None, &mut |s| {
        if let Some(net) = s.network.as_mut() {
            net.topology = None
        }
    });
    // Schema versions: from the future, and from before a feature.
    let ahead = 1 + (rng.next_u64() % 5) as u32;
    edit("schema version raised", Some("E002"), &mut |s| {
        s.schema_version = SCHEMA_VERSION + ahead
    });
    edit("schema version 1", None, &mut |s| s.schema_version = 1);
    // A non-exponential law on an analytic backend.
    edit("deterministic service on Markov", Some("E006"), &mut |s| {
        s.service = Some(ServiceDist::Deterministic);
        s.backends = vec![BackendId::Markov, BackendId::Des];
    });
    // Arrival rates past 1/E[S], and past mu under a faster general law.
    let k = draw(rng, 1.0, 3.0);
    edit("lambda past 1/E[S]", Some("E005"), &mut |s| {
        let mean = s
            .service
            .map_or(1.0 / s.cpu.mu, |sv| sv.to_dist(s.cpu.mu).mean());
        s.cpu.lambda = k / mean;
        s.sweep = None;
        s.workload = None;
    });
    edit(
        "lambda past mu, general law 10x faster",
        Some("E005"),
        &mut |s| {
            s.service = Some(ServiceDist::General {
                dist: Dist::Exponential {
                    rate: 10.0 * s.cpu.mu,
                },
            });
            s.backends = vec![BackendId::Mg1, BackendId::Des];
            s.cpu.lambda = k * s.cpu.mu;
            s.sweep = None;
            s.workload = None;
        },
    );
    edit("lambda sweep past mu", Some("E005"), &mut |s| {
        s.sweep = Some(wsnem_scenario::SweepSpec {
            axis: SweepAxis::Lambda,
            values: vec![0.5 * s.cpu.lambda, k * s.cpu.mu],
        });
        s.workload = None;
    });
    edit("node rates past mu", Some("E005"), &mut |s| {
        if let Some(net) = s.network.as_mut().filter(|n| n.template.is_none()) {
            for node in &mut net.nodes {
                node.event_rate = k * s.cpu.mu;
            }
        }
    });
    edit("template rate past mu", Some("E005"), &mut |s| {
        let mu = s.cpu.mu;
        if let Some(t) = s.network.as_mut().and_then(|n| n.template.as_mut()) {
            t.event_rate = k * mu;
        }
    });
    out
}

/// Three cases two rule sets could judge apart: a slow general service
/// law (λ·E[S] = 2), a fast one with λ/μ = 1.2, and a template root
/// forwarding past μ.
fn probes() -> Vec<(String, Scenario, Option<&'static str>)> {
    let parse = |name: &str| {
        let text = read(&format!("../cli/tests/fixtures/{name}"));
        files::parse_str(&text, FileFormat::Toml).expect("fixture parses")
    };
    let general = parse("general-law-unstable.toml");
    let mut fast = general.clone();
    fast.name = "general-law-fast".into();
    fast.cpu.lambda = 12.0;
    fast.service = Some(ServiceDist::General {
        dist: Dist::Exponential { rate: 100.0 },
    });
    let root = parse("template-root-unstable.toml");
    assert_eq!(
        root.network.as_ref().and_then(|n| n.topology.clone()),
        Some(TopologySpec::Tree { fanout: 4 })
    );
    [general, fast, root]
        .into_iter()
        .map(|s| (format!("probe {}", s.name), s, Some("E005")))
        .collect()
}

#[test]
fn validate_fails_exactly_when_check_reports_an_error_with_its_code() {
    let global = wsnem_scenario::global_registry();
    let mut rng = SplitMix64::new(0x5eed_da7a);
    let mut cases = probes();
    for base in bases() {
        assert!(agree(&base.name, &base, global).is_empty(), "{}", base.name);
        cases.extend(mutants(&base, &mut rng));
    }
    let mut invalid = 0usize;
    for (label, s, code) in &cases {
        let errors = agree(label, s, global);
        if let Some(code) = code {
            assert!(
                errors.iter().any(|d| d.code == *code),
                "{label}: expected {code}, got {errors:#?}"
            );
        }
        invalid += usize::from(!errors.is_empty());
        // An unknown backend: a registry without the scenario's first one.
        if let Some(&first) = s.backends.first() {
            let registry = registry_without(first);
            let errors = agree(&format!("{label} / without {first}"), s, &registry);
            assert!(
                errors.iter().any(|d| d.code == "E003"),
                "{label}: {errors:#?}"
            );
        }
    }
    assert!(cases.len() > 200, "only {} mutants", cases.len());
    assert!(
        invalid > cases.len() / 2,
        "{invalid} of {} invalid",
        cases.len()
    );
}
