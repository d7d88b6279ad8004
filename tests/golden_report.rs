//! Golden-file tests pinning the aggregate report format, and the per-node
//! network reports of the explicit-network built-ins
//! (`tests/golden/report_network_nodes.txt`).
//!
//! Large-network (template or >1000-node) scenarios report in aggregate
//! form — no per-node rows, a histogram/percentile/cohort digest instead.
//! `tests/golden/report_aggregate_v1.json` pins the serialized shape and
//! `tests/golden/report_aggregate_summary.txt` pins the rendered summary,
//! so downstream consumers of `wsnem run --format json` can rely on the
//! field set. The fixture is fully deterministic: the Mg1 backend is
//! closed-form, and the wall-clock fields are normalized to zero before
//! comparison. Regenerate intentionally with `WSNEM_BLESS=1 cargo test -p
//! wsnem --test golden_report`.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem_scenario::{
    runner, BackendId, NetworkSpec, PhaseSeconds, Scenario, ScenarioReport, TemplateSpec,
    TopologySpec,
};

const GOLDEN_JSON_PATH: &str = "tests/golden/report_aggregate_v1.json";
const GOLDEN_SUMMARY_PATH: &str = "tests/golden/report_aggregate_summary.txt";

/// A 50-node template tree on the analytic backend: big enough to exercise
/// depth percentiles, the histogram and the worst-10 cohort, small enough
/// to keep the fixture readable.
fn pinned_scenario() -> Scenario {
    let mut s = Scenario::paper_template("golden-aggregate");
    s.description = "aggregate report format fixture".into();
    s.backends = vec![BackendId::Mg1];
    s.network = Some(NetworkSpec {
        nodes: Vec::new(),
        topology: Some(TopologySpec::Tree { fanout: 3 }),
        radio: None,
        template: Some(TemplateSpec {
            count: 50,
            prefix: "n".into(),
            event_rate: 0.01,
            tx_per_event: 1.0,
            rx_rate: 0.05,
        }),
    });
    s
}

/// Run the pinned scenario and zero every wall-clock field — the only
/// nondeterministic bytes in an analytic report.
fn pinned_report() -> ScenarioReport {
    let mut report = runner::run_scenario(&pinned_scenario()).unwrap();
    report.phase_seconds = PhaseSeconds::default();
    report.elapsed_seconds = 0.0;
    for backend in &mut report.backends {
        backend.eval_seconds = 0.0;
    }
    report
}

#[test]
fn aggregate_report_json_matches_golden() {
    let report = pinned_report();
    assert!(
        report.network.is_none(),
        "template scenarios never report per node"
    );
    let aggregate = report.network_aggregate.as_ref().unwrap();
    assert_eq!(aggregate.node_count, 50);
    let serialized = serde_json::to_string_pretty(&report).unwrap() + "\n";

    if std::env::var_os("WSNEM_BLESS").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_JSON_PATH, &serialized).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_JSON_PATH)
        .expect("golden file missing — run with WSNEM_BLESS=1 to create it");
    assert_eq!(
        serialized, golden,
        "aggregate report format drifted from the golden file; \
         see the module docs for the intended workflow"
    );
}

#[test]
fn aggregate_report_round_trips_through_json() {
    let golden = std::fs::read_to_string(GOLDEN_JSON_PATH).expect("golden file present");
    let loaded: ScenarioReport = serde_json::from_str(&golden).unwrap();
    assert_eq!(loaded, pinned_report());
    // The aggregate block carries the digest the summary renders from.
    let aggregate = loaded.network_aggregate.clone().unwrap();
    assert_eq!(aggregate.backend, BackendId::Mg1);
    assert_eq!(aggregate.topology, "tree");
    assert_eq!(aggregate.hop_depth_percentiles.len(), 4);
    assert_eq!(
        aggregate
            .lifetime_histogram
            .iter()
            .map(|b| b.count)
            .sum::<u64>(),
        50
    );
    assert_eq!(aggregate.worst_lifetime_cohort.len(), 10);
    // Aggregate reports contribute no per-node CSV rows.
    assert_eq!(loaded.csv_rows().len(), 1);
}

#[test]
fn aggregate_summary_matches_golden() {
    let summary = pinned_report().summary();

    if std::env::var_os("WSNEM_BLESS").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_SUMMARY_PATH, &summary).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_SUMMARY_PATH)
        .expect("golden file missing — run with WSNEM_BLESS=1 to create it");
    assert_eq!(
        summary, golden,
        "rendered aggregate summary drifted from the golden file"
    );
    for marker in [
        "(aggregate)",
        "hop depth: p50",
        "lifetime histogram",
        "worst 10 node(s)",
    ] {
        assert!(golden.contains(marker), "summary golden lost `{marker}`");
    }
}

const GOLDEN_NETWORK_PATH: &str = "tests/golden/report_network_nodes.txt";

/// Every built-in with an explicit node list: stars, chains, trees and
/// meshes, with and without per-node radio overrides.
const EXPLICIT_NETWORK_BUILTINS: [&str; 6] = [
    "heterogeneous-star",
    "tree-collection",
    "chain-3hop",
    "mesh-field",
    "lpl-period-sweep",
    "mac-heterogeneous-tree",
];

/// The `network` section (pretty JSON) and the CSV node rows of each
/// explicit-network built-in, one block per scenario.
///
/// The network section runs on the cheapest requested backend, which is
/// Markov in every one of these built-ins, so the scenario is cut down to
/// Markov alone: the per-node numbers are unchanged and no simulator runs.
fn network_nodes_text() -> String {
    let mut text = String::new();
    for name in EXPLICIT_NETWORK_BUILTINS {
        let mut s = wsnem_scenario::builtin::find(name).unwrap();
        assert!(s.backends.contains(&BackendId::Markov), "{name}");
        s.backends = vec![BackendId::Markov];
        let mut report = runner::run_scenario(&s).unwrap();
        report.elapsed_seconds = 0.0;
        let network = report
            .network
            .as_ref()
            .expect("explicit networks report per node");
        assert_eq!(network.backend, BackendId::Markov, "{name}");
        text.push_str(&format!("## {name}\n"));
        text.push_str(&serde_json::to_string_pretty(network).unwrap());
        text.push('\n');
        let rows = report.csv_rows();
        for row in &rows[report.backends.len()..] {
            text.push_str(row);
            text.push('\n');
        }
    }
    text
}

#[test]
fn explicit_network_reports_match_golden() {
    let text = network_nodes_text();

    if std::env::var_os("WSNEM_BLESS").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_NETWORK_PATH, &text).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_NETWORK_PATH)
        .expect("golden file missing — run with WSNEM_BLESS=1 to create it");
    assert_eq!(
        text, golden,
        "per-node network report drifted from the golden file"
    );
}

const MEGA_GOLDEN_PATH: &str = "tests/golden/mega_tree_aggregate.json";

/// The `mega.toml` that CI's million-node release smoke writes, read from
/// its heredoc in the workflow so the two cannot drift apart.
fn ci_mega_toml() -> String {
    let ci = std::fs::read_to_string(".github/workflows/ci.yml").unwrap();
    let open = "cat > mega.toml <<'EOF'\n";
    let body = &ci[ci.find(open).expect("CI writes mega.toml") + open.len()..];
    let body = &body[..body.find("\n          EOF\n").expect("heredoc end")];
    body.lines()
        .map(|line| line.strip_prefix("          ").unwrap_or(line))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The 10^6-node fanout-4 template tree of CI's release smoke: its
/// `network_aggregate` must equal the golden one, compared as parsed JSON
/// like CI does. The writer prints each f64 in its shortest round-trip
/// form, so equal values mean bit-equal numbers.
#[test]
fn million_node_tree_aggregate_matches_golden() {
    let toml = ci_mega_toml();
    let scenario = wsnem_scenario::files::from_str(&toml, wsnem_scenario::FileFormat::Toml)
        .unwrap_or_else(|e| panic!("CI's mega.toml: {e}\n{toml}"));
    let report = runner::run_scenario(&scenario).unwrap();
    let aggregate = report.network_aggregate.as_ref().unwrap();
    assert_eq!(aggregate.node_count, 1_000_000);
    let got = serde_json::to_value(aggregate).unwrap();
    let golden = std::fs::read_to_string(MEGA_GOLDEN_PATH).unwrap();
    let want: serde_json::Value = serde_json::from_str(&golden).unwrap();
    assert_eq!(
        got, want,
        "network_aggregate differs from {MEGA_GOLDEN_PATH}"
    );
}
