//! End-to-end tests of the `wsnem` binary: multi-hop CSV columns, RFC 4180
//! quoting, the `topology` inspector, and the non-zero exit paths for
//! invalid (cyclic / orphaned) topologies.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use std::path::PathBuf;
use std::process::{Command, Output};

fn wsnem(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wsnem"))
        .args(args)
        .output()
        .expect("spawn wsnem")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_file(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("wsnem-cli-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

/// Split one CSV record into fields, honoring RFC 4180 quoting.
fn csv_fields(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut inside = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if inside && chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            '"' => inside = !inside,
            ',' if !inside => fields.push(std::mem::take(&mut cur)),
            other => cur.push(other),
        }
    }
    fields.push(cur);
    fields
}

#[test]
fn tree_builtin_csv_has_topology_columns() {
    let out = wsnem(&[
        "run",
        "--builtin",
        "tree-collection",
        "--quick",
        "--format",
        "csv",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let mut lines = text.lines();
    let header: Vec<String> = csv_fields(lines.next().expect("header"));
    for col in [
        "node",
        "hop_depth",
        "forwarded_rx_pkts_s",
        "is_bottleneck_relay",
    ] {
        assert!(
            header.iter().any(|h| h.trim() == col),
            "missing column `{col}` in {header:?}"
        );
    }
    let node_col = header.iter().position(|h| h.trim() == "node").unwrap();
    let depth_col = header.iter().position(|h| h.trim() == "hop_depth").unwrap();
    let relay_col = header
        .iter()
        .position(|h| h.trim() == "is_bottleneck_relay")
        .unwrap();
    let rows: Vec<Vec<String>> = lines.map(csv_fields).collect();
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), header.len(), "row {i} column count: {row:?}");
    }
    let node_rows: Vec<&Vec<String>> = rows.iter().filter(|r| !r[node_col].is_empty()).collect();
    assert_eq!(node_rows.len(), 7, "one CSV row per tree node");
    let root = node_rows.iter().find(|r| r[node_col] == "root").unwrap();
    assert_eq!(root[depth_col], "1");
    assert_eq!(root[relay_col], "true");
    let leaf = node_rows.iter().find(|r| r[node_col] == "leaf-3").unwrap();
    assert_eq!(leaf[depth_col], "3");
    assert_eq!(leaf[relay_col], "false");
}

#[test]
fn csv_quoting_survives_comma_in_scenario_and_node_names() {
    let scenario = r#"
schema_version = 2
name = "field, north"
description = "comma-named scenario"
profile = "Pxa271"
battery = "TwoAa"
backends = ["Markov"]

[cpu]
lambda = 0.5
mu = 10.0
power_down_threshold = 0.5
power_up_delay = 0.001
horizon = 300.0
warmup = 0.0
replications = 2
master_seed = 7

[report]
energy_horizon_s = 1000.0

[[network.nodes]]
name = "relay, east"
event_rate = 0.5
tx_per_event = 1.0
rx_rate = 0.0

[[network.nodes]]
name = "leaf"
event_rate = 0.5
tx_per_event = 1.0
rx_rate = 0.0

[network.topology]
Chain = {}
"#;
    let path = temp_file("comma.toml", scenario);
    let out = wsnem(&["run", path.to_str().unwrap(), "--format", "csv"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let header_cols = csv_fields(text.lines().next().unwrap()).len();
    for line in text.lines().skip(1) {
        let fields = csv_fields(line);
        assert_eq!(fields.len(), header_cols, "mis-quoted row: {line}");
        assert_eq!(fields[0], "field, north", "scenario name field: {line}");
    }
    assert!(
        text.contains("\"field, north\""),
        "scenario name must be quoted: {text}"
    );
    assert!(
        text.contains("\"relay, east\""),
        "node name must be quoted: {text}"
    );
}

#[test]
fn topology_subcommand_prints_routing_table() {
    let out = wsnem(&["topology", "--builtin", "tree-collection"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("tree topology"), "{text}");
    assert!(text.contains("max depth 3"), "{text}");
    // Load-ranked (this inspector runs no model — the lifetime-ranked
    // bottleneck relay is `wsnem run`'s job).
    assert!(text.contains("heaviest relay: `root`"), "{text}");
    assert!(text.contains("(sink)"), "{text}");
    assert!(text.contains("radio (duty)"), "{text}");
    assert!(text.contains("cc2420-class (5.00%)"), "{text}");
}

fn mesh_scenario_with_routes(routes: &str) -> String {
    format!(
        r#"
schema_version = 2
name = "bad-topo"
description = "invalid routing"
profile = "Pxa271"
battery = "TwoAa"
backends = ["Markov"]

[cpu]
lambda = 0.5
mu = 10.0
power_down_threshold = 0.5
power_up_delay = 0.001
horizon = 300.0
warmup = 0.0
replications = 2
master_seed = 7

[report]
energy_horizon_s = 1000.0

[[network.nodes]]
name = "a"
event_rate = 0.5
tx_per_event = 1.0
rx_rate = 0.0

[[network.nodes]]
name = "b"
event_rate = 0.5
tx_per_event = 1.0
rx_rate = 0.0

{routes}
"#
    )
}

#[test]
fn cyclic_topology_fails_with_nonzero_exit() {
    let path = temp_file(
        "cycle.toml",
        &mesh_scenario_with_routes(
            r#"
[network.topology.Mesh]
routes = [
    {from = "a", to = "b"},
    {from = "b", to = "a"},
]
"#,
        ),
    );
    let out = wsnem(&["run", path.to_str().unwrap()]);
    assert!(!out.status.success(), "a routing cycle must fail the run");
    assert!(stderr(&out).contains("cycle"), "stderr: {}", stderr(&out));

    let out = wsnem(&["topology", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cycle"), "stderr: {}", stderr(&out));
}

#[test]
fn orphan_topology_fails_with_nonzero_exit() {
    let path = temp_file(
        "orphan.toml",
        &mesh_scenario_with_routes(
            r#"
[network.topology.Mesh]
routes = [
    {from = "a", to = "sink"},
]
"#,
        ),
    );
    for subcommand in ["run", "validate", "topology"] {
        let out = wsnem(&[subcommand, path.to_str().unwrap()]);
        assert!(
            !out.status.success(),
            "{subcommand}: an orphan node must fail"
        );
        let all = format!("{}{}", stdout(&out), stderr(&out));
        assert!(all.contains("orphan"), "{subcommand}: {all}");
    }
}

#[test]
fn compare_emits_full_backend_matrix_within_tolerance() {
    // The acceptance criterion: `wsnem compare` on a built-in scenario
    // emits a Table 4/5-style matrix covering all four backends with
    // per-state deltas within the paper's 2 pp tolerance.
    let out = wsnem(&[
        "compare",
        "--builtin",
        "paper-defaults",
        "--quick",
        "--max-delta-pp",
        "2",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for backend in ["Markov", "Mg1", "PetriNet", "Des"] {
        assert!(text.contains(backend), "matrix missing `{backend}`: {text}");
    }
    assert!(text.contains("reference Des"), "{text}");
    assert!(text.contains("max mean |Δ|"), "{text}");
    assert!(text.contains("wall-clock per backend"), "{text}");
    assert!(
        stderr(&out).contains("within tolerance"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn compare_csv_and_json_formats() {
    let out = wsnem(&[
        "compare",
        "--builtin",
        "paper-defaults",
        "--quick",
        "--format",
        "csv",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let mut lines = text.lines();
    let header = csv_fields(lines.next().expect("header"));
    assert!(
        header.iter().any(|h| h == "mean_abs_delta_pp"),
        "{header:?}"
    );
    assert!(header.iter().any(|h| h == "d_active_pp"), "{header:?}");
    let rows: Vec<Vec<String>> = lines.map(csv_fields).collect();
    assert_eq!(rows.len(), 4, "one row per backend: {text}");
    for row in &rows {
        assert_eq!(row.len(), header.len(), "{row:?}");
    }

    let out = wsnem(&[
        "compare",
        "--builtin",
        "paper-defaults",
        "--quick",
        "--format",
        "json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"max_mean_abs_delta_pp\""), "{text}");
    assert!(text.contains("\"backend_seconds\""), "{text}");
}

#[test]
fn compare_max_delta_gate_fails_when_exceeded() {
    // An absurdly tight tolerance must turn Monte-Carlo noise into a
    // non-zero exit — the CI gate's failure path.
    let out = wsnem(&[
        "compare",
        "--builtin",
        "paper-defaults",
        "--quick",
        "--max-delta-pp",
        "0.000001",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("exceeds tolerance"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn unknown_backend_in_scenario_file_gets_did_you_mean() {
    let scenario = r#"
schema_version = 3
name = "typo"
description = "backend name typo"
profile = "Pxa271"
battery = "TwoAa"
backends = ["Markvo"]

[cpu]
lambda = 0.5
mu = 10.0
power_down_threshold = 0.5
power_up_delay = 0.001
horizon = 300.0
warmup = 0.0
replications = 2
master_seed = 7

[report]
energy_horizon_s = 1000.0
"#;
    let path = temp_file("typo.toml", scenario);
    let out = wsnem(&["validate", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let all = format!("{}{}", stdout(&out), stderr(&out));
    assert!(all.contains("unknown backend `Markvo`"), "{all}");
    assert!(all.contains("did you mean `Markov`?"), "{all}");
    assert!(all.contains("registered backends"), "{all}");
}

#[test]
fn radio_preset_inspector_prints_power_split_and_lifetime_table() {
    let out = wsnem(&["radio", "--preset", "cc2420-class"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("radio `cc2420-class`"), "{text}");
    assert!(text.contains("duty cycle 5.00%"), "{text}");
    for col in ["tx%", "rx%", "listen%", "sleep%", "mean mW", "lifetime"] {
        assert!(text.contains(col), "missing `{col}`: {text}");
    }
    // The lifetime-vs-traffic table actually varies with traffic.
    assert!(text.contains("93.0"), "idle lifetime row: {text}");
    assert!(text.contains("52.4"), "busy lifetime row: {text}");
}

#[test]
fn radio_inspector_reads_scenario_specs_and_overrides() {
    let out = wsnem(&["radio", "--builtin", "mac-heterogeneous-tree"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 distinct radio spec(s)"), "{text}");
    assert!(text.contains("radio `x-mac` — network default"), "{text}");
    assert!(
        text.contains("radio `cc2420-always-on` — node `root` override"),
        "{text}"
    );
    assert!(text.contains("duty cycle 100.00%"), "{text}");
}

#[test]
fn radio_inspector_rejects_unknown_presets() {
    let out = wsnem(&["radio", "--preset", "cc9999"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown radio preset `cc9999`"), "{err}");
    assert!(err.contains("cc2420-class"), "{err}");
}

#[test]
fn lpl_sweep_csv_carries_radio_columns_and_the_tradeoff() {
    // Acceptance criterion: the builtin LPL period sweep shows the
    // listen-vs-preamble tradeoff end to end, with per-node duty-cycle and
    // radio columns in the run CSV.
    let out = wsnem(&[
        "run",
        "--builtin",
        "lpl-period-sweep",
        "--quick",
        "--format",
        "csv",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let mut lines = text.lines();
    let header: Vec<String> = csv_fields(lines.next().expect("header"));
    for col in ["radio_spec", "radio_duty_cycle", "radio_power_mw"] {
        assert!(
            header.iter().any(|h| h.trim() == col),
            "missing column `{col}` in {header:?}"
        );
    }
    let col = |name: &str| header.iter().position(|h| h.trim() == name).unwrap();
    let (node_col, spec_col, duty_col, radio_mw_col) = (
        col("node"),
        col("radio_spec"),
        col("radio_duty_cycle"),
        col("radio_power_mw"),
    );
    let rows: Vec<Vec<String>> = lines.map(csv_fields).collect();
    let node_rows: Vec<&Vec<String>> = rows.iter().filter(|r| !r[node_col].is_empty()).collect();
    assert_eq!(node_rows.len(), 6, "one CSV row per sweep point");
    let by_name = |n: &str| *node_rows.iter().find(|r| r[node_col] == n).unwrap();
    let radio_mw = |n: &str| by_name(n)[radio_mw_col].parse::<f64>().unwrap();
    // Duty cycle falls with the period; radio power is U-shaped.
    assert_eq!(by_name("p-20ms")[spec_col], "b-mac");
    assert_eq!(by_name("p-20ms")[duty_col], "0.125");
    assert_eq!(by_name("p-1s")[duty_col], "0.0025");
    assert!(radio_mw("p-20ms") > radio_mw("p-100ms"), "listen slope");
    assert!(radio_mw("p-1s") > radio_mw("p-250ms"), "preamble slope");
    assert!(radio_mw("p-250ms") > radio_mw("p-100ms"), "preamble slope");
}

#[test]
fn v4_toml_file_with_radio_sections_loads_and_runs() {
    let scenario = r#"
schema_version = 4
name = "radio-overrides"
description = "hand-authored v4 file with a network MAC and a node override"
profile = "Pxa271"
battery = "TwoAa"
backends = ["Markov"]

[cpu]
lambda = 0.5
mu = 10.0
power_down_threshold = 0.5
power_up_delay = 0.001
horizon = 300.0
warmup = 0.0
replications = 2
master_seed = 7

[report]
energy_horizon_s = 1000.0

[[network.nodes]]
name = "relay"
event_rate = 0.5
tx_per_event = 1.0
rx_rate = 0.0
radio = { Preset = "cc2420-always-on" }

[[network.nodes]]
name = "leaf"
event_rate = 0.5
tx_per_event = 1.0
rx_rate = 0.0

[network.topology]
Chain = {}

[network.radio.XMac]
check_interval_s = 0.5
strobe_s = 0.004
ack_s = 0.001
"#;
    let path = temp_file("radio-v4.toml", scenario);
    let out = wsnem(&["run", path.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("radio x-mac"), "{text}");
    assert!(text.contains("radio cc2420-always-on"), "{text}");
    // The always-on relay is both the routing and lifetime hot spot.
    assert!(text.contains("bottleneck `relay`"), "{text}");

    // The same file downgraded to v3 must be rejected, not misread.
    let v3 = scenario.replace("schema_version = 4", "schema_version = 3");
    let path = temp_file("radio-v3.toml", &v3);
    let out = wsnem(&["validate", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let all = format!("{}{}", stdout(&out), stderr(&out));
    assert!(all.contains("schema_version >= 4"), "{all}");
}

/// Minimal NDJSON validity check: every line is one JSON object that
/// `serde_json` parses. Returns the parsed values.
fn parse_ndjson(text: &str) -> Vec<serde_json::Value> {
    text.lines()
        .map(|line| {
            serde_json::parse(line).unwrap_or_else(|e| panic!("invalid NDJSON line `{line}`: {e}"))
        })
        .collect()
}

/// Numeric field of a parsed JSON object (integers and floats both count).
fn num(v: &serde_json::Value, key: &str) -> f64 {
    match v.get(key) {
        Some(serde_json::Value::Int(i)) => *i as f64,
        Some(serde_json::Value::UInt(u)) => *u as f64,
        Some(serde_json::Value::Float(f)) => *f,
        other => panic!("field `{key}` is not a number: {other:?}"),
    }
}

#[test]
fn trace_emits_ndjson_whose_sojourns_match_the_report() {
    // Acceptance criterion: the traced per-state sojourn fractions must
    // reproduce the reported time-in-state split on the paper CPU model.
    let path = std::env::temp_dir().join("wsnem-cli-integration-trace.ndjson");
    let out = wsnem(&[
        "trace",
        "--builtin",
        "paper-defaults",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&path).unwrap();
    let records = parse_ndjson(&text);
    assert!(records.len() > 100, "only {} records", records.len());

    // Accumulate sojourn per state index from the stream.
    let mut sojourn = [0.0f64; 4];
    for r in &records {
        if r.get("ev").and_then(|v| v.as_str()) == Some("state_exit") {
            sojourn[num(r, "state") as usize] += num(r, "sojourn");
        }
    }
    let total: f64 = sojourn.iter().sum();
    assert!(total > 0.0);

    // The stderr summary reports `state <name> trace <frac> report <frac>`;
    // all three numbers must agree.
    let err = stderr(&out);
    for (i, name) in ["standby", "powerup", "idle", "active"].iter().enumerate() {
        let line = err
            .lines()
            .find(|l| l.contains(&format!("state {name}")))
            .unwrap_or_else(|| panic!("missing state `{name}` in stderr: {err}"));
        let nums: Vec<f64> = line
            .split_whitespace()
            .filter_map(|w| w.parse().ok())
            .collect();
        assert_eq!(nums.len(), 2, "{line}");
        let (traced, reported) = (nums[0], nums[1]);
        assert!(
            (traced - reported).abs() < 1e-9,
            "{name}: trace {traced} vs report {reported}"
        );
        assert!(
            (sojourn[i] / total - reported).abs() < 1e-6,
            "{name}: NDJSON fraction {} vs report {reported}",
            sojourn[i] / total
        );
    }

    // The closing record carries the stream accounting.
    let end = records.last().unwrap();
    assert_eq!(end.get("ev").and_then(|v| v.as_str()), Some("trace_end"));
    assert!(num(end, "rng_draws") > 0.0);
}

#[test]
fn trace_petri_backend_labels_transitions_and_honors_limit() {
    let out = wsnem(&[
        "trace",
        "--builtin",
        "paper-defaults",
        "--backend",
        "petri",
        "--limit",
        "50",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let records = parse_ndjson(&stdout(&out));
    // 50 trace records plus the trace_end marker.
    assert_eq!(records.len(), 51, "{}", stdout(&out));
    let firing = records
        .iter()
        .find(|r| r.get("ev").and_then(|v| v.as_str()) == Some("firing"))
        .expect("at least one firing traced");
    let label = firing.get("label").and_then(|v| v.as_str()).unwrap();
    assert!(
        ["AR", "T1", "T2", "T5", "T6", "PUT", "SR", "PDT"].contains(&label),
        "unexpected transition label `{label}`"
    );
    assert!(stderr(&out).contains("petri kernel"), "{}", stderr(&out));
}

#[test]
fn profile_prints_phase_and_solver_timing_table() {
    let out = wsnem(&["profile", "--builtin", "paper-defaults", "--quick"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for col in ["base s", "sweep s", "net s", "total s", "solver seconds"] {
        assert!(text.contains(col), "missing `{col}`: {text}");
    }
    assert!(text.contains("paper-defaults"), "{text}");
    for backend in ["Markov", "PetriNet", "Des"] {
        assert!(text.contains(backend), "missing solver `{backend}`: {text}");
    }
    assert!(text.contains("batch: 1 scenario(s)"), "{text}");
    assert!(text.contains("utilization"), "{text}");
}

#[test]
fn run_csv_carries_scenario_elapsed_and_compare_csv_carries_backend_wall_clock() {
    // Satellite fix: `wsnem compare --format csv` used to drop the
    // per-backend wall-clock totals that JSON and summary carried.
    let out = wsnem(&[
        "compare",
        "--builtin",
        "paper-defaults",
        "--quick",
        "--format",
        "csv",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let mut lines = text.lines();
    let header = csv_fields(lines.next().unwrap());
    let col = header
        .iter()
        .position(|h| h.trim() == "backend_total_seconds")
        .unwrap_or_else(|| panic!("missing backend_total_seconds in {header:?}"));
    for line in lines {
        let v: f64 = csv_fields(line)[col]
            .parse()
            .unwrap_or_else(|e| panic!("bad wall clock in `{line}`: {e}"));
        assert!(v > 0.0, "{line}");
    }

    let out = wsnem(&[
        "run",
        "--builtin",
        "paper-defaults",
        "--quick",
        "--format",
        "csv",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let mut lines = text.lines();
    let header = csv_fields(lines.next().unwrap());
    let col = header
        .iter()
        .position(|h| h.trim() == "scenario_elapsed_seconds")
        .unwrap_or_else(|| panic!("missing scenario_elapsed_seconds in {header:?}"));
    for line in lines {
        let v: f64 = csv_fields(line)[col]
            .parse()
            .unwrap_or_else(|e| panic!("bad elapsed in `{line}`: {e}"));
        assert!(v > 0.0, "{line}");
    }
    // Batch metrics stay off the CSV body (stderr only).
    assert!(stderr(&out).contains("batch:"), "{}", stderr(&out));
}

#[test]
fn verbosity_flags_gate_batch_metrics_on_stderr() {
    let verbose = wsnem(&["run", "--builtin", "paper-defaults", "--quick", "-v"]);
    assert!(verbose.status.success());
    assert!(stderr(&verbose).contains("batch:"), "{}", stderr(&verbose));
    // The summary format carries the batch line on stdout too.
    assert!(stdout(&verbose).contains("batch:"), "{}", stdout(&verbose));

    let quiet = wsnem(&["run", "--builtin", "paper-defaults", "--quick", "-q"]);
    assert!(quiet.status.success());
    assert!(!stderr(&quiet).contains("batch:"), "{}", stderr(&quiet));

    let json = wsnem(&[
        "run",
        "--builtin",
        "paper-defaults",
        "--quick",
        "-q",
        "--format",
        "json",
    ]);
    assert!(json.status.success());
    let v = serde_json::parse(&stdout(&json)).unwrap();
    let batch = v.get("batch").expect("json output carries batch metrics");
    assert!(num(batch, "utilization") > 0.0);
    assert!(num(batch, "scenarios_per_second") > 0.0);
    assert_eq!(v.get("reports").and_then(|r| r.as_seq()).unwrap().len(), 1);
}

/// A fresh per-test directory (removed first, so re-runs start clean).
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsnem-cli-fleet-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_writes_fleet_files_and_manifest() {
    let dir = fresh_dir("gen");
    let out = wsnem(&[
        "gen",
        dir.to_str().unwrap(),
        "--field",
        "lambda=0.25:0.75:2",
        "--field",
        "service-mean=0.0625:0.125:2",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("generated 4 scenario(s)"),
        "{}",
        stderr(&out)
    );
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "fleet-1.toml",
            "fleet-2.toml",
            "fleet-3.toml",
            "fleet-4.toml",
            "manifest.json"
        ]
    );
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(
        manifest.contains("\"generator\": \"wsnem gen\""),
        "{manifest}"
    );
    // Every generated file validates stand-alone.
    let f1 = dir.join("fleet-1.toml");
    let out = wsnem(&["validate", f1.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // Bad field specs fail up front with the supported list.
    let out = wsnem(&["gen", dir.to_str().unwrap(), "--field", "bogus=0:1"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown --field name `bogus`"),
        "{}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("lambda"), "{}", stderr(&out));
}

#[test]
fn fleet_cache_hits_misses_refresh_and_byte_identical_csv() {
    let dir = fresh_dir("cache");
    let out = wsnem(&[
        "gen",
        dir.to_str().unwrap(),
        "--field",
        "lambda=0.25:0.75:2",
        "--field",
        "service-mean=0.0625:0.125:2",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let run_csv = |extra: &[&str]| -> (String, String) {
        let mut args = vec!["run", dir.to_str().unwrap(), "--quick", "--format", "csv"];
        args.extend_from_slice(extra);
        let out = wsnem(&args);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        (stdout(&out), stderr(&out))
    };

    // Cold: everything simulates and the batch line says so.
    let (cold_csv, err) = run_csv(&[]);
    assert!(err.contains("cache: 0 hit(s), 4 miss(es)"), "{err}");
    assert!(dir.join(".wsnem-cache").is_dir(), "cache dir created");

    // Warm: everything answers from the cache, and the merged CSV is
    // byte-identical to the cold run (reports come back verbatim).
    let (warm_csv, err) = run_csv(&[]);
    assert!(err.contains("cache: 4 hit(s), 0 miss(es)"), "{err}");
    assert_eq!(cold_csv, warm_csv, "warm CSV must be byte-identical");

    // Editing one file re-simulates exactly that one.
    let f1 = dir.join("fleet-1.toml");
    let text = std::fs::read_to_string(&f1).unwrap();
    let edited = text.replace("lambda = 0.25", "lambda = 0.3");
    assert_ne!(text, edited, "the edit must hit: {text}");
    std::fs::write(&f1, edited).unwrap();
    let (_, err) = run_csv(&[]);
    assert!(err.contains("cache: 3 hit(s), 1 miss(es)"), "{err}");

    // --refresh re-simulates everything despite the warm cache.
    let (_, err) = run_csv(&["--refresh"]);
    assert!(err.contains("cache: 0 hit(s), 4 miss(es)"), "{err}");

    // --no-cache neither reads the cache nor reports cache counts.
    let (_, err) = run_csv(&["--no-cache"]);
    assert!(!err.contains("cache:"), "{err}");

    // JSON runs carry the hit/miss counts in the envelope.
    let out = wsnem(&[
        "run",
        dir.to_str().unwrap(),
        "--quick",
        "-q",
        "--format",
        "json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let v = serde_json::parse(&stdout(&out)).unwrap();
    let cache = v.get("cache").expect("cache stats in JSON envelope");
    assert_eq!(num(cache, "hits"), 4.0);
    assert_eq!(num(cache, "misses"), 0.0);
}

#[test]
fn no_cache_run_does_not_create_the_cache_directory() {
    let dir = fresh_dir("nocache");
    let out = wsnem(&[
        "gen",
        dir.to_str().unwrap(),
        "--field",
        "lambda=0.25:0.75:2",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let out = wsnem(&["run", dir.to_str().unwrap(), "--quick", "-q", "--no-cache"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        !dir.join(".wsnem-cache").exists(),
        "--no-cache must not create the cache directory"
    );

    // The two cache escape hatches are mutually exclusive.
    let out = wsnem(&["run", dir.to_str().unwrap(), "--no-cache", "--refresh"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("mutually exclusive"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn duplicate_scenarios_skip_with_warning_and_error_under_strict() {
    // The same builtin twice: one run, one warning — unless --strict.
    let out = wsnem(&[
        "run",
        "--builtin",
        "paper-defaults",
        "--builtin",
        "paper-defaults",
        "--quick",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("duplicate scenario `paper-defaults`"),
        "{}",
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("keeping the first"),
        "{}",
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("batch: 1 scenario(s)"),
        "{}",
        stdout(&out)
    );

    let out = wsnem(&[
        "run",
        "--builtin",
        "paper-defaults",
        "--builtin",
        "paper-defaults",
        "--quick",
        "--strict",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--strict"), "{}", stderr(&out));

    // Two files in one fleet directory declaring one name: the first in
    // sorted file order runs, the second is skipped with a warning naming
    // both files — unless --strict.
    let dir = fresh_dir("dups");
    let exported = wsnem(&["export", "paper-defaults"]);
    assert!(exported.status.success(), "stderr: {}", stderr(&exported));
    std::fs::write(dir.join("first.toml"), &exported.stdout).unwrap();
    std::fs::write(dir.join("second.toml"), &exported.stdout).unwrap();
    let fleet = dir.to_str().unwrap();
    let out = wsnem(&["run", fleet, "--quick", "--no-cache"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("duplicate scenario `paper-defaults`"), "{err}");
    assert!(
        err.contains("first.toml") && err.contains("second.toml"),
        "{err}"
    );
    assert!(err.contains("keeping the first"), "{err}");
    assert!(
        stdout(&out).contains("batch: 1 scenario(s)"),
        "{}",
        stdout(&out)
    );

    let out = wsnem(&["run", fleet, "--quick", "--no-cache", "--strict"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("duplicate scenario `paper-defaults`"), "{err}");
    assert!(err.contains("--strict"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_fleet_file_is_named_at_every_thread_count() {
    // Files parse on parallel workers; the error still names the first bad
    // file in sorted order, and only it.
    let dir = fresh_dir("malformed");
    let exported = wsnem(&["export", "paper-defaults"]);
    assert!(exported.status.success(), "stderr: {}", stderr(&exported));
    let text = String::from_utf8(exported.stdout).unwrap();
    for (file, name) in [("a.toml", "a"), ("c.toml", "c"), ("e.toml", "e")] {
        let renamed = text.replace("name = \"paper-defaults\"", &format!("name = \"{name}\""));
        std::fs::write(dir.join(file), renamed).unwrap();
    }
    std::fs::write(dir.join("b.toml"), "name = [\n").unwrap();
    std::fs::write(dir.join("d.json"), "{\"name\":").unwrap();
    let fleet = dir.to_str().unwrap();
    for threads in [Some("1"), None] {
        let mut args = vec!["run", fleet, "--quick", "--no-cache"];
        args.extend(threads.map(|t| ["--threads", t]).iter().flatten());
        let out = wsnem(&args);
        assert!(!out.status.success(), "{threads:?}");
        let err = stderr(&out);
        assert!(
            err.contains("b.toml") && err.contains("parse error"),
            "{threads:?}: {err}"
        );
        assert!(!err.contains("d.json"), "{threads:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_rejects_unrecognized_scenario_file_extension() {
    // Satellite fix: a `fleet.yaml` used to be silently parsed as TOML.
    let path = temp_file("fleet.yaml", "name: not-toml\n");
    let out = wsnem(&["run", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("unrecognized scenario file extension"),
        "{err}"
    );
    assert!(err.contains(".toml"), "{err}");
    assert!(err.contains(".json"), "{err}");
}

#[test]
fn compare_merges_directory_matrices_into_one_document() {
    let dir = fresh_dir("compare");
    let out = wsnem(&[
        "gen",
        dir.to_str().unwrap(),
        "--field",
        "lambda=0.25:0.75:2",
        "--field",
        "service-mean=0.125:0.125:1",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let out = wsnem(&[
        "compare",
        dir.to_str().unwrap(),
        "--quick",
        "--format",
        "csv",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let mut lines = text.lines();
    let header = csv_fields(lines.next().expect("header"));
    let scenario_col = header
        .iter()
        .position(|h| h.trim() == "scenario")
        .unwrap_or_else(|| panic!("missing scenario column in {header:?}"));
    let rows: Vec<Vec<String>> = lines.map(csv_fields).collect();
    // One merged document: a single header, then 4 backend rows per
    // scenario, in sorted file order.
    assert_eq!(rows.len(), 8, "{text}");
    assert!(
        rows[..4].iter().all(|r| r[scenario_col] == "fleet-1"),
        "{text}"
    );
    assert!(
        rows[4..].iter().all(|r| r[scenario_col] == "fleet-2"),
        "{text}"
    );
    assert!(
        !text[text.find('\n').unwrap()..].contains("scenario,"),
        "header must appear exactly once: {text}"
    );
}

#[test]
fn quick_smoke_runs_every_builtin_including_multihop() {
    let out = wsnem(&["run", "--all", "--quick"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for name in [
        "tree-collection",
        "chain-3hop",
        "mesh-field",
        "lpl-period-sweep",
        "mac-heterogeneous-tree",
    ] {
        assert!(text.contains(name), "summary missing `{name}`");
    }
    assert!(
        text.contains("network[tree, Markov, radio cc2420-class]"),
        "{text}"
    );
    assert!(
        text.contains("network[tree, Markov, radio x-mac]"),
        "{text}"
    );
    assert!(text.contains("bottleneck relay `root`"), "{text}");
}

/// A v5 template scenario: 2000 nodes on a fanout-4 tree, analytic backend.
fn template_scenario_toml() -> String {
    r#"
schema_version = 5
name = "template-tree"
description = "template fast-path fixture"
profile = "Pxa271"
battery = "TwoAa"
backends = ["Mg1"]

[cpu]
lambda = 1.0
mu = 10.0
power_down_threshold = 0.5
power_up_delay = 0.001
horizon = 1000.0
warmup = 0.0
replications = 2
master_seed = 7

[report]
energy_horizon_s = 1000.0

[network]
nodes = []

[network.topology.Tree]
fanout = 4

[network.template]
count = 2000
prefix = "n"
event_rate = 1e-4
tx_per_event = 1.0
rx_rate = 0.0
"#
    .to_owned()
}

#[test]
fn run_limit_truncates_per_node_summary_lines() {
    // tree-collection has 7 nodes: `--limit 2` must show 2 and a footer,
    // the default must show all 7 with no footer.
    let out = wsnem(&[
        "run",
        "--builtin",
        "tree-collection",
        "--quick",
        "--limit",
        "2",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("… and 5 more node(s); use --limit to show more"),
        "{text}"
    );
    assert_eq!(text.matches("hop ").count(), 2, "{text}");

    let out = wsnem(&["run", "--builtin", "tree-collection", "--quick"]);
    let text = stdout(&out);
    assert!(!text.contains("more node(s)"), "{text}");
    assert_eq!(text.matches("hop ").count(), 7, "{text}");

    let out = wsnem(&["run", "--builtin", "tree-collection", "--limit", "-3"]);
    assert!(!out.status.success(), "--limit must reject negatives");
}

#[test]
fn template_scenario_reports_in_aggregate_form() {
    let path = temp_file("template-tree.toml", &template_scenario_toml());
    let path = path.to_str().unwrap();
    let out = wsnem(&["run", path]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2000 nodes (aggregate)"), "{text}");
    assert!(text.contains("worst 10 node(s) by lifetime:"), "{text}");
    assert!(
        text.contains("near-unstable nodes (rho >= 0.90): 0"),
        "{text}"
    );
    // Aggregate reports carry no per-node CSV rows — one backend row only.
    let out = wsnem(&["run", path, "--format", "csv"]);
    let csv = stdout(&out);
    assert_eq!(csv.lines().count(), 2, "header + one backend row: {csv}");
}

#[test]
fn topology_inspector_handles_templates_and_limit() {
    let path = temp_file("template-tree-topo.toml", &template_scenario_toml());
    let out = wsnem(&["topology", path.to_str().unwrap(), "--limit", "3"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("tree topology (template), 2000 node(s)"),
        "{text}"
    );
    assert!(
        text.contains("… and 1997 more node(s); use --limit to show more"),
        "{text}"
    );
    assert!(text.contains("heaviest relay: `n1`"), "{text}");
}

/// `wsnem topology` output recorded under `tests/golden/`, compared byte
/// for byte: the inspector's columns, number formats and header are an
/// interface that scripts read.
fn assert_topology_golden(args: &[&str], golden: &str) {
    let out = wsnem(args);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let expected = std::fs::read_to_string(&path).expect("golden present");
    assert_eq!(stdout(&out), expected, "{} drifted", path.display());
}

#[test]
fn topology_inspector_matches_golden_for_explicit_builtins() {
    for name in [
        "tree-collection",
        "chain-3hop",
        "mesh-field",
        "mac-heterogeneous-tree",
    ] {
        assert_topology_golden(
            &["topology", "--builtin", name],
            &format!("topology_{name}.txt"),
        );
    }
}

#[test]
fn topology_inspector_matches_golden_for_template() {
    let path = temp_file("template-tree-golden.toml", &template_scenario_toml());
    assert_topology_golden(
        &["topology", path.to_str().unwrap(), "--limit", "3"],
        "topology_template_limit3.txt",
    );
}
