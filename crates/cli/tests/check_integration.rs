//! End-to-end tests of `wsnem check` and its satellites: the three seeded
//! mutation fixtures must each fail with their *specific* lint code, the
//! builtins must come back clean under `--deny warnings`, the run/compare
//! preflight must refuse unsound scenarios before any event fires, and
//! `gen --check` must catch fleet drift against the manifest.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use std::path::{Path, PathBuf};
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

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .display()
        .to_string()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsnem-check-integration-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn check_all_builtins_is_clean_even_denying_warnings() {
    let out = wsnem(&["check", "--all", "--deny", "warnings"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");
}

#[test]
fn unstable_lambda_fixture_fails_with_e005() {
    let out = wsnem(&[
        "check",
        &fixture("unstable-lambda.toml"),
        "--format",
        "json",
    ]);
    assert!(!out.status.success());
    let json = stdout(&out);
    assert!(json.contains("\"code\": \"E005\""), "{json}");
    assert!(json.contains("unstable-queue"), "{json}");
    // The granular code, not the generic catch-all.
    assert!(!json.contains("\"code\": \"E004\""), "{json}");
    assert!(stderr(&out).contains("1 error(s)"), "{}", stderr(&out));
}

#[test]
fn deadlock_net_fixture_fails_with_e007() {
    let out = wsnem(&["check", &fixture("deadlock.net.json")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("error[E007]"), "{text}");
    assert!(text.contains("inhibitor"), "{text}");
}

#[test]
fn dead_transition_net_fixture_fails_with_e008() {
    let out = wsnem(&["check", &fixture("dead-transition.net.json")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("error[E008]"), "{text}");
    assert!(text.contains("dead"), "{text}");
    // The live cycle keeps this net deadlock-free: E008, not E007.
    assert!(!text.contains("E007"), "{text}");
}

#[test]
fn checking_the_fixture_directory_surfaces_all_three_codes() {
    // A directory target walks every .toml/.json a fleet run would pick up,
    // dispatching *.net.json members to the net passes.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let out = wsnem(&["check", dir.to_str().unwrap()]);
    assert!(!out.status.success());
    let text = stdout(&out);
    for code in ["E005", "E007", "E008"] {
        assert!(text.contains(code), "missing {code} in: {text}");
    }
}

/// The `diagnostics` array of `wsnem check <target> --format json`.
fn json_diagnostics(target: &str) -> Vec<serde_json::Value> {
    let out = wsnem(&["check", target, "--format", "json"]);
    let v = serde_json::parse(&stdout(&out)).expect("valid JSON");
    v.get("diagnostics")
        .and_then(|d| d.as_seq())
        .expect("a diagnostics array")
        .to_vec()
}

#[test]
fn checking_a_directory_equals_checking_each_file_alone() {
    // One process reuses net-pass findings across targets with the same net
    // structure (the generated scenarios share the EDSPN; the renamed copy
    // shares the deadlock net); each finding must still name its own target.
    let dir = temp_dir("mixed");
    let dir_s = dir.to_str().unwrap();
    let out = wsnem(&["gen", dir_s, "--field", "lambda=0.25:0.75:3"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    for name in [
        "deadlock.net.json",
        "dead-transition.net.json",
        "unstable-lambda.toml",
    ] {
        std::fs::copy(fixture(name), dir.join(name)).unwrap();
    }
    std::fs::copy(fixture("deadlock.net.json"), dir.join("renamed.net.json")).unwrap();

    let whole = json_diagnostics(dir_s);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| !p.ends_with("manifest.json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 7);
    let mut each: Vec<serde_json::Value> = files
        .iter()
        .flat_map(|f| json_diagnostics(f.to_str().unwrap()))
        .collect();
    // `check` lists findings worst-first, stable within a severity.
    each.sort_by_key(|d| match d.get("severity").and_then(|s| s.as_str()) {
        Some("error") => 0,
        Some("warning") => 1,
        _ => 2,
    });
    assert_eq!(whole, each);
    let deadlocks = whole
        .iter()
        .filter(|d| d.get("code").and_then(|c| c.as_str()) == Some("E007"))
        .count();
    assert_eq!(deadlocks, 2, "one deadlock per copy of the net");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_overrides_rewrite_severities() {
    // Allowing the specific code turns the failing fixture clean — the
    // catch-all must not resurrect it as E004.
    let out = wsnem(&[
        "check",
        &fixture("unstable-lambda.toml"),
        "-A",
        "unstable-queue",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // Denying an info-severity lint makes a clean builtin fail.
    let out = wsnem(&[
        "check",
        "--builtin",
        "paper-defaults",
        "-D",
        "structural-class",
    ]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("error[I001]"), "{}", stdout(&out));

    // Unknown lints are rejected with the registry listed.
    let out = wsnem(&["check", "--all", "-D", "no-such-lint"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown lint `no-such-lint`"), "{err}");
    assert!(err.contains("E005"), "{err}");
}

#[test]
fn run_preflight_aborts_before_simulation_and_no_check_forces() {
    let out = wsnem(&["run", &fixture("unstable-lambda.toml")]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("E005"), "{err}");
    assert!(err.contains("nothing was simulated"), "{err}");
    // No report, no batch line: the run aborted before any event fired.
    assert_eq!(stdout(&out), "", "no simulation output expected");

    // --no-check skips the preflight; the failure (if any) is the runner's.
    let out = wsnem(&[
        "run",
        &fixture("unstable-lambda.toml"),
        "--no-check",
        "--quick",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(!err.contains("nothing was simulated"), "{err}");
}

#[test]
fn compare_preflight_aborts_on_unsound_scenarios() {
    let out = wsnem(&["compare", &fixture("unstable-lambda.toml"), "--quick"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("E005"), "{err}");
    assert!(err.contains("nothing was simulated"), "{err}");
}

#[test]
fn validate_exits_non_zero_with_coded_diagnostics() {
    let out = wsnem(&["validate", &fixture("unstable-lambda.toml")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("error[E005]"), "{text}");
    assert!(
        stderr(&out).contains("1 of 1 file(s) invalid"),
        "{}",
        stderr(&out)
    );

    // Clean net specs validate too (check --only-schema semantics).
    let out = wsnem(&[
        "validate",
        &fixture("unstable-lambda.toml"),
        &fixture("deadlock.net.json"),
    ]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("error[E007]"), "{}", stdout(&out));
}

#[test]
fn gen_check_verifies_fleet_against_manifest() {
    let dir = temp_dir("gen");
    let dir_s = dir.to_str().unwrap();
    let out = wsnem(&["gen", dir_s, "--field", "lambda=0.25:0.75:3"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // Pristine fleet verifies clean.
    let out = wsnem(&["gen", dir_s, "--check"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("matches its manifest"),
        "{}",
        stderr(&out)
    );

    // Deleting a listed file fails with E009 naming it.
    std::fs::remove_file(dir.join("fleet-2.toml")).unwrap();
    let out = wsnem(&["gen", dir_s, "--check"]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("error[E009]"), "{text}");
    assert!(text.contains("fleet-2.toml"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_json_envelope_carries_counts_and_locations() {
    let out = wsnem(&["check", "--builtin", "paper-defaults", "--format", "json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = stdout(&out);
    let v = serde_json::parse(&json).expect("valid JSON");
    let map = |v: &serde_json::Value, k: &str| -> serde_json::Value {
        match v {
            serde_json::Value::Map(entries) => entries
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing key `{k}` in {v:?}")),
            other => panic!("expected map, got {other:?}"),
        }
    };
    // The parser reads in-range integers as Int regardless of the writer's
    // unsigned origin.
    assert_eq!(map(&v, "checked"), serde_json::Value::Int(1));
    let counts = map(&v, "counts");
    assert_eq!(map(&counts, "errors"), serde_json::Value::Int(0));
    match map(&v, "diagnostics") {
        serde_json::Value::Seq(diags) => {
            assert!(!diags.is_empty(), "builtins report informational findings");
            for d in &diags {
                assert_eq!(map(d, "severity"), serde_json::Value::Str("info".into()));
            }
        }
        other => panic!("expected diagnostics array, got {other:?}"),
    }
}

#[test]
fn deeply_nested_files_fail_with_e001_instead_of_overflowing_the_stack() {
    let dir = temp_dir("deep");
    let json = dir.join("deep.json");
    std::fs::write(&json, "[".repeat(200_000)).unwrap();
    let toml = dir.join("deep.toml");
    std::fs::write(&toml, format!("x = {}", "[".repeat(200_000))).unwrap();
    for file in [&json, &toml] {
        for cmd in ["validate", "check"] {
            let out = wsnem(&[cmd, file.to_str().unwrap()]);
            // A stack overflow aborts with SIGABRT (exit 134 from a shell);
            // a parse error is an ordinary failure.
            assert_eq!(out.status.code(), Some(1), "{cmd} {}", stderr(&out));
            let text = stdout(&out);
            assert!(text.contains("error[E001]"), "{cmd}: {text}");
            assert!(
                text.contains("nest deeper than 128 levels"),
                "{cmd}: {text}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validate_accepts_directories_like_check_and_run() {
    let dir = temp_dir("validate-dir");
    let dir_s = dir.to_str().unwrap();
    let out = wsnem(&["gen", dir_s, "--field", "lambda=0.25:0.75:3"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let out = wsnem(&["validate", dir_s]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.matches(": ok (scenario `").count(), 3, "{text}");
    assert!(!text.contains("manifest.json"), "{text}");

    // One broken member fails the directory, counted among its files.
    std::fs::write(dir.join("fleet-2.toml"), "this is not toml = = =").unwrap();
    let out = wsnem(&["validate", dir_s]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("error[E001]"), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("1 of 3 file(s) invalid"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn template_count_past_the_u32_node_index_is_rejected() {
    let dir = temp_dir("template-count");
    let path = dir.join("huge.toml");
    std::fs::write(
        &path,
        r#"schema_version = 5
name = "huge-template"
description = "More nodes than a u32 index can name"
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

[network.template]
count = 4294967297
prefix = "n"
event_rate = 1e-12
tx_per_event = 1.0
rx_rate = 0.0
"#,
    )
    .unwrap();
    for cmd in ["check", "validate"] {
        let out = wsnem(&[cmd, path.to_str().unwrap()]);
        assert!(!out.status.success(), "{cmd} accepted the count");
        let text = stdout(&out);
        assert!(text.contains("error[E004]"), "{cmd}: {text}");
        assert!(text.contains("network.template.count"), "{cmd}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stability_fixtures_fail_check_and_validate_with_e005() {
    // A 2 s deterministic service law at lambda = 1 (rho = 2, though
    // lambda/mu = 0.1), and a template root forwarding 19.98 pkt/s: one
    // stability rule judges both, for `check` and `validate` alike.
    for name in ["general-law-unstable.toml", "template-root-unstable.toml"] {
        for cmd in ["check", "validate"] {
            let out = wsnem(&[cmd, &fixture(name)]);
            assert!(!out.status.success(), "{cmd} {name} passed");
            let text = stdout(&out);
            assert!(text.contains("error[E005]"), "{cmd} {name}: {text}");
            assert!(!text.contains("error[E004]"), "{cmd} {name}: {text}");
        }
    }
}

#[test]
fn run_without_preflight_stops_an_unstable_general_law_at_validation() {
    let out = wsnem(&[
        "run",
        &fixture("general-law-unstable.toml"),
        "--no-check",
        "--quick",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("invalid scenario [E005]"), "{err}");
    // The solvers never saw it.
    assert!(!err.contains("model evaluation failed"), "{err}");
}

#[test]
fn validating_a_directory_equals_validating_each_file_alone() {
    let dir = temp_dir("validate-each");
    let dir_s = dir.to_str().unwrap();
    let out = wsnem(&["gen", dir_s, "--field", "lambda=0.25:0.75:3"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    std::fs::copy(fixture("unstable-lambda.toml"), dir.join("unstable.toml")).unwrap();
    std::fs::copy(fixture("deadlock.net.json"), dir.join("deadlock.net.json")).unwrap();

    let whole = wsnem(&["validate", dir_s]);
    assert!(!whole.status.success());
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| !p.ends_with("manifest.json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 5);
    let each: String = files
        .iter()
        .map(|f| stdout(&wsnem(&["validate", f.to_str().unwrap()])))
        .collect();
    assert_eq!(stdout(&whole), each);
    assert!(each.contains("error[E005]"), "{each}");
    assert!(each.contains("error[E007]"), "{each}");
    assert_eq!(each.matches(": ok (scenario `").count(), 3, "{each}");
    let _ = std::fs::remove_dir_all(&dir);
}
