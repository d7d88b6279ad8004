//! End-to-end tests of the distributed surface of the `wsnem` binary:
//! `serve` + `worker` over loopback TCP (including a worker killed
//! mid-run), the zero-worker local fallback of `run --distributed`, the
//! `--scenario-timeout` watchdog diagnostics, and the degradation path for
//! an unopenable result cache.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

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

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsnem-cli-dist-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generate a small fleet into `dir` (lambda × service-mean grid).
fn gen_fleet(dir: &Path, lambda_points: u32) {
    let spec = format!("lambda=0.25:0.75:{lambda_points}");
    let out = wsnem(&[
        "gen",
        dir.to_str().unwrap(),
        "--field",
        &spec,
        "--field",
        "service-mean=0.0625:0.125:2",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

/// A loopback address with a just-free port. The listener is dropped
/// before the coordinator binds; the window for another process to steal
/// the port is tiny and a steal fails the test loudly, not silently.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    format!("127.0.0.1:{}", listener.local_addr().unwrap().port())
}

#[test]
fn serve_with_two_workers_survives_a_mid_run_kill_and_matches_a_local_run() {
    let dir = fresh_dir("serve");
    gen_fleet(&dir, 6); // 12 scenarios: enough shards to spread and reassign
    let addr = free_addr();

    // Coordinator in a child process; workers race it to the socket and
    // reconnect with backoff.
    let serve = Command::new(env!("CARGO_BIN_EXE_wsnem"))
        .args([
            "serve",
            dir.to_str().unwrap(),
            "--addr",
            &addr,
            "--quick",
            "--verbose",
            "--format",
            "csv",
            "--lease-timeout",
            "2",
            "--liveness-timeout",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let faulty = Command::new(env!("CARGO_BIN_EXE_wsnem"))
        .args([
            "worker",
            &addr,
            "--name",
            "faulty",
            "--fault-plan",
            "kill-after=2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn faulty worker");
    // The faulty worker runs alone until its fault fires: it finishes two
    // shards and dies holding its third lease. Only then does the steady
    // worker start — started together, the steady one can drain all 12
    // quick shards before the faulty one connects, and nothing is
    // reassigned.
    let _ = faulty.wait_with_output();
    let steady = Command::new(env!("CARGO_BIN_EXE_wsnem"))
        .args(["worker", &addr, "--name", "steady"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn steady worker");

    let serve_out = serve.wait_with_output().expect("serve exits");
    let serve_err = String::from_utf8_lossy(&serve_out.stderr).into_owned();
    assert!(serve_out.status.success(), "serve stderr: {serve_err}");
    let steady_out = steady.wait_with_output().expect("steady worker exits");
    assert!(
        steady_out.status.success(),
        "steady stderr: {}",
        String::from_utf8_lossy(&steady_out.stderr)
    );

    // The batch line carries the distribution counters; the kill-after
    // worker's leases were reassigned, so the run saw both workers.
    assert!(
        serve_err.contains("distributed: 2 worker(s)"),
        "{serve_err}"
    );
    assert!(serve_err.contains("reassigned"), "{serve_err}");

    // The distributed run populated the fleet's result cache, so a warm
    // local run answers from it — and must agree byte-for-byte with what
    // the coordinator merged.
    let dist_csv = String::from_utf8_lossy(&serve_out.stdout).into_owned();
    let out = wsnem(&[
        "run",
        dir.to_str().unwrap(),
        "--quick",
        "--verbose",
        "--format",
        "csv",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("cache: 12 hit(s), 0 miss(es)"),
        "{}",
        stderr(&out)
    );
    assert_eq!(
        dist_csv,
        stdout(&out),
        "distributed and local merged CSV must be byte-identical"
    );
}

#[test]
fn distributed_run_with_no_workers_falls_back_to_a_local_run() {
    let dir = fresh_dir("fallback");
    gen_fleet(&dir, 2);
    let out = wsnem(&[
        "run",
        dir.to_str().unwrap(),
        "--distributed",
        "127.0.0.1:0",
        "--grace",
        "0.3",
        "--quick",
        "--verbose",
        "--format",
        "csv",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("serving 4 scenario(s) on 127.0.0.1:"), "{err}");
    assert!(
        err.contains(
            "distributed: 0 worker(s), 0 remote + 4 local shard(s), 0 reassigned, local fallback"
        ),
        "{err}"
    );
}

fn slow_des_scenario() -> PathBuf {
    let dir = std::env::temp_dir().join("wsnem-cli-dist-timeout");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("slow-des.toml");
    std::fs::write(
        &path,
        r#"
schema_version = 5
name = "slow-des"
description = "watchdog fixture: a DES horizon no test budget survives"
profile = "Pxa271"
battery = "TwoAa"
backends = ["Des"]

[cpu]
lambda = 0.3
mu = 10.0
power_down_threshold = 0.5
power_up_delay = 0.001
horizon = 5.0e7
warmup = 0.0
replications = 1
master_seed = 7

[report]
energy_horizon_s = 1000.0
"#,
    )
    .unwrap();
    path
}

#[test]
fn scenario_timeout_emits_w006_and_fails_only_under_strict() {
    let path = slow_des_scenario();
    // Without --strict the watchdog is a coded warning and the run exits 0.
    let out = wsnem(&[
        "run",
        path.to_str().unwrap(),
        "--scenario-timeout",
        "0.2",
        "--no-check",
    ]);
    let err = stderr(&out);
    assert!(out.status.success(), "stderr: {err}");
    assert!(err.contains("warning[W006]"), "{err}");
    assert!(err.contains("scenario `slow-des`"), "{err}");
    assert!(err.contains("0.2 s wall-clock watchdog"), "{err}");

    // --strict turns surviving timeouts into a non-zero exit.
    let out = wsnem(&[
        "run",
        path.to_str().unwrap(),
        "--scenario-timeout",
        "0.2",
        "--no-check",
        "--strict",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("hit the --scenario-timeout watchdog (--strict)"),
        "{}",
        stderr(&out)
    );

    // `compare` shares the watchdog: the matrix is skipped with the same
    // diagnostic, and --strict fails the invocation.
    let out = wsnem(&[
        "compare",
        path.to_str().unwrap(),
        "--scenario-timeout",
        "0.2",
        "--no-check",
    ]);
    assert!(!out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("nothing to compare"),
        "{}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("warning[W006]"), "{}", stderr(&out));

    // Bad values are rejected up front.
    let out = wsnem(&["run", path.to_str().unwrap(), "--scenario-timeout", "-1"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--scenario-timeout expects a positive number of seconds"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn unopenable_result_cache_degrades_to_a_warning_and_the_run_proceeds() {
    let dir = fresh_dir("badcache");
    gen_fleet(&dir, 2);
    // Park a regular file where the cache directory goes: open_under fails
    // for as long as the file is there, on any platform, root or not.
    std::fs::write(dir.join(".wsnem-cache"), "not a directory").unwrap();
    let out = wsnem(&["run", dir.to_str().unwrap(), "--quick", "--format", "csv"]);
    let err = stderr(&out);
    assert!(out.status.success(), "stderr: {err}");
    assert!(err.contains("cannot open the result cache under"), "{err}");
    assert!(err.contains("running uncached"), "{err}");
    // No cache counters in the batch line: the fleet ran genuinely
    // uncached. (The warning itself mentions the cache path, so match the
    // counter shape, not the word.)
    assert!(!err.contains("hit(s)"), "{err}");
}
