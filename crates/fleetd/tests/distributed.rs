//! End-to-end distributed runs over loopback TCP: a real coordinator, real
//! worker threads, scripted faults — and the tentpole invariant that a
//! fleet completed under worker crashes merges to the byte-identical CSV a
//! local run produces.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants

use std::net::TcpStream;
use std::time::Duration;

use wsnem_fleetd::protocol::{read_message, write_message, FrameError, Message, PROTOCOL_VERSION};
use wsnem_fleetd::{
    run_worker, Coordinator, FaultPlan, FleetdError, ServeOptions, ServeOutcome, WorkerOptions,
    WorkerSummary,
};
use wsnem_scenario::runner::run_scenario;
use wsnem_scenario::{
    builtin, run_cached, BackendId, CacheMode, CacheStats, PhaseSeconds, ResultCache, Scenario,
    ScenarioError, ScenarioReport,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wsnem-fleetd-test-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small all-miss fleet: distinct λ per point, fast Markov backend.
fn quick_fleet(n: usize) -> Vec<Scenario> {
    (0..n)
        .map(|i| {
            let mut s = builtin::paper_defaults();
            s.name = format!("pt-{i}");
            s.backends = vec![BackendId::Markov];
            s.cpu = s
                .cpu
                .with_replications(2)
                .with_horizon(200.0)
                .with_lambda(0.3 + 0.05 * i as f64);
            s
        })
        .collect()
}

fn sopts() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        ..ServeOptions::default()
    }
}

fn wopts(name: &str) -> WorkerOptions {
    WorkerOptions {
        name: name.into(),
        max_retries: 8,
        backoff_base_ms: 20,
        backoff_cap_ms: 200,
        heartbeat_ms: 100,
        ..WorkerOptions::default()
    }
}

/// Bind on a free port, run the coordinator with worker threads attached
/// (each optionally delayed), join everything.
fn run_distributed(
    scenarios: &[Scenario],
    caches: &[Option<&ResultCache>],
    mode: CacheMode,
    opts: ServeOptions,
    workers: Vec<(WorkerOptions, u64)>,
) -> (ServeOutcome, Vec<Result<WorkerSummary, FleetdError>>) {
    let coord = Coordinator::bind(scenarios, caches, mode, opts).unwrap();
    let addr = coord.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|(w, delay_ms)| {
                let addr = addr.clone();
                scope.spawn(move || {
                    std::thread::sleep(Duration::from_millis(delay_ms));
                    run_worker(&addr, w)
                })
            })
            .collect();
        let outcome = coord.run(None).unwrap();
        let summaries: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (outcome, summaries)
    })
}

/// A report with its wall-clock fields zeroed: distributed and local runs
/// must agree on every *model* number; only timing is machine-dependent.
fn normalized(r: &ScenarioReport) -> ScenarioReport {
    let mut r = r.clone();
    r.elapsed_seconds = 0.0;
    r.phase_seconds = PhaseSeconds::default();
    for b in &mut r.backends {
        b.eval_seconds = 0.0;
    }
    r
}

fn merged_csv(results: &[Result<ScenarioReport, ScenarioError>]) -> Vec<String> {
    results
        .iter()
        .flat_map(|r| r.as_ref().unwrap().csv_rows())
        .collect()
}

#[test]
fn two_workers_complete_a_fleet_byte_identical_to_a_local_run() {
    let dir = temp_dir("happy");
    let scenarios = quick_fleet(8);
    let cache = ResultCache::open_under(&dir).unwrap();
    let caches: Vec<Option<&ResultCache>> = scenarios.iter().map(|_| Some(&cache)).collect();

    let (outcome, summaries) = run_distributed(
        &scenarios,
        &caches,
        CacheMode::ReadWrite,
        sopts(),
        vec![(wopts("w1"), 0), (wopts("w2"), 0)],
    );

    assert_eq!(outcome.cache, CacheStats { hits: 0, misses: 8 });
    assert_eq!(outcome.dist.shards_total, 8);
    assert_eq!(outcome.dist.shards_remote, 8);
    assert_eq!(outcome.dist.shards_local, 0);
    assert_eq!(outcome.dist.duplicate_results, 0);
    assert_eq!(outcome.dist.rejected_frames, 0);
    assert_eq!(outcome.dist.reassigned, 0);
    assert!(!outcome.dist.fell_back_local);
    assert!(outcome.dist.workers_seen >= 1);
    // Every shard was worked exactly once, by whichever workers made it in
    // before the fleet drained (a straggler may find the party over).
    let done: u32 = summaries
        .iter()
        .filter_map(|s| s.as_ref().ok())
        .map(|s| s.shards_done)
        .sum();
    assert_eq!(done, 8, "summaries: {summaries:?}");

    // The distributed run populated the coordinator's cache; a warm local
    // run answers verbatim from it — merged CSV byte-identical.
    let (warm, _, stats) = run_cached(&scenarios, &caches, Some(1), CacheMode::ReadWrite, None);
    assert_eq!(stats, CacheStats { hits: 8, misses: 0 });
    for (d, w) in outcome.results.iter().zip(&warm) {
        assert_eq!(d.as_ref().unwrap(), w.as_ref().unwrap());
    }
    assert_eq!(merged_csv(&outcome.results), merged_csv(&warm));

    // And the model numbers match a from-scratch local computation.
    let none: Vec<Option<&ResultCache>> = scenarios.iter().map(|_| None).collect();
    let (local, _, _) = run_cached(&scenarios, &none, Some(2), CacheMode::Disabled, None);
    for (d, l) in outcome.results.iter().zip(&local) {
        assert_eq!(
            normalized(d.as_ref().unwrap()),
            normalized(l.as_ref().unwrap())
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_matrix_every_class_recovers_to_a_complete_identical_fleet() {
    struct Case {
        tag: &'static str,
        plan: &'static str,
        opts: ServeOptions,
        expect_reassigned: bool,
        expect_rejected: bool,
    }
    let cases = [
        Case {
            tag: "kill",
            plan: "kill-after=1",
            opts: sopts(),
            expect_reassigned: true,
            expect_rejected: false,
        },
        Case {
            tag: "drop-mid-frame",
            plan: "drop-mid-frame=1",
            opts: sopts(),
            expect_reassigned: true,
            expect_rejected: true,
        },
        Case {
            tag: "corrupt-frame",
            plan: "corrupt-frame=1",
            opts: sopts(),
            expect_reassigned: true,
            expect_rejected: true,
        },
        Case {
            tag: "delay-heartbeat",
            plan: "delay-heartbeat=0:900",
            opts: ServeOptions {
                liveness_seconds: 0.3,
                lease_seconds: 0.5,
                ..sopts()
            },
            expect_reassigned: true,
            expect_rejected: false,
        },
    ];

    let scenarios = quick_fleet(6);
    let caches: Vec<Option<&ResultCache>> = scenarios.iter().map(|_| None).collect();
    let (local, _, _) = run_cached(&scenarios, &caches, Some(2), CacheMode::Disabled, None);
    let reference: Vec<ScenarioReport> = local
        .iter()
        .map(|r| normalized(r.as_ref().unwrap()))
        .collect();

    // One shard slot is the classic worker; two slots share the faulty
    // connection, so the fault also cuts a sibling slot's lease or read.
    for (threads, case) in [Some(1), Some(2)]
        .into_iter()
        .flat_map(|t| cases.iter().map(move |c| (t, c)))
    {
        let tag = format!("{} threads={threads:?}", case.tag);
        let faulty = WorkerOptions {
            fault_plan: FaultPlan::parse(case.plan).unwrap(),
            threads,
            ..wopts("faulty")
        };
        // The faulty worker connects first so its fault is guaranteed to
        // fire on a real shard; the good worker arrives late and mops up.
        let (outcome, summaries) = run_distributed(
            &scenarios,
            &caches,
            CacheMode::Disabled,
            case.opts.clone(),
            vec![(faulty, 0), (wopts("good"), 150)],
        );

        // Completion invariant: every scenario has exactly one Ok result,
        // no row missing, no row duplicated, numbers identical to local.
        assert_eq!(outcome.results.len(), 6, "{tag}");
        for (i, (got, want)) in outcome.results.iter().zip(&reference).enumerate() {
            let got = got.as_ref().unwrap_or_else(|e| panic!("{tag} [{i}]: {e}"));
            assert_eq!(&normalized(got), want, "{tag} [{i}]");
        }
        assert_eq!(outcome.dist.shards_remote, 6, "{tag}");
        assert_eq!(outcome.dist.shards_local, 0, "{tag}");
        assert!(!outcome.dist.fell_back_local, "{tag}");
        if case.expect_reassigned {
            assert!(
                outcome.dist.reassigned >= 1,
                "{tag}: expected a lease reassignment, dist = {:?}",
                outcome.dist
            );
        }
        if case.expect_rejected {
            assert!(
                outcome.dist.rejected_frames >= 1,
                "{tag}: expected a rejected frame, dist = {:?}",
                outcome.dist
            );
        }
        if case.tag == "kill" {
            let s = summaries[0]
                .as_ref()
                .unwrap_or_else(|e| panic!("{tag}: faulty worker errored: {e}"));
            assert!(
                s.killed,
                "{tag}: kill-after must terminate the worker: {s:?}"
            );
        }
        // The faulty worker may legitimately finish with GaveUp if it was
        // still reconnecting when the fleet drained; the good worker's
        // summary plus the coordinator counters above prove completion.
    }
}

#[test]
fn one_worker_with_two_shard_slots_completes_a_fleet_identical_to_a_local_run() {
    // DES as well as Markov: a two-slot worker runs each shard's
    // replications on one thread, and the numbers must not notice.
    let scenarios: Vec<Scenario> = quick_fleet(7)
        .into_iter()
        .map(|mut s| {
            s.backends = vec![BackendId::Markov, BackendId::Des];
            s
        })
        .collect();
    let caches: Vec<Option<&ResultCache>> = scenarios.iter().map(|_| None).collect();
    let worker = WorkerOptions {
        threads: Some(2),
        ..wopts("two-slot")
    };
    let (outcome, summaries) = run_distributed(
        &scenarios,
        &caches,
        CacheMode::Disabled,
        sopts(),
        vec![(worker, 0)],
    );
    let s = summaries[0].as_ref().unwrap();
    assert_eq!(s.shards_done, 7, "{s:?}");
    assert_eq!(s.sessions, 1, "{s:?}");
    assert_eq!(outcome.dist.workers_seen, 1);
    assert_eq!(outcome.dist.shards_remote, 7);
    assert_eq!(outcome.dist.reassigned, 0);
    assert_eq!(outcome.dist.duplicate_results, 0);
    assert_eq!(outcome.dist.rejected_frames, 0);

    let (local, _, _) = run_cached(&scenarios, &caches, Some(1), CacheMode::Disabled, None);
    for (d, l) in outcome.results.iter().zip(&local) {
        assert_eq!(
            normalized(d.as_ref().unwrap()),
            normalized(l.as_ref().unwrap())
        );
    }
}

#[test]
fn zero_workers_falls_back_to_a_local_run_within_the_grace_window() {
    let scenarios = quick_fleet(4);
    let caches: Vec<Option<&ResultCache>> = scenarios.iter().map(|_| None).collect();
    let opts = ServeOptions {
        grace_seconds: 0.3,
        ..sopts()
    };
    let (outcome, summaries) =
        run_distributed(&scenarios, &caches, CacheMode::Disabled, opts, Vec::new());
    assert!(summaries.is_empty());
    assert!(outcome.dist.fell_back_local);
    assert_eq!(outcome.dist.workers_seen, 0);
    assert_eq!(outcome.dist.shards_local, 4);
    assert_eq!(outcome.dist.shards_remote, 0);

    let (local, _, _) = run_cached(&scenarios, &caches, Some(2), CacheMode::Disabled, None);
    for (d, l) in outcome.results.iter().zip(&local) {
        assert_eq!(
            normalized(d.as_ref().unwrap()),
            normalized(l.as_ref().unwrap())
        );
    }
}

#[test]
fn rejoining_worker_answers_from_its_local_cache() {
    let dir = temp_dir("rejoin");
    let scenarios = quick_fleet(5);
    let caches: Vec<Option<&ResultCache>> = scenarios.iter().map(|_| None).collect();
    let worker_cache = dir.join("worker-cache");

    let cold_opts = WorkerOptions {
        cache_dir: Some(worker_cache.clone()),
        ..wopts("w")
    };
    let (first, summaries) = run_distributed(
        &scenarios,
        &caches,
        CacheMode::Disabled,
        sopts(),
        vec![(cold_opts.clone(), 0)],
    );
    let s = summaries[0].as_ref().unwrap();
    assert_eq!(s.shards_done, 5);
    assert_eq!(s.cache_hits, 0);

    // Same fleet again (the coordinator's cache is disabled, so all five
    // shards go out again): the rejoining worker answers every one from
    // its own cache without recomputing — and verbatim, so the reports are
    // bit-identical to the first run's, timing included.
    let (second, summaries) = run_distributed(
        &scenarios,
        &caches,
        CacheMode::Disabled,
        sopts(),
        vec![(cold_opts, 0)],
    );
    let s = summaries[0].as_ref().unwrap();
    assert_eq!(s.shards_done, 5);
    assert_eq!(s.cache_hits, 5);
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
    }
    assert_eq!(merged_csv(&first.results), merged_csv(&second.results));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_timeout_propagates_to_workers_as_typed_failures() {
    let mut slow = builtin::paper_defaults();
    slow.name = "slow".into();
    slow.backends = vec![BackendId::Des];
    slow.cpu = slow.cpu.with_replications(1).with_horizon(5.0e7);
    let mut fast = builtin::paper_defaults();
    fast.name = "fast".into();
    fast.backends = vec![BackendId::Markov];
    fast.cpu = fast.cpu.with_replications(2).with_horizon(200.0);
    let scenarios = vec![slow, fast];
    let caches: Vec<Option<&ResultCache>> = vec![None, None];

    let opts = ServeOptions {
        timeout_seconds: Some(0.2),
        ..sopts()
    };
    let (outcome, summaries) = run_distributed(
        &scenarios,
        &caches,
        CacheMode::Disabled,
        opts,
        vec![(wopts("w"), 0)],
    );
    // The runaway DES point came back as a typed watchdog failure carrying
    // the coordinator's budget; the analytic point completed normally.
    assert!(
        matches!(
            &outcome.results[0],
            Err(ScenarioError::Timeout { seconds }) if (*seconds - 0.2).abs() < 1e-9
        ),
        "{:?}",
        outcome.results[0]
    );
    assert!(outcome.results[1].is_ok(), "{:?}", outcome.results[1]);
    assert_eq!(outcome.dist.shards_remote, 2);
    let s = summaries[0].as_ref().unwrap();
    assert_eq!(s.shards_done, 2, "failed shards still count as answered");
}

#[test]
fn raw_client_duplicates_version_skew_and_unknown_digests_are_contained() {
    let scenarios = quick_fleet(2);
    let caches: Vec<Option<&ResultCache>> = vec![None, None];
    let coord = Coordinator::bind(&scenarios, &caches, CacheMode::Disabled, sopts()).unwrap();
    let addr = coord.local_addr().unwrap();

    let outcome = std::thread::scope(|scope| {
        let run = scope.spawn(|| coord.run(None).unwrap());

        let mut s = TcpStream::connect(addr).unwrap();
        let hello = Message::Hello {
            worker: "raw".into(),
            protocol: PROTOCOL_VERSION,
        };
        write_message(&mut s, &hello).unwrap();
        let Some(Message::Welcome { shards, .. }) = read_message(&mut s).unwrap() else {
            panic!("expected Welcome");
        };
        assert_eq!(shards, 2);

        // A connection speaking the wrong protocol revision is cut off.
        {
            let mut old = TcpStream::connect(addr).unwrap();
            let bad_hello = Message::Hello {
                worker: "old".into(),
                protocol: PROTOCOL_VERSION + 1,
            };
            write_message(&mut old, &bad_hello).unwrap();
            assert!(matches!(
                read_message(&mut old),
                Err(FrameError::Closed) | Err(FrameError::Io(_))
            ));
        }

        // A result for a digest that is not a shard is rejected without
        // dropping the connection.
        let bogus = Message::Result {
            digest: "not-a-shard".into(),
            report: "{}".into(),
        };
        write_message(&mut s, &bogus).unwrap();

        let request = Message::Request {
            worker: "raw".into(),
        };
        let complete_next = |s: &mut TcpStream, dup: bool| {
            write_message(s, &request).unwrap();
            let Some(Message::Assign { digest, scenario }) = read_message(s).unwrap() else {
                panic!("expected Assign");
            };
            let parsed: Scenario = serde_json::from_str(&scenario).unwrap();
            let report = serde_json::to_string(&run_scenario(&parsed).unwrap()).unwrap();
            let result = Message::Result { digest, report };
            write_message(s, &result).unwrap();
            if dup {
                write_message(s, &result).unwrap();
            }
        };
        complete_next(&mut s, true);
        complete_next(&mut s, false);

        // Drain until the coordinator declares the fleet complete.
        write_message(&mut s, &request).unwrap();
        loop {
            match read_message(&mut s) {
                Ok(Some(Message::Done)) | Err(_) => break,
                Ok(_) => {}
            }
        }
        run.join().unwrap()
    });

    assert_eq!(outcome.dist.duplicate_results, 1);
    assert_eq!(outcome.dist.rejected_frames, 1);
    assert_eq!(outcome.dist.shards_remote, 2);
    // The version-skewed connection never completed a Hello, so only the
    // raw client registered.
    assert_eq!(outcome.dist.workers_seen, 1);
    for r in &outcome.results {
        assert!(r.is_ok());
    }
}
