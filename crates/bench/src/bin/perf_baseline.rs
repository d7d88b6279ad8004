//! Tracked performance baseline: times the key engine benches and writes a
//! machine-readable JSON snapshot (`BENCH_13.json` by default) so future PRs
//! have a perf trajectory to compare against.
//!
//! ```text
//! cargo run --release -p wsnem-bench --bin perf_baseline            # full
//! cargo run --release -p wsnem-bench --bin perf_baseline -- --quick # CI
//! cargo run --release -p wsnem-bench --bin perf_baseline -- -o out.json
//! cargo run --release -p wsnem-bench --bin perf_baseline -- \
//!     --quick --check BENCH_9.json --tolerance 25   # regression gate
//! ```
//!
//! Numbers are per-iteration nanoseconds (min and mean over a wall-clock
//! budget, min being the noise-robust figure). The bench set mirrors
//! `benches/engine.rs`: the paper's CPU EDSPN at its default point and at
//! ρ = 0.9 (few versus ~1300 distinct markings per run), an open arrival
//! stream whose markings never repeat (the marking memo's worst case), the
//! vanishing-resolution pipeline (simulation and GSPN→CTMC elimination),
//! the M/M/1/K token game, the many-timed relay rings that exercise the
//! event-driven engine, and one replication of the DES ground truth under an
//! open Poisson and a closed workload.
//!
//! `--check <baseline.json>` turns the run into a regression gate: every
//! bench present in both runs must keep its min time within `--tolerance`
//! percent (default 25) of the committed baseline, else the process exits
//! non-zero. Min (not mean) is compared, so background load on a shared
//! runner inflates the figure far less than it would the average.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use std::time::{Duration, Instant};

use wsnem_bench::nets::{open_arrivals_net, relay_ring_net, vanishing_pipeline_net};
use wsnem_bench::{quick_mode, render_table};
use wsnem_core::backend::{global, EvalOptions};
use wsnem_core::{build_cpu_edspn, BackendId, CpuModelParams};
use wsnem_des::{ClosedWorkload, CpuDes, CpuRunReport, CpuSimParams, Workload};
use wsnem_petri::analysis::{tangible_chain, ReachOptions};
use wsnem_petri::models::mm1k_net;
use wsnem_petri::{simulate, SimConfig};
use wsnem_stats::dist::Dist;
use wsnem_stats::rng::Xoshiro256PlusPlus;

struct Measurement {
    name: &'static str,
    min_ns: u128,
    mean_ns: u128,
    iters: usize,
}

/// Time `f` repeatedly until `budget` is spent (one untimed warm-up call).
fn measure<O, F: FnMut() -> O>(name: &'static str, budget: Duration, mut f: F) -> Measurement {
    std::hint::black_box(f());
    let started = Instant::now();
    let mut iters = 0usize;
    let mut total_ns = 0u128;
    let mut min_ns = u128::MAX;
    loop {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let ns = t0.elapsed().as_nanos();
        iters += 1;
        total_ns += ns;
        min_ns = min_ns.min(ns);
        if started.elapsed() >= budget || iters >= 20_000 {
            break;
        }
    }
    Measurement {
        name,
        min_ns,
        mean_ns: total_ns / iters as u128,
        iters,
    }
}

fn sim_bench<'a>(
    net: &'a wsnem_petri::PetriNet,
    horizon: f64,
) -> impl FnMut() -> wsnem_petri::SimOutput + 'a {
    let cfg = SimConfig::for_horizon(horizon);
    let mut seed = 0u64;
    move || {
        seed += 1;
        let mut rng = Xoshiro256PlusPlus::new(seed);
        simulate(net, &cfg, &[], &mut rng).expect("simulates")
    }
}

fn des_bench(sim: &CpuDes) -> impl FnMut() -> CpuRunReport + '_ {
    let mut seed = 0u64;
    move || {
        seed += 1;
        sim.run_with_seed(seed)
    }
}

/// Extract `(name, min_ns)` pairs from a baseline JSON written by this tool.
/// Hand-rolled scan — the format is the flat one emitted below, one bench
/// per line: `"name": {"min_ns": N, ...}`.
fn parse_baseline_min_ns(json: &str) -> Vec<(String, u128)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(rest) = line.trim_start().strip_prefix('"') else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(rest) = rest.split_once("\"min_ns\":").map(|(_, r)| r) else {
            continue;
        };
        let digits: String = rest
            .trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(min_ns) = digits.parse() {
            out.push((name.to_owned(), min_ns));
        }
    }
    out
}

/// Gate the measured results against a committed baseline: each bench found
/// in both must stay within `tolerance_pct` of the baseline min time.
fn check_against(
    results: &[Measurement],
    baseline_path: &str,
    tolerance_pct: f64,
) -> Result<(), String> {
    let json = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = parse_baseline_min_ns(&json);
    if baseline.is_empty() {
        return Err(format!("no benches found in baseline {baseline_path}"));
    }
    let mut compared = 0usize;
    let mut regressions = Vec::new();
    for m in results {
        let Some((_, base_min)) = baseline.iter().find(|(n, _)| n == m.name) else {
            println!("check: `{}` not in baseline, skipping", m.name);
            continue;
        };
        compared += 1;
        let drift_pct = 100.0 * (m.min_ns as f64 - *base_min as f64) / *base_min as f64;
        println!(
            "check: {:<36} min {:>10} ns vs baseline {:>10} ns ({:+.1}%)",
            m.name, m.min_ns, base_min, drift_pct
        );
        if drift_pct > tolerance_pct {
            regressions.push(format!(
                "{}: {} ns vs baseline {} ns ({drift_pct:+.1}% > +{tolerance_pct}%)",
                m.name, m.min_ns, base_min
            ));
        }
    }
    if compared == 0 {
        return Err(format!(
            "no overlapping benches between this run and {baseline_path}"
        ));
    }
    if regressions.is_empty() {
        println!("check: {compared} bench(es) within +{tolerance_pct}% of {baseline_path}");
        Ok(())
    } else {
        Err(format!(
            "perf regression vs {baseline_path}:\n  {}",
            regressions.join("\n  ")
        ))
    }
}

fn main() {
    let quick = quick_mode();
    let args: Vec<String> = std::env::args().collect();
    let arg_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = arg_value("-o")
        .or_else(|| arg_value("--output"))
        .unwrap_or_else(|| "BENCH_13.json".to_owned());
    let check_path = arg_value("--check");
    let tolerance_pct: f64 = match arg_value("--tolerance") {
        None => 25.0,
        Some(v) => match v.parse().ok().filter(|t: &f64| *t > 0.0) {
            Some(t) => t,
            None => {
                eprintln!("--tolerance expects a positive percentage, got `{v}`");
                std::process::exit(2);
            }
        },
    };
    let budget = if quick {
        Duration::from_millis(80)
    } else {
        Duration::from_millis(1500)
    };

    let (paper_net, _) = build_cpu_edspn(1.0, 10.0, 0.5, 0.001).expect("paper net builds");
    let (paper_rho09, _) = build_cpu_edspn(9.0, 10.0, 0.1, 5.0).expect("paper net builds");
    let open = open_arrivals_net();
    let (mm1k, _) = mm1k_net(1.0, 2.0, 10).expect("mm1k builds");
    let pipeline = vanishing_pipeline_net(8);
    let ring32 = relay_ring_net(32);
    let ring128 = relay_ring_net(128);
    let ring256 = relay_ring_net(256);
    // The paper's CPU at its default point; horizon 1000 s.
    let des_params = CpuSimParams::exponential_service(10.0, 0.5, 0.001);
    let des_open = CpuDes::new(des_params.clone(), Workload::open_poisson(1.0)).expect("valid");
    let des_closed = CpuDes::new(
        des_params,
        Workload::Closed(ClosedWorkload {
            population: 5,
            think: Dist::Exponential { rate: 0.2 },
        }),
    )
    .expect("valid");

    let mut results = Vec::new();
    results.push(measure(
        "paper_cpu_edspn_1000s",
        budget,
        sim_bench(&paper_net, 1000.0),
    ));
    results.push(measure(
        "paper_cpu_edspn_rho09_1000s",
        budget,
        sim_bench(&paper_rho09, 1000.0),
    ));
    results.push(measure(
        "open_arrivals_sim_2000s",
        budget,
        sim_bench(&open, 2000.0),
    ));
    results.push(measure("mm1k_10000s", budget, sim_bench(&mm1k, 10_000.0)));
    results.push(measure(
        "vanishing_pipeline_sim_1000s",
        budget,
        sim_bench(&pipeline, 1000.0),
    ));
    results.push(measure("vanishing_pipeline_tangible_chain", budget, || {
        tangible_chain(&pipeline, ReachOptions::default()).expect("eliminates")
    }));
    // ~8192 events each: per-event cost comparable across ring sizes.
    results.push(measure("relay_ring_32", budget, sim_bench(&ring32, 256.0)));
    results.push(measure("relay_ring_128", budget, sim_bench(&ring128, 64.0)));
    results.push(measure("relay_ring_256", budget, sim_bench(&ring256, 32.0)));
    results.push(measure("des_cpu_paper_1000s", budget, des_bench(&des_open)));
    results.push(measure(
        "des_cpu_closed_1000s",
        budget,
        des_bench(&des_closed),
    ));
    // One closed-form M/G/1 node evaluation — the per-node cost that bounds
    // the million-node analytic fast path (target: well under 10 µs/node).
    let mg1_params = CpuModelParams::paper_defaults();
    let mg1_opts = EvalOptions::default();
    results.push(measure("mg1_node", budget, || {
        global()
            .solve(BackendId::Mg1, std::hint::black_box(&mg1_params), &mg1_opts)
            .expect("mg1 solves")
    }));

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|m| {
            vec![
                m.name.to_owned(),
                format!("{:.2}", m.min_ns as f64 / 1e3),
                format!("{:.2}", m.mean_ns as f64 / 1e3),
                m.iters.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["bench", "min µs", "mean µs", "iters"], &rows)
    );

    // Flat, dependency-free JSON (keys are known identifiers, no escaping
    // needed).
    let mut json = String::from("{\n  \"schema\": 1,\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"unit\": \"ns_per_iteration\",\n  \"benches\": {\n");
    for (i, m) in results.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"min_ns\": {}, \"mean_ns\": {}, \"iters\": {}}}{}\n",
            m.name,
            m.min_ns,
            m.mean_ns,
            m.iters,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("write baseline json");
    println!("wrote {out_path}");

    if let Some(baseline) = check_path {
        if let Err(msg) = check_against(&results, &baseline, tolerance_pct) {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
