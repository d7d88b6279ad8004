//! Traced in-process pass over the wsnem benchmark workloads.
//!
//! Feeds the benchmark's generated inputs through each layer's public
//! functions, records one span (name, start, end, parent) per call in
//! memory, and writes the spans, the layer counts and every output the
//! harness checks to an output directory once the pass ends. Self times
//! are derived from the spans by `perfbench/run.py`; no span is added
//! inside the program itself.
//!
//! ```text
//! perfbench-trace --fleet DIR --template FILE --threads N --workers W --out DIR
//! ```
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use wsnem_analysis::{CheckOptions, LintConfig, Severity};
use wsnem_core::{BackendId, EvalOptions};
use wsnem_fleetd::{Coordinator, DistStats, ServeOptions, WorkerOptions};
use wsnem_obs::{Counters, NoopObserver};
use wsnem_scenario::cache::{CacheMode, CacheStats, ResultCache};
use wsnem_scenario::report::ScenarioReport;
use wsnem_scenario::runner::BatchMetrics;
use wsnem_scenario::schema::Scenario;
use wsnem_scenario::{
    files, fleet, AggregateNetworkReport, CohortNodeReport, HopDepthPercentile,
    LifetimeHistogramBin,
};
use wsnem_stats::rng::Xoshiro256PlusPlus;

/// Cohort size, histogram bins, hop-depth percentiles and near-unstable
/// threshold of the runner's aggregate report (private to the runner).
const AGGREGATE_COHORT: usize = 10;
const AGGREGATE_BINS: usize = 10;
const AGGREGATE_HOP_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 100.0];
const NEAR_UNSTABLE_RHO: f64 = 0.9;

struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span recorder. Ids start at 1; parent 0 marks a root span.
struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    /// Each push stores a whole span, so a poisoned lock still guards
    /// valid data.
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so nested calls can parent themselves to it.
    fn span<T>(&self, parent: u64, name: &str, f: impl FnOnce(u64) -> T) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos();
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos();
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Span {
                id,
                parent,
                name: name.to_owned(),
                start_ns,
                end_ns,
            });
        out
    }

    fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for s in spans.iter() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Layer counts and ratios written next to the spans.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    fn set(&mut self, key: &'static str, value: f64) {
        self.0.insert(key, value);
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }
}

/// The `wsnem run --format json` envelope, rebuilt from public types.
#[derive(serde::Serialize)]
struct RunEnvelope {
    batch: BatchMetrics,
    cache: Option<CacheStats>,
    distributed: Option<DistStats>,
    reports: Vec<ScenarioReport>,
}

/// The `wsnem check --format json` envelope.
#[derive(serde::Serialize)]
struct CheckEnvelope {
    checked: usize,
    counts: wsnem_analysis::Counts,
    diagnostics: Vec<wsnem_analysis::Diagnostic>,
}

struct Args {
    fleet: PathBuf,
    template: PathBuf,
    threads: usize,
    workers: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut fleet = None;
    let mut template = None;
    let mut threads = None;
    let mut workers = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let count = || {
            value
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("{flag} expects a positive integer, got `{value}`"))
        };
        match flag.as_str() {
            "--fleet" => fleet = Some(PathBuf::from(&value)),
            "--template" => template = Some(PathBuf::from(&value)),
            "--threads" => threads = Some(count()?),
            "--workers" => workers = Some(count()?),
            "--out" => out = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok(Args {
        fleet: fleet.ok_or_else(|| missing("--fleet DIR"))?,
        template: template.ok_or_else(|| missing("--template FILE"))?,
        threads: threads.ok_or_else(|| missing("--threads N"))?,
        workers: workers.ok_or_else(|| missing("--workers N"))?,
        out: out.ok_or_else(|| missing("--out DIR"))?,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write(path: &Path, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("{}: {e}", path.display()))
}

/// Move the fleet's result cache aside (renamed, not deleted: mass
/// deletion slows the file creation that follows it).
fn set_cache_aside(fleet: &Path, tag: &str) -> Result<(), String> {
    let cache = fleet.join(".wsnem-cache");
    if !cache.exists() {
        return Ok(());
    }
    std::fs::rename(&cache, fleet.join(format!(".wsnem-cache-{tag}")))
        .map_err(|e| format!("set cache aside: {e}"))
}

fn run(args: &Args) -> Result<(), String> {
    let t = Tracer::new();
    let mut counts = Counts::default();
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;

    set_cache_aside(&args.fleet, "before-cold")?;
    let scenarios = t.span(0, "fleet-cold", |root| {
        fleet_cold(&t, root, args, &mut counts)
    })?;
    t.span(0, "fleet-warm", |root| {
        fleet_warm(&t, root, args, &mut counts)
    })?;
    t.span(0, "fleet-check", |root| {
        fleet_check(&t, root, args, &mut counts)
    })?;
    set_cache_aside(&args.fleet, "before-dist")?;
    t.span(0, "fleet-dist", |root| {
        fleet_dist(&t, root, args, &mut counts)
    })?;
    t.span(0, "mega-tree", |root| {
        mega_tree(&t, root, args, &mut counts)
    })?;
    t.span(0, "solve-pass", |root| {
        solve_pass(&t, root, &scenarios, &mut counts)
    })?;
    t.span(0, "kernel-pass", |root| {
        kernel_pass(&t, root, &scenarios, &mut counts)
    })?;

    write(&args.out.join("counts.json"), &counts.to_json())?;
    write(&args.out.join("spans.jsonl"), &t.to_jsonl())
}

/// `fleet::discover` plus one `files::parse` per file.
fn load_fleet(t: &Tracer, root: u64, dir: &Path) -> Result<Vec<Scenario>, String> {
    let paths = t
        .span(root, "files.discover", |_| fleet::discover(dir))
        .map_err(|e| e.to_string())?;
    paths
        .iter()
        .map(|p| {
            t.span(root, "files.parse", |_| files::parse(p))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The schema-only preflight `run` performs before simulating.
fn preflight(t: &Tracer, root: u64, scenarios: &[Scenario]) -> Result<(), String> {
    let registry = wsnem_scenario::global_registry();
    let config = LintConfig::default();
    let opts = CheckOptions { only_schema: true };
    for s in scenarios {
        let diags = t.span(root, "analysis.preflight", |_| {
            wsnem_analysis::resolve(wsnem_analysis::check_scenario(s, registry, opts), &config)
        });
        if diags.iter().any(|d| d.severity == Severity::Error) {
            return Err(format!("preflight rejected scenario `{}`", s.name));
        }
    }
    Ok(())
}

/// One `ResultCache::lookup` per scenario; returns the hits.
fn probe(
    t: &Tracer,
    root: u64,
    cache: &ResultCache,
    scenarios: &[Scenario],
) -> Vec<ScenarioReport> {
    scenarios
        .iter()
        .filter_map(|s| {
            t.span(root, "cache.probe", |_| cache.lookup(s))
                .ok()
                .flatten()
        })
        .collect()
}

fn collect_reports<E: std::fmt::Display>(
    results: Vec<Result<ScenarioReport, E>>,
) -> Result<Vec<ScenarioReport>, String> {
    results
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect()
}

fn render_json(t: &Tracer, root: u64, envelope: &RunEnvelope) -> Result<String, String> {
    t.span(root, "report.json", |_| {
        serde_json::to_string_pretty(envelope)
    })
    .map_err(|e| e.to_string())
}

fn fleet_cold(
    t: &Tracer,
    root: u64,
    args: &Args,
    counts: &mut Counts,
) -> Result<Vec<Scenario>, String> {
    let scenarios = load_fleet(t, root, &args.fleet)?;
    preflight(t, root, &scenarios)?;
    let cache = ResultCache::open_under(&args.fleet).map_err(|e| e.to_string())?;
    if !probe(t, root, &cache, &scenarios).is_empty() {
        return Err("cold pass found cached results".into());
    }
    let (results, metrics) = t.span(root, "runner.batch", |_| {
        wsnem_scenario::runner::run_batch_with_metrics(&scenarios, Some(args.threads), None)
    });
    counts.set("runner.busy_s", metrics.busy_seconds);
    counts.set("runner.utilization", metrics.utilization);
    counts.set("runner.workers", metrics.workers as f64);
    let reports = collect_reports(results)?;
    for (s, r) in scenarios.iter().zip(&reports) {
        t.span(root, "cache.store", |_| cache.store(s, r))
            .map_err(|e| e.to_string())?;
    }
    let entry_bytes: u64 = std::fs::read_dir(cache.dir())
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    counts.set(
        "cache.entry_bytes",
        entry_bytes as f64 / scenarios.len() as f64,
    );
    let csv = t.span(root, "report.csv", |_| {
        let mut out = String::from(ScenarioReport::CSV_HEADER);
        out.push('\n');
        for r in &reports {
            for row in r.csv_rows() {
                out.push_str(&row);
                out.push('\n');
            }
        }
        out
    });
    counts.set("report.csv_bytes", csv.len() as f64);
    write(&args.out.join("cold.csv"), &csv)?;
    Ok(scenarios)
}

fn fleet_warm(t: &Tracer, root: u64, args: &Args, counts: &mut Counts) -> Result<(), String> {
    let started = Instant::now();
    let scenarios = load_fleet(t, root, &args.fleet)?;
    preflight(t, root, &scenarios)?;
    let cache = ResultCache::open_under(&args.fleet).map_err(|e| e.to_string())?;
    let reports = probe(t, root, &cache, &scenarios);
    counts.set(
        "cache.hit_ratio",
        reports.len() as f64 / scenarios.len() as f64,
    );
    if reports.len() != scenarios.len() {
        return Err(format!(
            "warm pass hit {} of {}",
            reports.len(),
            scenarios.len()
        ));
    }
    let n = reports.len();
    let json = render_json(
        t,
        root,
        &RunEnvelope {
            batch: BatchMetrics::new(n, 1, started.elapsed().as_secs_f64(), 0.0),
            cache: Some(CacheStats { hits: n, misses: 0 }),
            distributed: None,
            reports,
        },
    )?;
    counts.set("report.json_bytes", json.len() as f64);
    write(&args.out.join("warm.json"), &json)
}

fn fleet_check(t: &Tracer, root: u64, args: &Args, counts: &mut Counts) -> Result<(), String> {
    let registry = wsnem_scenario::global_registry();
    let paths = t
        .span(root, "files.discover", |_| fleet::discover(&args.fleet))
        .map_err(|e| e.to_string())?;
    let mut diagnostics = Vec::new();
    for path in &paths {
        let s = t
            .span(root, "files.parse", |_| files::parse(path))
            .map_err(|e| e.to_string())?;
        let mut found = t.span(root, "analysis.net_passes", |_| {
            wsnem_analysis::check_scenario(&s, registry, CheckOptions { only_schema: false })
        });
        for d in &mut found {
            d.location
                .file
                .get_or_insert_with(|| path.display().to_string());
        }
        diagnostics.extend(found);
    }
    let diagnostics = wsnem_analysis::resolve(diagnostics, &LintConfig::default());
    counts.set("analysis.diagnostics", diagnostics.len() as f64);
    let envelope = CheckEnvelope {
        checked: paths.len(),
        counts: wsnem_analysis::counts(&diagnostics),
        diagnostics,
    };
    let json = t
        .span(root, "report.check_json", |_| {
            serde_json::to_string_pretty(&envelope)
        })
        .map_err(|e| e.to_string())?;
    write(&args.out.join("check.json"), &json)
}

fn fleet_dist(t: &Tracer, root: u64, args: &Args, counts: &mut Counts) -> Result<(), String> {
    let scenarios = load_fleet(t, root, &args.fleet)?;
    preflight(t, root, &scenarios)?;
    let cache = ResultCache::open_under(&args.fleet).map_err(|e| e.to_string())?;
    let cache_refs: Vec<Option<&ResultCache>> = scenarios.iter().map(|_| Some(&cache)).collect();
    let coord = t
        .span(root, "fleetd.bind", |_| {
            Coordinator::bind(
                &scenarios,
                &cache_refs,
                CacheMode::ReadWrite,
                ServeOptions {
                    addr: "127.0.0.1:0".into(),
                    threads: Some(args.threads),
                    ..ServeOptions::default()
                },
            )
        })
        .map_err(|e| e.to_string())?;
    let addr = coord.local_addr().map_err(|e| e.to_string())?.to_string();
    let (outcome, run_seconds) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..args.workers)
            .map(|i| {
                let addr = addr.clone();
                scope.spawn(move || {
                    t.span(root, "fleetd.worker", |_| {
                        let opts = WorkerOptions {
                            name: format!("perfbench-worker-{i}"),
                            ..WorkerOptions::default()
                        };
                        wsnem_fleetd::run_worker(&addr, opts)
                    })
                })
            })
            .collect();
        let started = Instant::now();
        let outcome = t.span(root, "fleetd.run", |_| coord.run(None));
        let run_seconds = started.elapsed().as_secs_f64();
        for w in workers {
            w.join()
                .map_err(|_| "worker thread panicked".to_string())?
                .map_err(|e| format!("worker: {e}"))?;
        }
        Ok::<_, String>((outcome.map_err(|e| e.to_string())?, run_seconds))
    })?;
    let dist = outcome.dist;
    let reports = collect_reports(outcome.results)?;
    let worker_seconds: f64 = reports.iter().map(|r| r.elapsed_seconds).sum();
    counts.set(
        "fleetd.worker_busy_frac",
        worker_seconds / (args.workers as f64 * run_seconds),
    );
    counts.set("fleetd.shards_remote", dist.shards_remote as f64);
    counts.set("fleetd.reassigned", dist.reassigned as f64);
    counts.set("fleetd.rejected_frames", dist.rejected_frames as f64);
    let json = render_json(
        t,
        root,
        &RunEnvelope {
            batch: outcome.metrics,
            cache: Some(outcome.cache),
            distributed: Some(dist),
            reports,
        },
    )?;
    write(&args.out.join("dist.json"), &json)
}

fn mega_tree(t: &Tracer, root: u64, args: &Args, counts: &mut Counts) -> Result<(), String> {
    let registry = wsnem_scenario::global_registry();
    let s = t
        .span(root, "files.parse", |_| files::parse(&args.template))
        .map_err(|e| e.to_string())?;
    preflight(t, root, std::slice::from_ref(&s))?;
    let profile = s.profile.build().map_err(|e| e.to_string())?;
    let battery = s.battery.build().map_err(|e| e.to_string())?;
    // The runner evaluates the network on the cheapest requested backend.
    let backend = s
        .backends
        .iter()
        .copied()
        .min_by_key(|&b| registry.capabilities_of(b).map_or(u8::MAX, |c| c.cost_rank))
        .ok_or("template scenario lists no backend")?;
    let opts = EvalOptions::default().with_service(s.service.unwrap_or_default());
    t.span(root, &format!("core.solve.{backend}"), |_| {
        registry.solve(backend, &s.cpu, &opts)
    })
    .map_err(|e| e.to_string())?;
    let spec = s
        .network
        .as_ref()
        .ok_or("template scenario has no network")?;
    let soa = t
        .span(root, "wsn.build_soa", |_| {
            spec.build_soa(s.cpu, &profile, &battery)
        })
        .map_err(|e| e.to_string())?;
    t.span(root, "wsn.routing", |_| soa.routing())?;
    let analysis = t
        .span(root, "wsn.node_eval", |_| {
            soa.analyze_with(registry, backend, &EvalOptions::default(), None)
        })
        .map_err(|e| e.to_string())?;
    counts.set("wsn.nodes", soa.len() as f64);
    let json = t
        .span(root, "wsn.aggregate", |_| {
            serde_json::to_string_pretty(&aggregate_report(spec, backend, &soa, &analysis))
        })
        .map_err(|e| e.to_string())?;
    write(&args.out.join("mega.json"), &json)
}

/// The runner's `AggregateNetworkReport`, built from the public
/// `SoaAnalysis` accessors with the runner's cohort, bin and percentile
/// settings.
fn aggregate_report(
    spec: &wsnem_scenario::NetworkSpec,
    backend: BackendId,
    soa: &wsnem_wsn::SoaNetwork,
    a: &wsnem_wsn::SoaAnalysis,
) -> AggregateNetworkReport {
    let name = |i: Option<usize>| i.map(|i| soa.name(i)).unwrap_or_default();
    AggregateNetworkReport {
        backend,
        topology: spec
            .topology
            .as_ref()
            .map_or("star", |t| t.label())
            .to_owned(),
        node_count: soa.len() as u64,
        first_death_days: a.first_death_days(),
        mean_lifetime_days: a.mean_lifetime_days(),
        total_power_mw: a.total_power_mw(),
        sink_arrival_pkts_s: a.sink_arrival_pkts_s,
        max_hop_depth: a.max_hop_depth(),
        bottleneck: name(a.bottleneck()),
        bottleneck_relay: name(a.bottleneck_relay()),
        hop_depth_percentiles: a
            .hop_depth_percentiles(&AGGREGATE_HOP_PERCENTILES)
            .into_iter()
            .map(|(percentile, hop_depth)| HopDepthPercentile {
                percentile,
                hop_depth,
            })
            .collect(),
        lifetime_histogram: a
            .lifetime_histogram(AGGREGATE_BINS)
            .into_iter()
            .map(|b| LifetimeHistogramBin {
                lo_days: b.lo,
                hi_days: b.hi,
                count: b.count,
            })
            .collect(),
        worst_lifetime_cohort: a
            .worst_lifetime_cohort(AGGREGATE_COHORT)
            .into_iter()
            .map(|i| CohortNodeReport {
                name: soa.name(i),
                hop_depth: a.depths[i],
                forwarded_rx_pkts_s: a.forwarded[i],
                rho: a.rho[i],
                total_power_mw: a.total_power_mw[i],
                lifetime_days: a.lifetime_days[i],
            })
            .collect(),
        near_unstable_count: a.near_unstable_count(NEAR_UNSTABLE_RHO) as u64,
        near_unstable_rho: NEAR_UNSTABLE_RHO,
        radio: spec
            .radio
            .as_ref()
            .map_or(wsnem_wsn::DEFAULT_RADIO_PRESET, |r| r.label())
            .to_owned(),
    }
}

/// Every backend of every scenario through `BackendRegistry::solve`, one
/// thread, one span per solve; plus the exact `Mg1` closed form as the
/// reference for the simulated backends' error.
fn solve_pass(
    t: &Tracer,
    root: u64,
    scenarios: &[Scenario],
    counts: &mut Counts,
) -> Result<(), String> {
    let registry = wsnem_scenario::global_registry();
    let mut solves = 0usize;
    let mut err_pp_sum = 0.0;
    for s in scenarios {
        let opts = EvalOptions::default()
            .with_threads(Some(1))
            .with_service(s.service.unwrap_or_default());
        let solve = |b: BackendId| {
            t.span(root, &format!("core.solve.{b}"), |_| {
                registry.solve(b, &s.cpu, &opts)
            })
            .map(|e| e.fractions.as_array())
            .map_err(|e| e.to_string())
        };
        let exact = solve(BackendId::Mg1)?;
        let mut worst: f64 = 0.0;
        for &b in &s.backends {
            let fractions = solve(b)?;
            solves += 1;
            if registry.capabilities_of(b).is_some_and(|c| !c.analytic) {
                for (x, e) in fractions.iter().zip(&exact) {
                    worst = worst.max(100.0 * (x - e).abs());
                }
            }
        }
        err_pp_sum += worst;
    }
    counts.set("core.solves", solves as f64);
    counts.set("sim_err_pp", err_pp_sum / scenarios.len() as f64);
    Ok(())
}

/// One replication per scenario on each simulation kernel: twice with a
/// `Counters` observer (the counts must repeat exactly), once with the
/// `NoopObserver` for timing. Both observers drive identical trajectories.
fn kernel_pass(
    t: &Tracer,
    root: u64,
    scenarios: &[Scenario],
    counts: &mut Counts,
) -> Result<(), String> {
    let mut firings = [0u64; 2];
    let mut events = [0u64; 2];
    for s in scenarios {
        let cpu = s.cpu;
        let (net, handles) = wsnem_core::build_cpu_edspn(
            cpu.lambda,
            cpu.mu,
            cpu.power_down_threshold,
            cpu.power_up_delay,
        )
        .map_err(|e| e.to_string())?;
        let rewards = wsnem_core::state_rewards(&handles);
        let cfg = wsnem_petri::SimConfig {
            horizon: cpu.horizon,
            warmup: 0.0,
            ..wsnem_petri::SimConfig::default()
        };
        let des = wsnem_des::CpuDes::new(
            wsnem_des::CpuSimParams {
                service: wsnem_stats::dist::Dist::Exponential { rate: cpu.mu },
                power_down_threshold: cpu.power_down_threshold,
                power_up_delay: cpu.power_up_delay,
                horizon: cpu.horizon,
                warmup: 0.0,
                max_queue: None,
            },
            wsnem_des::Workload::open_poisson(cpu.lambda),
        )
        .map_err(|e| e.to_string())?;
        let rng = || Xoshiro256PlusPlus::new(cpu.master_seed);
        for pass in 0..2 {
            let mut c = Counters::new();
            t.span(root, "petri.counted", |_| {
                wsnem_petri::simulate_observed(&net, &cfg, &rewards, &mut rng(), &mut c)
            })
            .map_err(|e| e.to_string())?;
            firings[pass] += c.snapshot().firings;
            let mut c = Counters::new();
            std::hint::black_box(t.span(root, "des.counted", |_| {
                des.run_observed(&mut rng(), &mut c)
            }));
            events[pass] += c.snapshot().events;
        }
        t.span(root, "petri.noop", |_| {
            wsnem_petri::simulate_observed(&net, &cfg, &rewards, &mut rng(), &mut NoopObserver)
        })
        .map_err(|e| e.to_string())?;
        std::hint::black_box(t.span(root, "des.noop", |_| {
            des.run_observed(&mut rng(), &mut NoopObserver)
        }));
    }
    if firings[0] != firings[1] || events[0] != events[1] {
        return Err(format!(
            "kernel counts did not repeat: firings {firings:?}, events {events:?}"
        ));
    }
    counts.set("petri.firings", firings[0] as f64);
    counts.set("des.events", events[0] as f64);
    Ok(())
}
