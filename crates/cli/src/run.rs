//! `run`, `serve` and `profile`: gather scenarios from builtins, files and
//! fleet directories, run them with a live progress line, locally or over
//! TCP, and render the reports.

use std::collections::HashMap;
use std::io::IsTerminal;
use std::path::Path;
use std::time::Instant;

use wsnem_fleetd::{Coordinator, DistStats, ServeOptions};
use wsnem_scenario::{
    builtin, files, fleet, BatchMetrics, CacheMode, CacheStats, ResultCache, Scenario,
    ScenarioReport, DEFAULT_SUMMARY_NODE_LIMIT,
};
use wsnem_stats::par;

use crate::args::{self, switch, value, Args, Flag};
use crate::out;

/// What to run and how: the flags `run`, `serve` and `profile` share.
#[rustfmt::skip]
pub(crate) const SCENARIO_FLAGS: &[Flag] = &[
    switch(&["--all"],                     &["Run every built-in scenario"]),
    value(&["--builtin"], "<NAME>",        &["Run one built-in (repeatable)"]),
    value(&["--all-files"], "<DIR>",       &["Run every scenario file in DIR (same as passing the",
                                             "directory as a positional argument; repeatable)"]),
    switch(&["--quick"],                   &["Shrink replications/horizons for a fast smoke run"]),
    switch(&["--no-cache"],                &["Neither read nor write the directory result cache"]),
    switch(&["--refresh"],                 &["Re-simulate everything, overwriting cached results"]),
    switch(&["--strict"],                  &["Make duplicate scenario names an error instead of a",
                                             "skip-with-warning"]),
    switch(&["--no-check"],                &["Skip the static preflight (run/compare check every",
                                             "scenario first; errors abort before any event fires,",
                                             "warnings go to stderr)"]),
    switch(&["--verbose", "-v"],           &["Show the live progress line even without a TTY and",
                                             "print batch metrics (workers, utilization) at the end"]),
    switch(&["--quiet", "-q"],             &["Suppress the progress line and informational stderr"]),
];

#[rustfmt::skip]
pub(crate) const RUN_FLAGS: &[Flag] = &[
    value(&["--format"], "<FMT>",          &["Output format: summary (default), json, csv"]),
    value(&["--out", "-o"], "<FILE>",      &["Write the report there instead of stdout"]),
    value(&["--threads"], "<N>",           &["Parallelism across scenarios, and across fleet files",
                                             "parsed and reports rendered (default: all cores)"]),
    value(&["--limit"], "<N>",             &["Per-node lines in a summary's network section before",
                                             "an \"… and K more\" footer (default 50)"]),
    value(&["--scenario-timeout"], "<SECS>", &["Per-scenario wall-clock watchdog: a scenario that",
                                             "exceeds it is marked failed with a W006 diagnostic",
                                             "instead of hanging the batch; exits non-zero only",
                                             "under --strict"]),
    value(&["--distributed"], "<ADDR>",    &["Serve this run's shards to `wsnem worker` processes",
                                             "from ADDR (host:port) instead of simulating",
                                             "in-process; equivalent to `wsnem serve --addr ADDR`,",
                                             "and takes the serve options other than --addr"]),
];

#[rustfmt::skip]
pub(crate) const SERVE_FLAGS: &[Flag] = &[
    value(&["--addr"], "<ADDR>",           &["Listen address (default 127.0.0.1:7177; port 0",
                                             "picks a free port, announced on stderr)"]),
];

/// The coordinator's timing, for `serve` and `run --distributed`.
#[rustfmt::skip]
pub(crate) const COORDINATOR_FLAGS: &[Flag] = &[
    value(&["--grace"], "<SECS>",          &["Zero-worker grace window before the remaining",
                                             "shards run in-process (default 10)"]),
    value(&["--lease-timeout"], "<SECS>",  &["Shard lease: a leased shard whose worker neither",
                                             "heartbeats nor answers within this window is",
                                             "reassigned (default 30)"]),
    value(&["--liveness-timeout"], "<SECS>", &["Connection liveness: a worker silent for this long",
                                             "is reaped and its leases reassigned (default 10)"]),
];

#[rustfmt::skip]
pub(crate) const PROFILE_FLAGS: &[Flag] = &[
    value(&["--threads"], "<N>",           &["Parallelism across scenarios and fleet files parsed",
                                             "(default: all cores)"]),
    value(&["--scenario-timeout"], "<SECS>", &["Per-scenario wall-clock watchdog: a scenario that",
                                             "exceeds it is marked failed"]),
];

/// One `run`, `serve` or `profile` invocation: its arguments, and what its
/// valued flags come to, each checked before any work starts.
struct RunOptions<'a> {
    args: &'a Args,
    format: &'a str,
    threads: Option<usize>,
    cache: CacheMode,
    /// Suppress informational stderr (`--quiet`; `profile` is quiet unless
    /// `--verbose`).
    quiet: bool,
    /// Per-node lines in a summary's network section (`--limit`).
    node_limit: usize,
    /// Per-scenario wall-clock watchdog in seconds (`--scenario-timeout`).
    scenario_timeout: Option<f64>,
    /// `run --distributed <ADDR>` / `serve`: coordinate this fleet over TCP
    /// instead of simulating in-process.
    serve: Option<ServeOptions>,
}

impl<'a> RunOptions<'a> {
    /// Read `a`; a coordinator listens on `addr`, when given.
    fn new(a: &'a Args, addr: Option<String>) -> Result<Self, String> {
        let formats = ["summary", "json", "csv"];
        let format = args::format(a.value("--format").unwrap_or("summary"), &formats)?;
        let threads = a.parsed("--threads", args::threads)?;
        let node_limit = a.parsed_or("--limit", args::count, DEFAULT_SUMMARY_NODE_LIMIT)?;
        let scenario_timeout = a.parsed("--scenario-timeout", args::seconds)?;
        let grace = a.parsed("--grace", args::seconds)?;
        let lease = a.parsed("--lease-timeout", args::seconds)?;
        let liveness = a.parsed("--liveness-timeout", args::seconds)?;
        let d = ServeOptions::default();
        let cache = match (a.has("--no-cache"), a.has("--refresh")) {
            (true, true) => return Err("--no-cache and --refresh are mutually exclusive".into()),
            (true, false) => CacheMode::Disabled,
            (false, true) => CacheMode::Refresh,
            (false, false) => CacheMode::ReadWrite,
        };
        Ok(RunOptions {
            args: a,
            format,
            threads,
            cache,
            quiet: a.has("--quiet"),
            node_limit,
            scenario_timeout,
            serve: addr.map(|addr| ServeOptions {
                addr,
                grace_seconds: grace.unwrap_or(d.grace_seconds),
                lease_seconds: lease.unwrap_or(d.lease_seconds),
                liveness_seconds: liveness.unwrap_or(d.liveness_seconds),
                threads,
                timeout_seconds: scenario_timeout,
            }),
        })
    }
}

/// Shrink a scenario for smoke runs (`--quick`): fewer replications,
/// shorter horizons, thinner sweeps.
fn shrink(mut s: Scenario) -> Scenario {
    s.cpu = s
        .cpu
        .with_replications(2)
        .with_horizon(300.0)
        .with_warmup(s.cpu.warmup.min(30.0));
    if let Some(sweep) = &mut s.sweep {
        if sweep.values.len() > 3 {
            let n = sweep.values.len();
            sweep.values = vec![sweep.values[0], sweep.values[n / 2], sweep.values[n - 1]];
        }
    }
    s
}

/// Everything one `run`/`profile` invocation executes: the scenario list
/// (already `--quick`-shrunk, so cache keys see exactly what runs) plus,
/// for scenarios that came from a fleet directory, the directory's result
/// cache.
struct Gathered {
    scenarios: Vec<Scenario>,
    /// One cache per fleet directory, in first-use order.
    caches: Vec<ResultCache>,
    /// `cache_of[i]` indexes `caches` for `scenarios[i]` (`None` for
    /// builtins and single files, which are not cached).
    cache_of: Vec<Option<usize>>,
}

impl Gathered {
    /// The per-scenario cache slots [`fleet::run_cached`] expects.
    fn cache_refs(&self) -> Vec<Option<&ResultCache>> {
        self.cache_of
            .iter()
            .map(|c| c.map(|i| &self.caches[i]))
            .collect()
    }

    /// True when any scenario is cache-backed (drives whether hit/miss
    /// counts appear in the batch line).
    fn any_cached(&self) -> bool {
        !self.caches.is_empty()
    }
}

fn gather_scenarios(o: &RunOptions, command: &str) -> Result<Gathered, String> {
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut sources: Vec<String> = Vec::new();
    let mut cache_of: Vec<Option<usize>> = Vec::new();
    let mut caches: Vec<ResultCache> = Vec::new();
    // Index into `scenarios` of the first scenario of each name.
    let mut first: HashMap<String, usize> = HashMap::new();

    // De-duplicate by scenario name across every source: duplicate keys
    // would collide in the merged CSV/JSON rows and in the result cache.
    // First occurrence wins; later ones are skipped with a warning
    // (an error under --strict).
    let mut add =
        |scenario: Scenario, source: String, cache: Option<usize>| -> Result<(), String> {
            if let Some(&i) = first.get(&scenario.name) {
                let msg = format!(
                    "duplicate scenario `{}`: from {} and {}",
                    scenario.name, sources[i], source
                );
                if o.args.has("--strict") {
                    return Err(format!("{msg} (--strict)"));
                }
                if !o.quiet {
                    eprintln!("warning: {msg}; keeping the first");
                }
                return Ok(());
            }
            first.insert(scenario.name.clone(), scenarios.len());
            scenarios.push(scenario);
            sources.push(source);
            cache_of.push(cache);
            Ok(())
        };

    if o.args.has("--all") {
        for s in builtin::all() {
            add(s, "--all".into(), None)?;
        }
    }
    for name in o.args.values("--builtin") {
        add(
            builtin::find(name).map_err(|e| e.to_string())?,
            format!("--builtin {name}"),
            None,
        )?;
    }
    // Positional paths: plain files load directly; directories walk as
    // fleets (sorted file order) and get a result cache inside them. Files
    // parse *without* validating — the preflight below reports every
    // semantic problem as a coded diagnostic instead of one hard error.
    let dirs = o.args.values("--all-files").map(|d| (d, true));
    let paths = o.args.positionals.iter().map(|p| (p.as_str(), false));
    for (path, forced_dir) in paths.chain(dirs) {
        if forced_dir || Path::new(path).is_dir() {
            let fleet = parse_dir(path, o.threads)?;
            // `--no-cache` must not even create the cache directory. A
            // cache that cannot be opened at all (read-only directory, a
            // file parked at `.wsnem-cache`) degrades the same way a failed
            // store does: warn once and run that fleet uncached.
            let cache_index = if o.cache == CacheMode::Disabled {
                None
            } else {
                match ResultCache::open_under(path) {
                    Ok(cache) => {
                        caches.push(cache);
                        Some(caches.len() - 1)
                    }
                    Err(e) => {
                        if !o.quiet {
                            eprintln!(
                                "warning: cannot open the result cache under {path}: {e} \
                                 (running uncached)"
                            );
                        }
                        None
                    }
                }
            };
            for (file, scenario) in fleet {
                add(scenario, file.display().to_string(), cache_index)?;
            }
        } else {
            add(
                files::parse(path).map_err(|e| e.to_string())?,
                path.to_owned(),
                None,
            )?;
        }
    }
    if scenarios.is_empty() {
        return Err(format!(
            "nothing to {command}: pass scenario files or directories, \
             --builtin <name>, --all-files <dir> or --all"
        ));
    }
    // Static preflight (skipped by `--no-check`): errors abort here, before
    // a single event fires; warnings go to stderr and the run proceeds.
    if !o.args.has("--no-check") {
        preflight(&scenarios, o.quiet)?;
    }
    // Shrink BEFORE the cache sees the scenarios: `--quick` runs hash (and
    // therefore cache) separately from full-fidelity runs.
    if o.args.has("--quick") {
        scenarios = scenarios.into_iter().map(shrink).collect();
    }
    Ok(Gathered {
        scenarios,
        caches,
        cache_of,
    })
}

/// Discover and parse every scenario file in a fleet directory *without*
/// validating (the preflight reports semantic problems as coded
/// diagnostics), on up to `threads` workers. Parse failures stay hard
/// errors — there is no scenario to carry into the batch — and the first
/// bad file in sorted order is the one reported.
pub(crate) fn parse_dir(
    dir: &str,
    threads: Option<usize>,
) -> Result<Vec<(std::path::PathBuf, Scenario)>, String> {
    let paths = fleet::discover(dir).map_err(|e| e.to_string())?;
    let parsed = par::map_indexed(paths.len(), threads, |i| files::parse(&paths[i]));
    paths
        .into_iter()
        .zip(parsed)
        .map(|(path, scenario)| Ok((path, scenario.map_err(|e| e.to_string())?)))
        .collect()
}

/// Static preflight for `run`, `profile` and `compare`: the scenario-level
/// checks from `wsnem check --only-schema` over everything about to
/// simulate. Net-level passes are skipped — on a scenario's own EDSPN they
/// can only restate structural facts, and preflight must stay cheap at
/// fleet scale. Error-severity findings abort the invocation; warnings go
/// to stderr (suppressed by `--quiet`).
pub(crate) fn preflight(scenarios: &[Scenario], quiet: bool) -> Result<(), String> {
    let registry = wsnem_scenario::global_registry();
    let config = wsnem_analysis::LintConfig::default();
    let opts = wsnem_analysis::CheckOptions { only_schema: true };
    let mut errors = 0usize;
    for s in scenarios {
        for d in wsnem_analysis::resolve(wsnem_analysis::check_scenario(s, registry, opts), &config)
        {
            match d.severity {
                wsnem_analysis::Severity::Error => {
                    errors += 1;
                    eprintln!("{d}");
                }
                wsnem_analysis::Severity::Warning if !quiet => eprintln!("{d}"),
                _ => {}
            }
        }
    }
    if errors > 0 {
        return Err(format!(
            "preflight found {errors} error(s); nothing was simulated \
             (inspect with `wsnem check`, or rerun with --no-check to force)"
        ));
    }
    Ok(())
}

/// One-line batch metrics footer shared by the summary format, `-v` and
/// `profile`. `cache` adds hit/miss counts when a result cache was in play;
/// `dist` adds the distribution counters after a `serve`/`--distributed`
/// run.
pub(crate) fn batch_line(
    m: &BatchMetrics,
    cache: Option<&CacheStats>,
    dist: Option<&DistStats>,
) -> String {
    let mut line = format!(
        "batch: {} scenario(s) in {:.3} s — {} worker(s), utilization {:.0}%, {:.2} scenarios/s",
        m.scenarios,
        m.wall_seconds,
        m.workers,
        100.0 * m.utilization,
        m.scenarios_per_second
    );
    if let Some(c) = cache {
        line.push_str(&format!(
            " — cache: {} hit(s), {} miss(es)",
            c.hits, c.misses
        ));
    }
    if let Some(d) = dist {
        line.push_str(&format!(
            " — distributed: {} worker(s), {} remote + {} local shard(s), {} reassigned",
            d.workers_seen, d.shards_remote, d.shards_local, d.reassigned
        ));
        if d.fell_back_local {
            line.push_str(", local fallback");
        }
    }
    line
}

/// Display width of the scenario-name column in the progress line.
const PROGRESS_NAME_WIDTH: usize = 32;

/// Truncate `name` to at most `width` characters, marking the cut with an
/// ellipsis — long fleet-generated names must not widen the progress line
/// past what the clearing write erases.
pub(crate) fn truncate_name(name: &str, width: usize) -> String {
    if name.chars().count() <= width {
        return name.to_owned();
    }
    let mut s: String = name.chars().take(width.saturating_sub(1)).collect();
    s.push('…');
    s
}

/// Render one progress line: `[done/total] name (elapsed ..., ETA ...)`,
/// with the name truncated-then-padded to a fixed column.
pub(crate) fn progress_line(
    done: usize,
    total: usize,
    name: &str,
    elapsed: f64,
    eta: f64,
) -> String {
    format!(
        "[{done}/{total}] {:<width$} (elapsed {elapsed:.1} s, ETA {eta:.1} s)",
        truncate_name(name, PROGRESS_NAME_WIDTH),
        width = PROGRESS_NAME_WIDTH
    )
}

/// What one batch execution hands back to its command: per-scenario
/// results in input order, the wall-clock metrics, the cache hit/miss
/// split, and — for `serve` / `--distributed` runs — the distribution
/// counters.
type BatchRun = (
    Vec<Result<ScenarioReport, wsnem_scenario::ScenarioError>>,
    BatchMetrics,
    CacheStats,
    Option<DistStats>,
);

/// Run a gathered batch with the live progress line (TTY or `-v`, unless
/// `-q`): `[done/total] name (ETA ...)`, rewritten in place on stderr.
/// Cache-backed scenarios resolve through the fleet runner, whose hit/miss
/// counts come back in the returned [`CacheStats`]. With
/// `--distributed <ADDR>` the batch is coordinated over TCP instead:
/// workers pull shards, and the distribution counters come back alongside.
fn run_with_progress(g: &Gathered, o: &RunOptions) -> Result<BatchRun, String> {
    let verbose = o.args.has("--verbose");
    let show_progress = !o.quiet && (verbose || std::io::stderr().is_terminal());
    let started = Instant::now();
    // Rewriting the line in place only erases the previous write if we
    // clear by its *actual* width — a fixed 80-column wipe left residue
    // from longer lines (and total/ETA digits shrink over a run).
    let last_width = std::sync::atomic::AtomicUsize::new(0);
    let last_width_ref = &last_width;
    let progress = move |done: usize, total: usize, name: &str| {
        let elapsed = started.elapsed().as_secs_f64();
        let eta = if done > 0 {
            elapsed / done as f64 * (total - done) as f64
        } else {
            0.0
        };
        let line = progress_line(done, total, name, elapsed, eta);
        let width = line.chars().count();
        let prev = last_width_ref.swap(width, std::sync::atomic::Ordering::Relaxed);
        eprint!("\r{line:<prev$}");
        let _ = std::io::Write::flush(&mut std::io::stderr());
    };
    let on_done = show_progress.then_some(&progress as &(dyn Fn(usize, usize, &str) + Sync));
    let (results, metrics, cache_stats, dist) = match &o.serve {
        None => {
            let (results, metrics, cache_stats) = fleet::run_cached_with(
                &g.scenarios,
                &g.cache_refs(),
                fleet::FleetRunOptions {
                    threads: o.threads,
                    mode: o.cache,
                    timeout_seconds: o.scenario_timeout,
                },
                on_done,
            );
            (results, metrics, cache_stats, None)
        }
        Some(serve) => {
            let cache_refs = g.cache_refs();
            let coord = Coordinator::bind(&g.scenarios, &cache_refs, o.cache, serve.clone())
                .map_err(|e| e.to_string())?;
            if !o.quiet {
                let bound = coord.local_addr().map_err(|e| e.to_string())?;
                // One write: `eprintln!` issues a write(2) per format piece,
                // and a reader polling the log could see a torn address.
                let line = format!(
                    "serving {} scenario(s) on {bound} (join with `wsnem worker {bound}`)\n",
                    g.scenarios.len()
                );
                let _ = std::io::Write::write_all(&mut std::io::stderr(), line.as_bytes());
            }
            let outcome = coord.run(on_done).map_err(|e| e.to_string())?;
            (
                outcome.results,
                outcome.metrics,
                outcome.cache,
                Some(outcome.dist),
            )
        }
    };
    if show_progress {
        // Clear the progress line so reports start on a clean row.
        let width = last_width.load(std::sync::atomic::Ordering::Relaxed);
        eprint!("\r{:<width$}\r", "");
        let _ = std::io::Write::flush(&mut std::io::stderr());
    }
    if verbose && !o.quiet {
        eprintln!(
            "{}",
            batch_line(
                &metrics,
                g.any_cached().then_some(&cache_stats),
                dist.as_ref()
            )
        );
    }
    Ok((results, metrics, cache_stats, dist))
}

pub(crate) fn cmd_run(a: &Args) -> Result<(), String> {
    let o = RunOptions::new(a, a.value("--distributed").map(str::to_owned))?;
    if o.serve.is_none() {
        if let Some(f) = COORDINATOR_FLAGS.iter().find(|f| a.has(f.names[0])) {
            return Err(format!(
                "{} configures the coordinator of a distributed run: add --distributed \
                 <ADDR>, or use `wsnem serve`",
                f.names[0]
            ));
        }
    }
    run_command(o, "run")
}

/// `wsnem serve <DIRS..>`: a `run` that always coordinates over TCP —
/// `--addr` (default 127.0.0.1:7177) takes the place of `--distributed`.
pub(crate) fn cmd_serve(a: &Args) -> Result<(), String> {
    let addr = a.value("--addr").map(str::to_owned);
    let o = RunOptions::new(
        a,
        Some(addr.unwrap_or_else(|| ServeOptions::default().addr)),
    )?;
    if a.has("--distributed") {
        return Err("serve listens on --addr; --distributed belongs to `wsnem run`".into());
    }
    run_command(o, "serve")
}

/// Shared body of `run` and `serve`, after the options are settled.
fn run_command(o: RunOptions, command: &str) -> Result<(), String> {
    let g = gather_scenarios(&o, command)?;
    let (results, metrics, cache_stats, dist) = run_with_progress(&g, &o)?;
    let cache = g.any_cached().then_some(&cache_stats);
    let mut reports = Vec::new();
    let mut failures = Vec::new();
    let mut timeouts = 0usize;
    for (s, r) in g.scenarios.iter().zip(results) {
        match r {
            Ok(report) => reports.push(report),
            // A watchdog timeout is an expected outcome of the run the user
            // configured, not a malfunction: report it as a coded
            // diagnostic, and fail the invocation only under --strict.
            Err(wsnem_scenario::ScenarioError::Timeout { seconds }) => {
                timeouts += 1;
                eprintln!(
                    "{}",
                    wsnem_analysis::lints::SCENARIO_TIMEOUT.at(
                        wsnem_analysis::Location::scenario(&s.name),
                        format!(
                            "exceeded the {seconds} s wall-clock watchdog and was marked failed"
                        )
                    )
                );
            }
            Err(e) => failures.push(format!("{}: {e}", s.name)),
        }
    }

    let rendered = render(
        &reports,
        &metrics,
        cache,
        dist,
        o.format,
        o.node_limit,
        o.threads,
    )?;
    match o.args.value("--out") {
        None => out(&rendered),
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("{path}: {e}"))?;
            if !o.quiet {
                eprintln!(
                    "wrote {} report(s) to {path} ({} format)",
                    reports.len(),
                    o.format
                );
            }
        }
    }
    // The CSV body must stay aligned with its header, so batch metrics go
    // to stderr there (JSON and summary carry them inline).
    if o.format == "csv" && !o.quiet {
        eprintln!("{}", batch_line(&metrics, cache, dist.as_ref()));
    }

    failed(&failures, g.scenarios.len())?;
    if timeouts > 0 && o.args.has("--strict") {
        return Err(format!(
            "{timeouts} scenario(s) hit the --scenario-timeout watchdog (--strict)"
        ));
    }
    Ok(())
}

/// JSON envelope for `wsnem run --format json`: the report list plus the
/// batch metrics and, for cache-backed (directory) runs, the hit/miss
/// counts.
#[derive(serde::Serialize)]
pub(crate) struct RunOutput {
    pub(crate) batch: BatchMetrics,
    pub(crate) cache: Option<CacheStats>,
    pub(crate) distributed: Option<DistStats>,
    pub(crate) reports: Vec<ScenarioReport>,
}

/// Render the run's output in `format`, each report on its own on up to
/// `threads` workers, joined in report order.
pub(crate) fn render(
    reports: &[ScenarioReport],
    metrics: &BatchMetrics,
    cache: Option<&CacheStats>,
    dist: Option<DistStats>,
    format: &str,
    node_limit: usize,
    threads: Option<usize>,
) -> Result<String, String> {
    match format {
        "json" => {
            // The envelope without reports holds `"reports": []`; each
            // report is rendered at its depth inside that array (envelope
            // 0, array 1, report 2) and spliced in between the brackets.
            const EMPTY_REPORTS: &str = "\"reports\": []";
            let envelope = serde_json::to_string_pretty(&RunOutput {
                batch: *metrics,
                cache: cache.copied(),
                distributed: dist,
                reports: Vec::new(),
            })
            .map_err(|e| e.to_string())?;
            let pieces = par::map_indexed(reports.len(), threads, |i| {
                serde_json::to_string_pretty_at(&reports[i], 2)
            })
            .into_iter()
            .collect::<Result<Vec<String>, _>>()
            .map_err(|e| e.to_string())?;
            let Some(at) = envelope.rfind(EMPTY_REPORTS) else {
                unreachable!("the envelope always writes its report list");
            };
            let (head, tail) = envelope.split_at(at + EMPTY_REPORTS.len() - 1);
            // Each piece gains at most a comma, a newline and four spaces;
            // the closing bracket a newline and two.
            let spliced: usize = pieces.iter().map(|p| p.len() + 6).sum();
            let mut out = String::with_capacity(envelope.len() + spliced + 4);
            out.push_str(head);
            for (i, piece) in pieces.iter().enumerate() {
                out.push_str(if i == 0 { "\n    " } else { ",\n    " });
                out.push_str(piece);
            }
            if !pieces.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str(tail);
            out.push('\n');
            Ok(out)
        }
        "csv" => {
            let mut pieces = vec![format!("{}\n", ScenarioReport::CSV_HEADER)];
            pieces.extend(par::map_indexed(reports.len(), threads, |i| {
                let mut rows = String::new();
                for row in reports[i].csv_rows() {
                    rows.push_str(&row);
                    rows.push('\n');
                }
                rows
            }));
            Ok(pieces.concat())
        }
        _ => {
            let mut pieces = par::map_indexed(reports.len(), threads, |i| {
                reports[i].summary_with_node_limit(node_limit) + "\n"
            });
            pieces.push(batch_line(metrics, cache, dist.as_ref()) + "\n");
            Ok(pieces.concat())
        }
    }
}

pub(crate) fn cmd_profile(a: &Args) -> Result<(), String> {
    let mut o = RunOptions::new(a, None)?;
    // The profile table is the output; keep stderr quiet unless asked.
    o.quiet |= !a.has("--verbose");
    let g = gather_scenarios(&o, "profile")?;
    let (results, metrics, cache_stats, _) = run_with_progress(&g, &o)?;
    let scenarios = &g.scenarios;

    outln!(
        "  {:<28} {:>9} {:>9} {:>9} {:>9}  solver seconds (base point)",
        "scenario",
        "base s",
        "sweep s",
        "net s",
        "total s"
    );
    let mut failures = Vec::new();
    for (s, r) in scenarios.iter().zip(&results) {
        match r {
            Err(e) => failures.push(format!("{}: {e}", s.name)),
            Ok(report) => {
                let p = report.phase_seconds;
                let solvers: Vec<String> = report
                    .backends
                    .iter()
                    .map(|b| format!("{} {:.4}", b.backend, b.eval_seconds))
                    .collect();
                outln!(
                    "  {:<28} {:>9.4} {:>9.4} {:>9.4} {:>9.4}  {}",
                    report.scenario,
                    p.base_seconds,
                    p.sweep_seconds,
                    p.network_seconds,
                    report.elapsed_seconds,
                    solvers.join(", ")
                );
            }
        }
    }
    outln!(
        "{}",
        batch_line(&metrics, g.any_cached().then_some(&cache_stats), None)
    );
    failed(&failures, scenarios.len())
}

/// The error naming every failed scenario, if any of `total` failed.
fn failed(failures: &[String], total: usize) -> Result<(), String> {
    if failures.is_empty() {
        return Ok(());
    }
    let list = failures.join("\n  ");
    Err(format!(
        "{} of {total} scenario(s) failed:\n  {list}",
        failures.len()
    ))
}
