//! `wsnem` — the batch scenario runner.
//!
//! ```text
//! wsnem list                              # show the built-in scenario library
//! wsnem run --all                         # run every built-in scenario
//! wsnem run my.toml other.json            # run user-authored scenario files
//! wsnem run --builtin paper-defaults      # run one built-in by name
//! wsnem run --all --format json -o out.json
//! wsnem run --all --format csv            # flat per-backend rows
//! wsnem gen sweep/ --field lambda=0.2:1.0:5   # generate a scenario fleet
//! wsnem run sweep/                        # run a whole directory (cached)
//! wsnem compare --builtin paper-defaults  # Table 4/5 matrix: every backend
//! wsnem check my.toml sweep/              # static verification + lints
//! wsnem check --all --deny warnings       # prove every built-in sound
//! wsnem validate my.toml                  # schema checks only, no net passes
//! wsnem export paper-defaults --format toml   # print a built-in as a file
//! wsnem topology --builtin tree-collection    # inspect multi-hop routing
//! wsnem radio --preset cc2420-class           # inspect a duty-cycle MAC
//! wsnem radio --builtin mac-heterogeneous-tree    # ...or a scenario's radios
//! ```
//!
//! Scenarios in one invocation run in parallel across OS threads, as do
//! the parsing of fleet files and the rendering of reports (`--threads N`
//! pins the count). Directory runs answer unchanged
//! scenarios from a content-hash result cache (`.wsnem-cache/` inside the
//! directory) — see `--no-cache` / `--refresh`. Argument parsing is
//! hand-rolled — the workspace builds offline, without clap.

// The binary's `main` converts every error into an exit code; the few
// unwraps left guard infallible conversions, where a panic is acceptable.
#![allow(clippy::disallowed_methods)]

use std::collections::HashMap;
use std::io::IsTerminal;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use wsnem_fleetd::{Coordinator, DistStats, FaultPlan, ServeOptions, WorkerOptions};
use wsnem_scenario::{
    builtin, files, fleet, gen, BatchMetrics, CacheMode, CacheStats, FieldSpec, FileFormat,
    GenField, GenMethod, GenSpec, ResultCache, Scenario, ScenarioReport,
    DEFAULT_SUMMARY_NODE_LIMIT,
};
use wsnem_stats::par;

/// Write to stdout, treating a closed pipe (`wsnem list | head`) as a normal
/// end of output rather than a panic.
fn out(text: &str) {
    use std::io::Write;
    let mut stdout = std::io::stdout();
    if stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
        .is_err()
    {
        std::process::exit(0);
    }
}

macro_rules! outln {
    () => { out("\n") };
    ($($arg:tt)*) => { out(&format!("{}\n", format_args!($($arg)*))) };
}

const USAGE: &str = "wsnem — energy-model scenario runner

USAGE:
    wsnem <COMMAND> [OPTIONS]

COMMANDS:
    list                       List built-in scenarios
    run [FILES|DIRS..] [OPTIONS]
                               Run scenario files, whole directories of them
                               and/or built-ins; directory runs answer
                               unchanged scenarios from the content-hash
                               result cache (.wsnem-cache/ inside the
                               directory)
    gen <DIR> [OPTIONS]        Generate a scenario fleet into DIR: grid,
                               seeded-random or Latin-hypercube samples over
                               declared fields, one file per scenario plus a
                               manifest.json recording the generator spec
    serve <DIRS..> [OPTIONS]   Run a fleet as a distributed coordinator:
                               listen on --addr, lease content-hash shards to
                               pulling workers, reassign the shards of
                               crashed or silent workers, and fall back to an
                               in-process run if no worker appears within the
                               grace window; accepts the run options too
    worker <ADDR> [OPTIONS]    Join a coordinator as a pull worker: compute
                               shards, stream results back, heartbeat while
                               computing, and reconnect with exponential
                               backoff + jitter when the connection drops
    compare [FILE|DIR] [OPTIONS]
                               Run EVERY registered backend over a scenario's
                               base point and sweep, and emit the paper's
                               Table 4/5 cross-backend comparison matrix
                               (per-state deltas in percentage points plus
                               wall-clock cost per backend)
    trace [FILE] [OPTIONS]     Run one scenario's CPU model with a trace
                               observer attached and emit an NDJSON event
                               stream (firings, state changes, queue depths);
                               attaching the tracer never perturbs the run
    profile [FILES..] [OPTIONS]
                               Run scenarios and print a wall-clock profile:
                               per-scenario phase timings (base / sweep /
                               network), per-backend solver cost and batch
                               worker utilization
    check [FILES|DIRS..] [OPTIONS]
                               Statically verify scenarios (or raw *.net.json
                               Petri-net specs) without running them: schema
                               and backend checks, queue stability on the
                               forwarding-inflated arrival rate, radio airtime
                               saturation, and net-level proofs (semiflows,
                               deadlock, dead transitions); exits non-zero
                               when any error-severity lint fires
    validate <FILES|DIRS..>    Schema-level checks only (check --only-schema):
                               parse + validate scenario files (a directory
                               means every file a fleet run would load),
                               reporting every finding as a coded diagnostic
    export <NAME> [OPTIONS]    Print a built-in scenario as a file
    topology [FILE] [--builtin <NAME>] [--limit <N>]
                               Inspect a scenario's multi-hop routing:
                               per-node next hop, hop depth, subtree size,
                               forwarding load and radio MAC (no model
                               evaluation); prints at most N rows
                               (default 50) before an \"… and K more\" footer
    radio [FILE] [--builtin <NAME> | --preset <NAME>]
                               Inspect duty-cycle radio/MAC specs: lowered
                               timing numbers, derived duty cycle, the
                               per-state power split and a
                               lifetime-vs-traffic table
    help                       Show this help

RUN OPTIONS:
    --all                 Run every built-in scenario
    --builtin <NAME>      Run one built-in (repeatable)
    --all-files <DIR>     Run every scenario file in DIR (same as passing the
                          directory as a positional argument; repeatable)
    --format <FMT>        Output format: summary (default), json, csv
    --out, -o <FILE>      Write the report there instead of stdout
    --threads <N>         Parallelism across scenarios, and across fleet files
                          parsed and reports rendered (default: all cores)
    --quick               Shrink replications/horizons for a fast smoke run
    --no-cache            Neither read nor write the directory result cache
    --refresh             Re-simulate everything, overwriting cached results
    --strict              Make duplicate scenario names an error instead of a
                          skip-with-warning
    --no-check            Skip the static preflight (run/compare check every
                          scenario first; errors abort before any event fires,
                          warnings go to stderr)
    --verbose, -v         Show the live progress line even without a TTY and
                          print batch metrics (workers, utilization) at the end
    --quiet, -q           Suppress the progress line and informational stderr
    --limit <N>           Per-node lines in a summary's network section before
                          an \"… and K more\" footer (default 50)
    --scenario-timeout <SECS>
                          Per-scenario wall-clock watchdog: a scenario that
                          exceeds it is marked failed with a W006 diagnostic
                          instead of hanging the batch; exits non-zero only
                          under --strict
    --distributed <ADDR>  Serve this run's shards to `wsnem worker` processes
                          from ADDR (host:port) instead of simulating
                          in-process; equivalent to `wsnem serve --addr ADDR`

SERVE OPTIONS (in addition to the run options):
    --addr <ADDR>         Listen address (default 127.0.0.1:7177; port 0
                          picks a free port, announced on stderr)
    --grace <SECS>        Zero-worker grace window before the remaining
                          shards run in-process (default 10)
    --lease-timeout <SECS>
                          Shard lease: a leased shard whose worker neither
                          heartbeats nor answers within this window is
                          reassigned (default 30)
    --liveness-timeout <SECS>
                          Connection liveness: a worker silent for this long
                          is reaped and its leases reassigned (default 10)

WORKER OPTIONS:
    --name <NAME>         Worker name shown in coordinator diagnostics
                          (default worker-<pid>)
    --cache <DIR>         Local result-cache directory (.wsnem-cache format);
                          a rejoining worker answers already-computed shards
                          from it without recomputing
    --threads <N>         Shards computed at once over the one connection
                          (default: all cores). With two or more slots each
                          shard's replications run on one thread; --threads 1
                          leases one shard at a time and spreads its
                          replications over every core
    --retries <N>         Consecutive failed connection attempts before
                          giving up (default 10)
    --heartbeat <MS>      Heartbeat period in milliseconds (default 1000)
    --scenario-timeout <SECS>
                          Local watchdog override (default: whatever the
                          coordinator announces)
    --fault-plan <SPEC>   Scripted misbehavior for drills and tests:
                          comma-separated kill-after=N, drop-mid-frame=N,
                          corrupt-frame=N, delay-heartbeat=N:STALL_MS

GEN OPTIONS:
    --field <SPEC>        Sampled field as name=min:max[:points], repeatable.
                          Fields: lambda, service-mean, radio-check-interval,
                          fanout, node-count ([:points] sizes grid axes only,
                          default 3)
    --method <M>          Sampling method: grid (default), random, lhs
    --count <N>           Sample count (random/lhs; a grid's size is the
                          product of its per-field points)
    --seed <N>            RNG seed for random/lhs (default 42)
    --base <FILE>         Base scenario file the samples are applied to
    --builtin <NAME>      Base built-in scenario (default: paper-defaults)
    --prefix <NAME>       Scenario/file name prefix (default: fleet)
    --format <FMT>        Generated file format: toml (default), json
    --check               Verify DIR against its manifest.json instead of
                          generating: missing / renamed / drifted / extra
                          files come back as manifest-mismatch diagnostics

CHECK OPTIONS:
    --all                 Check every built-in scenario
    --builtin <NAME>      Check one built-in (repeatable)
    --only-schema         Skip the net-level passes (what validate runs)
    --format <FMT>        Output format: human (default), json
    -W, --warn <LINT>     Report LINT (code or name) at warning severity
    -D, --deny <LINT>     Report LINT at error severity; `-D warnings`
                          escalates every warning, rustc-style
    -A, --allow <LINT>    Suppress LINT entirely
    --verbose, -v         Also print info-severity findings (human format)

TRACE OPTIONS:
    --builtin <NAME>      Trace a built-in scenario's CPU parameters
    --backend <B>         Kernel to trace: des (default) or petri
    --out, -o <FILE>      Write the NDJSON stream there instead of stdout
    --limit <N>           Stop recording after N trace records
    --sample <N>          Record every N-th admissible event only
    --seed <N>            RNG seed (default: the scenario's master seed)

PROFILE OPTIONS:
    --all                 Profile every built-in scenario
    --builtin <NAME>      Profile one built-in (repeatable)
    --threads <N>         Parallelism across scenarios and fleet files parsed
                          (default: all cores)
    --quick               Shrink replications/horizons for a fast smoke run

COMPARE OPTIONS:
    --builtin <NAME>      Compare a built-in scenario
    --all-files <DIR>     Compare every scenario file in DIR (a directory
                          positional means the same); matrices merge into one
                          CSV/JSON document in sorted file order
    --format <FMT>        Output format: summary (default), json, csv
    --out, -o <FILE>      Write the matrix there instead of stdout
    --threads <N>         Replication worker threads (default: all cores)
    --quick               Shrink replications/horizons for a fast smoke run
    --no-check            Skip the static preflight
    --scenario-timeout <SECS>
                          Per-scenario wall-clock watchdog: a matrix whose
                          scenario exceeds it is skipped with a W006
                          diagnostic; exits non-zero only under --strict
    --strict              Make watchdog timeouts an error
    --max-delta-pp <PP>   Exit non-zero if any backend's mean |Δ| vs the
                          reference exceeds PP percentage points
    --tiered              Skip the simulation backends at points whose
                          utilization rho stays below 0.9 (the analytic
                          closed forms are exact there); skipped cells show
                          \"skipped by tiering\" at zero cost

EXPORT OPTIONS:
    --format <FMT>        File format: toml (default), json
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        None => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
        Some((c, rest)) => (c.as_str(), rest),
    };
    let result = match command {
        "list" => cmd_list(),
        "run" => cmd_run(rest),
        "serve" => cmd_serve(rest),
        "worker" => cmd_worker(rest),
        "gen" => cmd_gen(rest),
        "trace" => cmd_trace(rest),
        "profile" => cmd_profile(rest),
        "compare" => cmd_compare(rest),
        "check" => cmd_check(rest),
        "validate" => cmd_validate(rest),
        "export" => cmd_export(rest),
        "topology" => cmd_topology(rest),
        "radio" => cmd_radio(rest),
        "help" | "--help" | "-h" => {
            out(USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_list() -> Result<(), String> {
    let scenarios = builtin::all();
    outln!("{} built-in scenarios:\n", scenarios.len());
    for s in &scenarios {
        let features: Vec<&str> = [
            s.sweep.as_ref().map(|_| "sweep"),
            s.network.as_ref().map(|_| "network"),
            s.network
                .as_ref()
                .and_then(|n| n.topology.as_ref())
                .map(|t| t.label()),
            s.workload
                .as_ref()
                .filter(|w| !w.is_poisson())
                .map(|_| "non-poisson workload"),
            s.service
                .as_ref()
                .filter(|d| !d.is_exponential())
                .map(|_| "non-exponential service"),
        ]
        .into_iter()
        .flatten()
        .collect();
        let backends: Vec<String> = s.backends.iter().map(|b| b.to_string()).collect();
        outln!("  {}", s.name);
        outln!("      backends: {}", backends.join(", "));
        if !features.is_empty() {
            outln!("      features: {}", features.join(", "));
        }
        for line in wrap(&s.description, 72) {
            outln!("      {line}");
        }
        outln!();
    }
    outln!("Run them with `wsnem run --all` or `wsnem run --builtin <name>`;");
    outln!("export one as a starting point with `wsnem export <name>`.");
    Ok(())
}

#[derive(Default)]
struct RunOptions {
    /// Positional arguments: scenario files or fleet directories (told
    /// apart on the filesystem at gather time).
    paths: Vec<String>,
    /// `--all-files <DIR>` spellings, appended after the positionals.
    dirs: Vec<String>,
    builtins: Vec<String>,
    all: bool,
    format: String,
    out: Option<String>,
    threads: Option<usize>,
    quick: bool,
    no_cache: bool,
    refresh: bool,
    strict: bool,
    no_check: bool,
    verbose: bool,
    quiet: bool,
    /// Per-node lines in a summary's network section (`--limit`).
    node_limit: usize,
    /// Per-scenario wall-clock watchdog in seconds (`--scenario-timeout`).
    scenario_timeout: Option<f64>,
    /// `run --distributed <ADDR>` / `serve`: coordinate this fleet over TCP
    /// from this listen address instead of simulating in-process.
    distributed: Option<String>,
    /// `serve --addr <ADDR>` (folded into `distributed` by `cmd_serve`).
    addr: Option<String>,
    /// Zero-worker grace window in seconds (`--grace`).
    grace: Option<f64>,
    /// Shard lease in seconds (`--lease-timeout`).
    lease_timeout: Option<f64>,
    /// Worker liveness window in seconds (`--liveness-timeout`).
    liveness_timeout: Option<f64>,
}

/// Parse a positive, finite seconds value for `flag`.
fn parse_seconds(flag: &str, v: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite() && *x > 0.0)
        .ok_or_else(|| format!("{flag} expects a positive number of seconds, got `{v}`"))
}

/// Parse the value of `--threads`: a thread count of at least one.
fn parse_threads(it: &mut std::slice::Iter<'_, String>) -> Result<usize, String> {
    let v = required(it, "--threads <N>")?;
    let n: usize = v
        .parse()
        .map_err(|_| format!("--threads expects a positive integer, got `{v}`"))?;
    if n == 0 {
        return Err("--threads must be >= 1".into());
    }
    Ok(n)
}

fn parse_run_options(args: &[String]) -> Result<RunOptions, String> {
    let mut o = RunOptions {
        format: "summary".into(),
        node_limit: DEFAULT_SUMMARY_NODE_LIMIT,
        ..RunOptions::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => o.all = true,
            "--quick" => o.quick = true,
            "--no-cache" => o.no_cache = true,
            "--refresh" => o.refresh = true,
            "--strict" => o.strict = true,
            "--no-check" => o.no_check = true,
            "--verbose" | "-v" => o.verbose = true,
            "--quiet" | "-q" => o.quiet = true,
            "--builtin" => o.builtins.push(required(&mut it, "--builtin <NAME>")?),
            "--all-files" => o.dirs.push(required(&mut it, "--all-files <DIR>")?),
            "--format" => o.format = required(&mut it, "--format <FMT>")?,
            "--out" | "-o" => o.out = Some(required(&mut it, "--out <FILE>")?),
            "--threads" => o.threads = Some(parse_threads(&mut it)?),
            "--limit" => {
                let v = required(&mut it, "--limit <N>")?;
                o.node_limit = v
                    .parse()
                    .map_err(|_| format!("--limit expects a non-negative integer, got `{v}`"))?;
            }
            "--scenario-timeout" => {
                let v = required(&mut it, "--scenario-timeout <SECS>")?;
                o.scenario_timeout = Some(parse_seconds("--scenario-timeout", &v)?);
            }
            "--distributed" => o.distributed = Some(required(&mut it, "--distributed <ADDR>")?),
            "--addr" => o.addr = Some(required(&mut it, "--addr <ADDR>")?),
            "--grace" => {
                let v = required(&mut it, "--grace <SECS>")?;
                o.grace = Some(parse_seconds("--grace", &v)?);
            }
            "--lease-timeout" => {
                let v = required(&mut it, "--lease-timeout <SECS>")?;
                o.lease_timeout = Some(parse_seconds("--lease-timeout", &v)?);
            }
            "--liveness-timeout" => {
                let v = required(&mut it, "--liveness-timeout <SECS>")?;
                o.liveness_timeout = Some(parse_seconds("--liveness-timeout", &v)?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            file => o.paths.push(file.to_owned()),
        }
    }
    if !matches!(o.format.as_str(), "summary" | "json" | "csv") {
        return Err(format!(
            "unknown format `{}` (expected summary, json or csv)",
            o.format
        ));
    }
    if o.no_cache && o.refresh {
        return Err("--no-cache and --refresh are mutually exclusive".into());
    }
    Ok(o)
}

impl RunOptions {
    fn cache_mode(&self) -> CacheMode {
        if self.no_cache {
            CacheMode::Disabled
        } else if self.refresh {
            CacheMode::Refresh
        } else {
            CacheMode::ReadWrite
        }
    }
}

fn required(it: &mut std::slice::Iter<'_, String>, what: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("missing value for {what}"))
}

/// Resolve the one scenario a subcommand operates on: a file path or a
/// `--builtin` name, mutually exclusive. `command` names the caller in the
/// nothing-given error (shared by `compare`, `topology` and `radio`).
fn resolve_scenario(
    file: Option<String>,
    builtin_name: Option<String>,
    command: &str,
) -> Result<Scenario, String> {
    match (file, builtin_name) {
        (Some(_), Some(_)) => {
            Err("pass either a scenario file or --builtin <NAME>, not both".into())
        }
        (None, None) => Err(format!(
            "{command} expects a scenario file or --builtin <NAME>"
        )),
        (Some(f), None) => files::load(&f).map_err(|e| e.to_string()),
        (None, Some(n)) => builtin::find(&n).map_err(|e| e.to_string()),
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
                if o.strict {
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

    if o.all {
        for s in builtin::all() {
            add(s, "--all".into(), None)?;
        }
    }
    for name in &o.builtins {
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
    let dirs = o.dirs.iter().map(|d| (d, true));
    for (path, forced_dir) in o.paths.iter().map(|p| (p, false)).chain(dirs) {
        if forced_dir || Path::new(path).is_dir() {
            let fleet = parse_dir(path, o.threads)?;
            // `--no-cache` must not even create the cache directory. A
            // cache that cannot be opened at all (read-only directory, a
            // file parked at `.wsnem-cache`) degrades the same way a failed
            // store does: warn once and run that fleet uncached.
            let cache_index = if o.no_cache {
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
                path.clone(),
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
    if !o.no_check {
        preflight(&scenarios, o.quiet)?;
    }
    // Shrink BEFORE the cache sees the scenarios: `--quick` runs hash (and
    // therefore cache) separately from full-fidelity runs.
    if o.quick {
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
fn parse_dir(
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
fn preflight(scenarios: &[Scenario], quiet: bool) -> Result<(), String> {
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
fn batch_line(m: &BatchMetrics, cache: Option<&CacheStats>, dist: Option<&DistStats>) -> String {
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
fn truncate_name(name: &str, width: usize) -> String {
    if name.chars().count() <= width {
        return name.to_owned();
    }
    let mut s: String = name.chars().take(width.saturating_sub(1)).collect();
    s.push('…');
    s
}

/// Render one progress line: `[done/total] name (elapsed ..., ETA ...)`,
/// with the name truncated-then-padded to a fixed column.
fn progress_line(done: usize, total: usize, name: &str, elapsed: f64, eta: f64) -> String {
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
    let show_progress = !o.quiet && (o.verbose || std::io::stderr().is_terminal());
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
    let (results, metrics, cache_stats, dist) = match &o.distributed {
        None => {
            let (results, metrics, cache_stats) = fleet::run_cached_with(
                &g.scenarios,
                &g.cache_refs(),
                fleet::FleetRunOptions {
                    threads: o.threads,
                    mode: o.cache_mode(),
                    timeout_seconds: o.scenario_timeout,
                },
                on_done,
            );
            (results, metrics, cache_stats, None)
        }
        Some(addr) => {
            let defaults = ServeOptions::default();
            let cache_refs = g.cache_refs();
            let coord = Coordinator::bind(
                &g.scenarios,
                &cache_refs,
                o.cache_mode(),
                ServeOptions {
                    addr: addr.clone(),
                    grace_seconds: o.grace.unwrap_or(defaults.grace_seconds),
                    lease_seconds: o.lease_timeout.unwrap_or(defaults.lease_seconds),
                    liveness_seconds: o.liveness_timeout.unwrap_or(defaults.liveness_seconds),
                    threads: o.threads,
                    timeout_seconds: o.scenario_timeout,
                },
            )
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
    if o.verbose && !o.quiet {
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

fn cmd_run(args: &[String]) -> Result<(), String> {
    let o = parse_run_options(args)?;
    run_command(o, "run")
}

/// `wsnem serve <DIRS..>`: a `run` that always coordinates over TCP —
/// `--addr` (default 127.0.0.1:7177) takes the place of `--distributed`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut o = parse_run_options(args)?;
    if o.distributed.is_some() {
        return Err("serve listens on --addr; --distributed belongs to `wsnem run`".into());
    }
    o.distributed = Some(
        o.addr
            .clone()
            .unwrap_or_else(|| ServeOptions::default().addr),
    );
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
        &o.format,
        o.node_limit,
        o.threads,
    )?;
    match &o.out {
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

    if !failures.is_empty() {
        return Err(format!(
            "{} of {} scenario(s) failed:\n  {}",
            failures.len(),
            g.scenarios.len(),
            failures.join("\n  ")
        ));
    }
    if timeouts > 0 && o.strict {
        return Err(format!(
            "{timeouts} scenario(s) hit the --scenario-timeout watchdog (--strict)"
        ));
    }
    Ok(())
}

/// `wsnem worker <ADDR>`: join a coordinator as a pull worker.
fn cmd_worker(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut opts = WorkerOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--name" => opts.name = required(&mut it, "--name <NAME>")?,
            "--threads" => opts.threads = Some(parse_threads(&mut it)?),
            "--cache" => {
                opts.cache_dir = Some(required(&mut it, "--cache <DIR>")?.into());
            }
            "--fault-plan" => {
                let spec = required(&mut it, "--fault-plan <SPEC>")?;
                opts.fault_plan = FaultPlan::parse(&spec)?;
            }
            "--retries" => {
                let v = required(&mut it, "--retries <N>")?;
                opts.max_retries = v
                    .parse()
                    .map_err(|_| format!("--retries expects a non-negative integer, got `{v}`"))?;
            }
            "--heartbeat" => {
                let v = required(&mut it, "--heartbeat <MS>")?;
                opts.heartbeat_ms =
                    v.parse().ok().filter(|ms| *ms > 0).ok_or_else(|| {
                        format!("--heartbeat expects milliseconds >= 1, got `{v}`")
                    })?;
            }
            "--scenario-timeout" => {
                let v = required(&mut it, "--scenario-timeout <SECS>")?;
                opts.timeout_seconds = Some(parse_seconds("--scenario-timeout", &v)?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            positional => {
                if addr.replace(positional.to_owned()).is_some() {
                    return Err("worker expects exactly one coordinator address".into());
                }
            }
        }
    }
    let addr = addr.ok_or("worker expects a coordinator address (host:port)")?;
    let summary =
        wsnem_fleetd::run_worker(&addr, opts).map_err(|e| format!("worker on {addr}: {e}"))?;
    eprintln!(
        "worker done: {} shard(s) ({} from cache), {} session(s), {} reconnect(s){}",
        summary.shards_done,
        summary.cache_hits,
        summary.sessions,
        summary.reconnects,
        if summary.killed {
            " — killed by fault plan"
        } else {
            ""
        }
    );
    Ok(())
}

/// JSON envelope for `wsnem run --format json`: the report list plus the
/// batch metrics and, for cache-backed (directory) runs, the hit/miss
/// counts.
#[derive(serde::Serialize)]
struct RunOutput {
    batch: BatchMetrics,
    cache: Option<CacheStats>,
    distributed: Option<DistStats>,
    reports: Vec<ScenarioReport>,
}

/// Render the run's output in `format`, each report on its own on up to
/// `threads` workers, joined in report order.
fn render(
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

/// Parse one `--field` value: `name=min:max[:points]`.
fn parse_field_spec(spec: &str) -> Result<FieldSpec, String> {
    let usage = "expected name=min:max[:points]";
    let (name, range) = spec
        .split_once('=')
        .ok_or_else(|| format!("invalid --field `{spec}`: {usage}"))?;
    let field = GenField::parse_name(name).ok_or_else(|| {
        let known: Vec<&str> = GenField::ALL.iter().map(|f| f.name()).collect();
        format!(
            "unknown --field name `{name}` (expected one of: {})",
            known.join(", ")
        )
    })?;
    let parts: Vec<&str> = range.split(':').collect();
    if parts.len() < 2 || parts.len() > 3 {
        return Err(format!("invalid --field `{spec}`: {usage}"));
    }
    let num = |s: &str| -> Result<f64, String> {
        s.parse()
            .map_err(|_| format!("invalid --field `{spec}`: `{s}` is not a number"))
    };
    let points = match parts.get(2) {
        None => None,
        Some(p) => Some(p.parse::<usize>().map_err(|_| {
            format!("invalid --field `{spec}`: `{p}` is not a positive point count")
        })?),
    };
    Ok(FieldSpec {
        field,
        min: num(parts[0])?,
        max: num(parts[1])?,
        points,
    })
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let mut dir: Option<String> = None;
    let mut fields: Vec<FieldSpec> = Vec::new();
    let mut method = GenMethod::Grid;
    let mut count: Option<usize> = None;
    let mut seed: u64 = 42;
    let mut base_file: Option<String> = None;
    let mut base_builtin: Option<String> = None;
    let mut prefix = "fleet".to_owned();
    let mut format = FileFormat::Toml;
    let mut check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--field" => fields.push(parse_field_spec(&required(&mut it, "--field <SPEC>")?)?),
            "--method" => {
                let v = required(&mut it, "--method <M>")?;
                method = GenMethod::parse_name(&v).ok_or_else(|| {
                    format!("unknown --method `{v}` (expected grid, random or lhs)")
                })?;
            }
            "--count" => {
                let v = required(&mut it, "--count <N>")?;
                count = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or_else(|| format!("--count expects a positive integer, got `{v}`"))?,
                );
            }
            "--seed" => {
                let v = required(&mut it, "--seed <N>")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got `{v}`"))?;
            }
            "--base" => base_file = Some(required(&mut it, "--base <FILE>")?),
            "--builtin" => base_builtin = Some(required(&mut it, "--builtin <NAME>")?),
            "--prefix" => prefix = required(&mut it, "--prefix <NAME>")?,
            "--format" => {
                let v = required(&mut it, "--format <FMT>")?;
                format = match v.as_str() {
                    "toml" => FileFormat::Toml,
                    "json" => FileFormat::Json,
                    other => {
                        return Err(format!("unknown format `{other}` (expected toml or json)"))
                    }
                };
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            d if dir.is_none() => dir = Some(d.to_owned()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let dir = dir.ok_or("gen expects an output directory")?;
    if check {
        // Verification mode: compare the directory against what its
        // manifest.json deterministically regenerates.
        if !fields.is_empty() || count.is_some() || base_file.is_some() || base_builtin.is_some() {
            return Err("--check verifies an existing fleet against its manifest; \
                 generator options do not apply"
                .into());
        }
        let resolved = wsnem_analysis::resolve(
            wsnem_analysis::manifest::check_fleet_dir(Path::new(&dir)),
            &wsnem_analysis::LintConfig::default(),
        );
        for d in &resolved {
            outln!("{d}");
        }
        let c = wsnem_analysis::counts(&resolved);
        if c.errors > 0 {
            return Err(format!(
                "{dir}: fleet does not match its manifest ({} error(s))",
                c.errors
            ));
        }
        eprintln!("{dir}: fleet matches its manifest");
        return Ok(());
    }
    if method == GenMethod::Grid && count.is_some() {
        return Err(
            "--count applies to --method random/lhs; a grid's size is the \
                    product of its per-field points"
                .into(),
        );
    }
    // The paper baseline is the natural base point for a parameter study.
    let base = match (base_file, base_builtin) {
        (Some(_), Some(_)) => {
            return Err("pass either --base <FILE> or --builtin <NAME>, not both".into())
        }
        (Some(f), None) => files::load(&f).map_err(|e| e.to_string())?,
        (None, Some(n)) => builtin::find(&n).map_err(|e| e.to_string())?,
        (None, None) => builtin::find("paper-defaults").map_err(|e| e.to_string())?,
    };
    let spec = GenSpec {
        method,
        count: count.unwrap_or(10),
        seed,
        prefix,
        fields,
    };
    let manifest = gen::write_fleet(&dir, &base, &spec, format).map_err(|e| e.to_string())?;
    let axes: Vec<String> = spec
        .fields
        .iter()
        .map(|f| format!("{}=[{}, {}]", f.field, f.min, f.max))
        .collect();
    eprintln!(
        "generated {} scenario(s) into {dir} ({} sampling over {}); run them with \
         `wsnem run {dir}`",
        manifest.files.len(),
        spec.method.name(),
        axes.join(", ")
    );
    Ok(())
}

/// The canonical CPU state labels, in [`wsnem_energy::CpuState::index`]
/// order — also the order of `StateFractions::as_array`.
const STATE_LABELS: [&str; 4] = ["standby", "powerup", "idle", "active"];

fn cmd_trace(args: &[String]) -> Result<(), String> {
    use wsnem_obs::{StateTimeline, Tee, TraceWriter};

    let mut file: Option<String> = None;
    let mut builtin_name: Option<String> = None;
    let mut backend = "des".to_owned();
    let mut out_path: Option<String> = None;
    let mut limit: Option<usize> = None;
    let mut sample: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--builtin" => builtin_name = Some(required(&mut it, "--builtin <NAME>")?),
            "--backend" => backend = required(&mut it, "--backend <B>")?,
            "--out" | "-o" => out_path = Some(required(&mut it, "--out <FILE>")?),
            "--limit" => {
                let v = required(&mut it, "--limit <N>")?;
                limit = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or_else(|| format!("--limit expects a positive integer, got `{v}`"))?,
                );
            }
            "--sample" => {
                let v = required(&mut it, "--sample <N>")?;
                sample =
                    Some(v.parse().ok().filter(|&n: &usize| n >= 1).ok_or_else(|| {
                        format!("--sample expects a positive integer, got `{v}`")
                    })?);
            }
            "--seed" => {
                let v = required(&mut it, "--seed <N>")?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed expects an integer, got `{v}`"))?,
                );
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            f if file.is_none() => file = Some(f.to_owned()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let scenario = resolve_scenario(file, builtin_name, "trace")?;
    let cpu = scenario.cpu;
    let seed = seed.unwrap_or(cpu.master_seed);
    // The trace covers one replication from time zero with no warm-up
    // truncation, so the per-state sojourn fractions accumulated from the
    // stream reproduce the reported time-in-state split exactly.
    let mut tracer = TraceWriter::new(Vec::new());
    if let Some(n) = limit {
        tracer = tracer.with_limit(n);
    }
    if let Some(n) = sample {
        tracer = tracer.with_sampling(n);
    }
    let mut rng = wsnem_stats::rng::Xoshiro256PlusPlus::new(seed);

    let (bytes, summary) = match backend.as_str() {
        "des" => {
            tracer = tracer.with_state_labels(STATE_LABELS.map(str::to_owned).to_vec());
            let params = wsnem_des::CpuSimParams {
                service: wsnem_stats::dist::Dist::Exponential { rate: cpu.mu },
                power_down_threshold: cpu.power_down_threshold,
                power_up_delay: cpu.power_up_delay,
                horizon: cpu.horizon,
                warmup: 0.0,
                max_queue: None,
            };
            let sim = wsnem_des::CpuDes::new(params, wsnem_des::Workload::open_poisson(cpu.lambda))
                .map_err(|e| e.to_string())?;
            let mut obs = Tee::new(tracer, StateTimeline::new());
            let report = sim.run_observed(&mut rng, &mut obs);
            let Tee {
                a: tracer,
                b: timeline,
            } = obs;
            let mut summary = format!(
                "traced `{}` on the des kernel: horizon {} s, seed {seed}, {} record(s)\n",
                scenario.name,
                cpu.horizon,
                tracer.records_written()
            );
            let reported = report.fractions.as_array();
            for (i, label) in STATE_LABELS.iter().enumerate() {
                summary.push_str(&format!(
                    "  state {label:<8} trace {:.9}  report {:.9}\n",
                    timeline.fraction(i as u8),
                    reported[i]
                ));
            }
            (tracer.finish().map_err(|e| e.to_string())?, summary)
        }
        "petri" => {
            let (net, handles) = wsnem_core::build_cpu_edspn(
                cpu.lambda,
                cpu.mu,
                cpu.power_down_threshold,
                cpu.power_up_delay,
            )
            .map_err(|e| e.to_string())?;
            let labels: Vec<String> = net
                .transitions()
                .map(|t| net.transition_name(t).to_owned())
                .collect();
            tracer = tracer.with_transition_labels(labels);
            let rewards = wsnem_core::state_rewards(&handles);
            let cfg = wsnem_petri::SimConfig {
                horizon: cpu.horizon,
                warmup: 0.0,
                ..wsnem_petri::SimConfig::default()
            };
            let out = wsnem_petri::simulate_observed(&net, &cfg, &rewards, &mut rng, &mut tracer)
                .map_err(|e| e.to_string())?;
            let mut summary = format!(
                "traced `{}` on the petri kernel: horizon {} s, seed {seed}, {} record(s)\n",
                scenario.name,
                cpu.horizon,
                tracer.records_written()
            );
            for (i, label) in STATE_LABELS.iter().enumerate() {
                summary.push_str(&format!(
                    "  state {label:<8} report {:.9}\n",
                    out.reward_means[i]
                ));
            }
            (tracer.finish().map_err(|e| e.to_string())?, summary)
        }
        other => return Err(format!("unknown backend `{other}` (expected des or petri)")),
    };

    match &out_path {
        None => out(std::str::from_utf8(&bytes).map_err(|e| e.to_string())?),
        Some(path) => std::fs::write(path, &bytes).map_err(|e| format!("{path}: {e}"))?,
    }
    eprint!("{summary}");
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let mut o = parse_run_options(args)?;
    if o.format != "summary" {
        return Err("profile has no --format; its output is the timing table".into());
    }
    if o.out.is_some() {
        return Err("profile prints to stdout; redirect it instead of --out".into());
    }
    // The profile table is the output; keep stderr quiet unless asked.
    o.quiet = !o.verbose;
    if o.distributed.is_some() {
        return Err(
            "profile times in-process workers; --distributed belongs to `wsnem run`".into(),
        );
    }
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
    if !failures.is_empty() {
        return Err(format!(
            "{} of {} scenario(s) failed:\n  {}",
            failures.len(),
            scenarios.len(),
            failures.join("\n  ")
        ));
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let mut file: Option<String> = None;
    let mut builtin_name: Option<String> = None;
    let mut dirs: Vec<String> = Vec::new();
    let mut format = "summary".to_owned();
    let mut out_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut quick = false;
    let mut no_check = false;
    let mut tiered = false;
    let mut max_delta_pp: Option<f64> = None;
    let mut scenario_timeout: Option<f64> = None;
    let mut strict = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--builtin" => builtin_name = Some(required(&mut it, "--builtin <NAME>")?),
            "--scenario-timeout" => {
                let v = required(&mut it, "--scenario-timeout <SECS>")?;
                scenario_timeout = Some(parse_seconds("--scenario-timeout", &v)?);
            }
            "--strict" => strict = true,
            "--all-files" => dirs.push(required(&mut it, "--all-files <DIR>")?),
            "--format" => format = required(&mut it, "--format <FMT>")?,
            "--out" | "-o" => out_path = Some(required(&mut it, "--out <FILE>")?),
            "--quick" => quick = true,
            "--no-check" => no_check = true,
            "--tiered" => tiered = true,
            "--threads" => threads = Some(parse_threads(&mut it)?),
            "--max-delta-pp" => {
                let v = required(&mut it, "--max-delta-pp <PP>")?;
                max_delta_pp =
                    Some(v.parse().ok().filter(|x: &f64| *x > 0.0).ok_or_else(|| {
                        format!("--max-delta-pp expects a positive number, got `{v}`")
                    })?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            f if file.is_none() => file = Some(f.to_owned()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    // A directory positional means the same as --all-files.
    if let Some(f) = &file {
        if Path::new(f).is_dir() {
            dirs.insert(0, file.take().unwrap());
        }
    }
    let mut scenarios: Vec<Scenario> = Vec::new();
    if !dirs.is_empty() {
        if file.is_some() || builtin_name.is_some() {
            return Err(
                "pass either a scenario file / --builtin <NAME> or directories, not both".into(),
            );
        }
        for dir in &dirs {
            for (_, s) in parse_dir(dir, threads)? {
                if let Some(prev) = scenarios.iter().find(|p| p.name == s.name) {
                    return Err(format!(
                        "duplicate scenario `{}` across compared directories",
                        prev.name
                    ));
                }
                scenarios.push(s);
            }
        }
    } else {
        // Files parse without validating, so the preflight below can turn
        // every semantic problem into a coded diagnostic.
        scenarios.push(match (file, builtin_name) {
            (Some(_), Some(_)) => {
                return Err("pass either a scenario file or --builtin <NAME>, not both".into())
            }
            (None, None) => {
                return Err("compare expects a scenario file or --builtin <NAME>".into())
            }
            (Some(f), None) => files::parse(&f).map_err(|e| e.to_string())?,
            (None, Some(n)) => builtin::find(&n).map_err(|e| e.to_string())?,
        });
    }
    if !no_check {
        preflight(&scenarios, false)?;
    }
    if quick {
        for scenario in &mut scenarios {
            // Slightly larger smoke budget than `run --quick`: the matrix
            // gates on 2 pp agreement, which 2 replications of 300 s cannot
            // promise.
            scenario.cpu = scenario
                .cpu
                .with_replications(4)
                .with_horizon(1500.0)
                .with_warmup(scenario.cpu.warmup.clamp(50.0, 100.0));
            if let Some(sweep) = &mut scenario.sweep {
                sweep.values.truncate(2);
            }
        }
    }

    let mut reports: Vec<wsnem_scenario::CompareReport> = Vec::new();
    let mut timeouts = 0usize;
    for scenario in &scenarios {
        let registry = wsnem_scenario::global_registry();
        // The same wall-clock watchdog `run --scenario-timeout` applies per
        // scenario: a point that exceeds it is skipped with a coded
        // diagnostic (an error under --strict) instead of hanging the
        // matrix.
        let report = match scenario_timeout {
            None => {
                if tiered {
                    wsnem_scenario::compare_scenario_tiered(scenario, registry, threads)
                } else {
                    wsnem_scenario::compare_scenario_with(scenario, registry, threads)
                }
            }
            Some(seconds) => {
                let s = scenario.clone();
                wsnem_scenario::call_with_timeout(seconds, move || {
                    let registry = wsnem_scenario::global_registry();
                    if tiered {
                        wsnem_scenario::compare_scenario_tiered(&s, registry, threads)
                    } else {
                        wsnem_scenario::compare_scenario_with(&s, registry, threads)
                    }
                })
                .and_then(|r| r)
            }
        };
        match report {
            Ok(report) => reports.push(report),
            Err(wsnem_scenario::ScenarioError::Timeout { seconds }) => {
                timeouts += 1;
                eprintln!(
                    "{}",
                    wsnem_analysis::lints::SCENARIO_TIMEOUT.at(
                        wsnem_analysis::Location::scenario(&scenario.name),
                        format!(
                            "exceeded the {seconds} s wall-clock watchdog; \
                             its matrix was skipped"
                        )
                    )
                );
            }
            Err(e) => return Err(format!("{}: {e}", scenario.name)),
        }
    }
    if reports.is_empty() {
        return Err(format!(
            "every scenario ({timeouts}) hit the --scenario-timeout watchdog; nothing to compare"
        ));
    }

    // Directory comparisons merge into one document: concatenated
    // summaries, a JSON array, or one CSV header over every matrix's rows
    // (sorted file order). A single scenario keeps the historical
    // single-object JSON shape.
    let rendered = match format.as_str() {
        "summary" => {
            let mut s = String::new();
            for (i, report) in reports.iter().enumerate() {
                if i > 0 {
                    s.push('\n');
                }
                s.push_str(&report.summary());
            }
            s
        }
        "json" => {
            let mut s = if reports.len() == 1 {
                serde_json::to_string_pretty(&reports[0]).map_err(|e| e.to_string())?
            } else {
                serde_json::to_string_pretty(&reports).map_err(|e| e.to_string())?
            };
            s.push('\n');
            s
        }
        "csv" => {
            let mut s = String::from(wsnem_scenario::CompareReport::CSV_HEADER);
            s.push('\n');
            for report in &reports {
                for row in report.csv_rows() {
                    s.push_str(&row);
                    s.push('\n');
                }
            }
            s
        }
        other => {
            return Err(format!(
                "unknown format `{other}` (expected summary, json or csv)"
            ))
        }
    };
    match &out_path {
        None => out(&rendered),
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {} comparison matrix(es) to {path} ({format} format)",
                reports.len()
            );
        }
    }

    if let Some(tol) = max_delta_pp {
        let worst = reports
            .iter()
            .max_by(|a, b| a.max_mean_abs_delta_pp.total_cmp(&b.max_mean_abs_delta_pp))
            .expect("at least one comparison report");
        if worst.max_mean_abs_delta_pp > tol {
            return Err(format!(
                "comparison matrix for `{}` exceeds tolerance: max mean |Δ| = {:.3} pp > {tol} pp",
                worst.scenario, worst.max_mean_abs_delta_pp
            ));
        }
        eprintln!(
            "max mean |Δ| = {:.3} pp within tolerance {tol} pp",
            worst.max_mean_abs_delta_pp
        );
    }
    if timeouts > 0 && strict {
        return Err(format!(
            "{timeouts} scenario(s) hit the --scenario-timeout watchdog (--strict)"
        ));
    }
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    use wsnem_analysis::{self as analysis, Level, LintConfig};

    fn set(config: &mut LintConfig, lint: &str, level: Level) -> Result<(), String> {
        // `-D warnings` is the blanket escalation switch, rustc-style.
        if lint.eq_ignore_ascii_case("warnings") {
            if level == Level::Deny {
                config.deny_warnings = true;
                return Ok(());
            }
            return Err("`warnings` is a blanket switch: it only combines with -D/--deny".into());
        }
        config.set(lint, level)
    }

    let mut paths: Vec<String> = Vec::new();
    let mut builtins: Vec<String> = Vec::new();
    let mut all = false;
    let mut format = "human".to_owned();
    let mut config = LintConfig::default();
    let mut only_schema = false;
    let mut verbose = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => all = true,
            "--only-schema" => only_schema = true,
            "--verbose" | "-v" => verbose = true,
            "--builtin" => builtins.push(required(&mut it, "--builtin <NAME>")?),
            "--format" => format = required(&mut it, "--format <FMT>")?,
            "-W" | "--warn" => set(&mut config, &required(&mut it, "-W <LINT>")?, Level::Warn)?,
            "-D" | "--deny" => set(&mut config, &required(&mut it, "-D <LINT>")?, Level::Deny)?,
            "-A" | "--allow" => set(&mut config, &required(&mut it, "-A <LINT>")?, Level::Allow)?,
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            p => paths.push(p.to_owned()),
        }
    }
    if !matches!(format.as_str(), "human" | "json") {
        return Err(format!(
            "unknown format `{format}` (expected human or json)"
        ));
    }
    if paths.is_empty() && builtins.is_empty() && !all {
        return Err(
            "nothing to check: pass scenario files, directories, --builtin <name> or --all".into(),
        );
    }

    let registry = wsnem_scenario::global_registry();
    let opts = analysis::CheckOptions { only_schema };
    let mut diagnostics: Vec<analysis::Diagnostic> = Vec::new();
    let mut checked = 0usize;
    if all {
        for s in builtin::all() {
            checked += 1;
            diagnostics.extend(analysis::check_scenario(&s, registry, opts));
        }
    }
    for name in &builtins {
        let s = builtin::find(name).map_err(|e| e.to_string())?;
        checked += 1;
        diagnostics.extend(analysis::check_scenario(&s, registry, opts));
    }
    // Directory targets check every file a fleet run would pick up, plus
    // any raw `*.net.json` net specs (`check_file` dispatches on the
    // suffix), one file per index on every core; `resolve` sees the
    // findings in file order either way.
    for path in &paths {
        if Path::new(path).is_dir() {
            let files = fleet::discover(path).map_err(|e| e.to_string())?;
            checked += files.len();
            let found = par::map_indexed(files.len(), None, |i| {
                analysis::check_file(&files[i], registry, opts).0
            });
            diagnostics.extend(found.into_iter().flatten());
        } else {
            checked += 1;
            diagnostics.extend(analysis::check_file(Path::new(path), registry, opts).0);
        }
    }

    let resolved = analysis::resolve(diagnostics, &config);
    let counts = analysis::counts(&resolved);
    if format == "json" {
        // JSON carries everything; severity filtering is the consumer's
        // call.
        #[derive(serde::Serialize)]
        struct CheckOutput {
            checked: usize,
            counts: analysis::Counts,
            diagnostics: Vec<analysis::Diagnostic>,
        }
        let mut s = serde_json::to_string_pretty(&CheckOutput {
            checked,
            counts,
            diagnostics: resolved,
        })
        .map_err(|e| e.to_string())?;
        s.push('\n');
        out(&s);
    } else {
        for d in &resolved {
            if verbose || d.severity >= analysis::Severity::Warning {
                outln!("{d}");
            }
        }
        outln!(
            "checked {checked} target(s): {} error(s), {} warning(s), {} info(s)",
            counts.errors,
            counts.warnings,
            counts.infos
        );
    }
    if counts.errors > 0 {
        return Err(format!("check failed with {} error(s)", counts.errors));
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        return Err("validate expects at least one scenario file or directory".into());
    }
    // Directory targets validate every file a fleet run would load, as in
    // `check` and `run`.
    let mut files: Vec<String> = Vec::with_capacity(args.len());
    for arg in args {
        if Path::new(arg).is_dir() {
            let found = fleet::discover(arg).map_err(|e| e.to_string())?;
            files.extend(found.iter().map(|p| p.display().to_string()));
        } else {
            files.push(arg.clone());
        }
    }
    // `validate` is `check --only-schema` with fixed reporting: every
    // error-severity diagnostic prints, clean files get one ok-line, and
    // any invalid file makes the exit status non-zero. Files are checked
    // on every core and reported in order.
    let registry = wsnem_scenario::global_registry();
    let config = wsnem_analysis::LintConfig::default();
    let opts = wsnem_analysis::CheckOptions { only_schema: true };
    let checked = par::map_indexed(files.len(), None, |i| {
        wsnem_analysis::check_file(Path::new(&files[i]), registry, opts)
    });
    let mut bad = 0usize;
    for (file, (diags, scenario)) in files.iter().zip(checked) {
        let errors: Vec<_> = wsnem_analysis::resolve(diags, &config)
            .into_iter()
            .filter(|d| d.severity == wsnem_analysis::Severity::Error)
            .collect();
        if errors.is_empty() {
            match scenario {
                Some(s) => outln!("{file}: ok (scenario `{}`)", s.name),
                None => outln!("{file}: ok (net spec)"),
            }
        } else {
            bad += 1;
            for d in errors {
                outln!("{d}");
            }
        }
    }
    if bad > 0 {
        Err(format!("{bad} of {} file(s) invalid", files.len()))
    } else {
        Ok(())
    }
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let mut name: Option<String> = None;
    let mut format = "toml".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => format = required(&mut it, "--format <FMT>")?,
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            n if name.is_none() => name = Some(n.to_owned()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let name = name.ok_or("export expects a built-in scenario name")?;
    let scenario = builtin::find(&name).map_err(|e| e.to_string())?;
    let format = match format.as_str() {
        "toml" => FileFormat::Toml,
        "json" => FileFormat::Json,
        other => return Err(format!("unknown format `{other}` (expected toml or json)")),
    };
    let text = files::to_string(&scenario, format).map_err(|e| e.to_string())?;
    out(&text);
    if !text.ends_with('\n') {
        outln!();
    }
    Ok(())
}

fn cmd_topology(args: &[String]) -> Result<(), String> {
    let mut file: Option<String> = None;
    let mut builtin_name: Option<String> = None;
    let mut limit = DEFAULT_SUMMARY_NODE_LIMIT;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--builtin" => builtin_name = Some(required(&mut it, "--builtin <NAME>")?),
            "--limit" => {
                let v = required(&mut it, "--limit <N>")?;
                limit = v
                    .parse()
                    .map_err(|_| format!("--limit expects a non-negative integer, got `{v}`"))?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            f if file.is_none() => file = Some(f.to_owned()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let scenario = resolve_scenario(file, builtin_name, "topology")?;
    let spec = scenario
        .network
        .as_ref()
        .ok_or_else(|| format!("scenario `{}` declares no network", scenario.name))?;
    let profile = scenario.profile.build().map_err(|e| e.to_string())?;
    let battery = scenario.battery.build().map_err(|e| e.to_string())?;
    // Routing comes off the structure-of-arrays core, so a million-node
    // template inspects without ever materializing per-node structs.
    let soa = spec
        .build_soa(scenario.cpu, &profile, &battery)
        .map_err(|e| e.to_string())?;
    let routing = soa
        .routing()
        .map_err(|e| format!("scenario `{}`: invalid topology: {e}", scenario.name))?;
    let (depths, forwarded, sizes) = (&routing.depths, &routing.forwarded, &routing.subtree_sizes);

    let shape = spec.topology.as_ref().map(|t| t.label()).unwrap_or("star");
    let template = if spec.template.is_some() {
        " (template)"
    } else {
        ""
    };
    outln!(
        "scenario `{}`: {shape} topology{template}, {} node(s), max depth {}, \
         sink inflow {:.3} pkt/s\n",
        scenario.name,
        soa.len(),
        routing.max_hop_depth(),
        soa.sink_arrival_pkts_s()
    );
    outln!(
        "  {:<16} {:<16} {:>5} {:>8} {:>12} {:>12} {:>12}  {:<20}",
        "node",
        "next hop",
        "depth",
        "subtree",
        "own tx/s",
        "fwd rx/s",
        "cpu load/s",
        "radio (duty)"
    );
    for i in 0..soa.len().min(limit) {
        let next = match soa.routes.parent_of(i) {
            wsnem_scenario::SINK => "(sink)".to_owned(),
            j => soa.name(j as usize),
        };
        let radio = format!(
            "{} ({:.2}%)",
            spec.radio_spec_for(i).label(),
            100.0 * soa.radio_for(i).duty_cycle()
        );
        outln!(
            "  {:<16} {:<16} {:>5} {:>8} {:>12.3} {:>12.3} {:>12.3}  {:<20}",
            soa.name(i),
            next,
            depths[i],
            sizes[i],
            soa.own_tx_rate(i),
            forwarded[i],
            soa.event_rate[i] + forwarded[i],
            radio
        );
    }
    if soa.len() > limit {
        outln!(
            "  … and {} more node(s); use --limit to show more",
            soa.len() - limit
        );
    }
    // The last node of the last run at the maximum load: `max_by` keeps the
    // last of equal maxima, and a run's nodes share one load.
    let heaviest = forwarded
        .runs()
        .scan(0, |end, (load, len)| {
            *end += len;
            Some((*end - 1, load))
        })
        .filter(|&(_, load)| load > 0.0)
        .max_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((i, _)) = heaviest {
        // This inspector runs no model, so it can only rank relays by
        // load; the *lifetime* bottleneck relay (MAC-sensitive with
        // per-node radio overrides) comes from `wsnem run`.
        outln!(
            "\n  heaviest relay: `{}` forwards {:.3} pkt/s for {} node(s) \
             (lifetime bottleneck: see `wsnem run`)",
            soa.name(i),
            forwarded[i],
            sizes[i] - 1
        );
    }
    Ok(())
}

fn cmd_radio(args: &[String]) -> Result<(), String> {
    use wsnem_scenario::{Battery, RadioSpec};

    let mut file: Option<String> = None;
    let mut builtin_name: Option<String> = None;
    let mut preset: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--builtin" => builtin_name = Some(required(&mut it, "--builtin <NAME>")?),
            "--preset" => preset = Some(required(&mut it, "--preset <NAME>")?),
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            f if file.is_none() => file = Some(f.to_owned()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    // Collect (role, spec) pairs plus the battery that sizes the lifetime
    // column: a bare preset inspects on two AA cells; a scenario inspects
    // its own network's specs on its own battery.
    let (specs, battery): (Vec<(String, RadioSpec)>, Battery) = match (preset, file, builtin_name) {
        (Some(_), Some(_), _) | (Some(_), _, Some(_)) => {
            return Err("pass either --preset <NAME> or a scenario, not both".into())
        }
        (Some(name), None, None) => (
            vec![("preset".to_owned(), RadioSpec::Preset(name))],
            Battery::two_aa(),
        ),
        (None, None, None) => {
            return Err(
                "radio expects a scenario file, --builtin <NAME> or --preset <NAME> \
                 (e.g. `wsnem radio --preset cc2420-class`)"
                    .into(),
            )
        }
        (None, f, b) => {
            let scenario = resolve_scenario(f, b, "radio")?;
            let battery = scenario.battery.build().map_err(|e| e.to_string())?;
            let mut specs: Vec<(String, RadioSpec)> = Vec::new();
            match &scenario.network {
                None => specs.push((
                    "default (scenario declares no network)".to_owned(),
                    RadioSpec::default(),
                )),
                Some(net) => {
                    specs.push((
                        if net.radio.is_some() {
                            "network default".to_owned()
                        } else {
                            "network default (implicit)".to_owned()
                        },
                        net.radio.clone().unwrap_or_default(),
                    ));
                    for n in &net.nodes {
                        if let Some(r) = &n.radio {
                            // One block per distinct override; name every
                            // node that runs it.
                            match specs.iter_mut().find(|(_, s)| s == r) {
                                Some((role, _)) => role.push_str(&format!(", node `{}`", n.name)),
                                None => {
                                    specs.push((format!("node `{}` override", n.name), r.clone()))
                                }
                            }
                        }
                    }
                }
            }
            outln!(
                "scenario `{}`: {} distinct radio spec(s)\n",
                scenario.name,
                specs.len()
            );
            (specs, battery)
        }
    };

    for (i, (role, spec)) in specs.iter().enumerate() {
        if i > 0 {
            outln!();
        }
        let model = spec.lower().map_err(|e| e.to_string())?;
        outln!("radio `{}` — {role}", spec.label());
        outln!(
            "  power:  sleep {:.3} mW   listen/rx {:.3} mW   tx {:.3} mW",
            model.sleep_mw,
            model.listen_mw,
            model.tx_mw
        );
        outln!(
            "  timing: wake-up period {:.4} s, listen window {:.4} s  ->  duty cycle {:.2}%",
            model.period_s,
            model.listen_s,
            100.0 * model.duty_cycle()
        );
        outln!(
            "  airtime/packet: tx {:.4} s, rx {:.4} s (MAC overhead included)",
            model.tx_airtime_s,
            model.rx_airtime_s
        );
        outln!();
        outln!(
            "  {:>14}  {:>7} {:>7} {:>7} {:>7}  {:>10}  {:>16}",
            "pkt/s (tx=rx)",
            "tx%",
            "rx%",
            "listen%",
            "sleep%",
            "mean mW",
            "lifetime (days)"
        );
        for rate in [0.0, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0] {
            let split = model.time_split(rate, rate);
            let power = model.mean_power_mw(rate, rate);
            outln!(
                "  {:>14} {:>7.2} {:>7.2} {:>8.2} {:>7.2}  {:>10.3}  {:>16.1}",
                rate,
                100.0 * split.tx,
                100.0 * split.rx,
                100.0 * split.listen,
                100.0 * split.sleep,
                power,
                battery.lifetime_days(power)
            );
        }
        outln!(
            "  (lifetime = radio draw alone on a {:.0} mAh / {:.1} V battery; CPU not \
             included)",
            battery.capacity_mah,
            battery.voltage_v
        );
    }
    Ok(())
}

fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = Vec::new();
    let mut line = String::new();
    for word in text.split_whitespace() {
        if !line.is_empty() && line.len() + 1 + word.len() > width {
            lines.push(std::mem::take(&mut line));
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(word);
    }
    if !line.is_empty() {
        lines.push(line);
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_name_short_passes_through() {
        assert_eq!(truncate_name("paper-defaults", 32), "paper-defaults");
        assert_eq!(truncate_name("", 32), "");
        // Exactly at the limit: unchanged, no ellipsis.
        let exact = "x".repeat(32);
        assert_eq!(truncate_name(&exact, 32), exact);
    }

    #[test]
    fn truncate_name_cuts_long_names_with_ellipsis() {
        let long = "fleet-scenario-with-a-very-long-generated-name-0042";
        let cut = truncate_name(long, 32);
        assert_eq!(cut.chars().count(), 32);
        assert!(cut.ends_with('…'));
        assert!(long.starts_with(&cut[..cut.len() - '…'.len_utf8()]));
    }

    #[test]
    fn truncate_name_counts_chars_not_bytes() {
        // Multi-byte names must truncate on character boundaries.
        let name = "é".repeat(40);
        let cut = truncate_name(&name, 32);
        assert_eq!(cut.chars().count(), 32);
        assert!(cut.ends_with('…'));
    }

    #[test]
    fn progress_line_has_fixed_name_column() {
        let short = progress_line(1, 10, "tiny", 1.0, 9.0);
        let long = progress_line(
            2,
            10,
            "fleet-scenario-with-a-very-long-generated-name-0042",
            2.0,
            8.0,
        );
        // Same [done/total] digit counts ⇒ same display width: the long
        // name is truncated into the same fixed column the short one pads.
        assert_eq!(short.chars().count(), long.chars().count());
        assert!(long.contains('…'));
        assert!(short.contains("[1/10] tiny"));
    }

    #[test]
    fn batch_line_appends_cache_counts_only_when_cached() {
        let m = BatchMetrics {
            scenarios: 10,
            workers: 4,
            wall_seconds: 2.0,
            busy_seconds: 6.0,
            utilization: 0.75,
            scenarios_per_second: 5.0,
        };
        let plain = batch_line(&m, None, None);
        assert!(!plain.contains("cache"));
        let stats = CacheStats { hits: 7, misses: 3 };
        let cached = batch_line(&m, Some(&stats), None);
        assert!(cached.contains("cache: 7 hit(s), 3 miss(es)"), "{cached}");
    }

    #[test]
    fn batch_line_appends_distribution_counters_after_a_distributed_run() {
        let m = BatchMetrics {
            scenarios: 8,
            workers: 1,
            wall_seconds: 2.0,
            busy_seconds: 0.5,
            utilization: 0.25,
            scenarios_per_second: 4.0,
        };
        let dist = DistStats {
            workers_seen: 2,
            shards_total: 8,
            shards_remote: 6,
            shards_local: 2,
            reassigned: 3,
            fell_back_local: true,
            ..DistStats::default()
        };
        let line = batch_line(&m, None, Some(&dist));
        assert!(
            line.contains("distributed: 2 worker(s), 6 remote + 2 local shard(s), 3 reassigned"),
            "{line}"
        );
        assert!(line.ends_with("local fallback"), "{line}");
        let clean = batch_line(&m, None, Some(&DistStats::default()));
        assert!(!clean.contains("fallback"), "{clean}");
    }

    /// Paper defaults, an explicit tree (per-node `network` section) and a
    /// template tree (`network_aggregate`), each on one analytic backend.
    fn sample_reports() -> Vec<ScenarioReport> {
        let mut plain = builtin::paper_defaults();
        plain.backends = vec![wsnem_scenario::BackendId::Markov];
        let mut nodes = builtin::find("tree-collection").unwrap();
        nodes.backends = vec![wsnem_scenario::BackendId::Markov];
        let mut aggregate = Scenario::paper_template("aggregate");
        aggregate.backends = vec![wsnem_scenario::BackendId::Mg1];
        aggregate.network = Some(wsnem_scenario::NetworkSpec {
            nodes: Vec::new(),
            topology: Some(wsnem_scenario::TopologySpec::Tree { fanout: 3 }),
            radio: None,
            template: Some(wsnem_scenario::TemplateSpec {
                count: 50,
                prefix: "n".into(),
                event_rate: 0.01,
                tx_per_event: 1.0,
                rx_rate: 0.05,
            }),
        });
        let reports: Vec<ScenarioReport> = [plain, nodes, aggregate]
            .iter()
            .map(|s| wsnem_scenario::run_scenario(s).unwrap())
            .collect();
        assert!(reports[1].network.is_some());
        assert!(reports[2].network_aggregate.is_some());
        reports
    }

    #[test]
    fn render_joins_per_report_pieces_into_the_serial_documents() {
        let all = sample_reports();
        let metrics = BatchMetrics {
            scenarios: 3,
            workers: 2,
            wall_seconds: 0.5,
            busy_seconds: 0.75,
            utilization: 0.75,
            scenarios_per_second: 6.0,
        };
        let cache = CacheStats { hits: 2, misses: 1 };
        for n in [0, 1, 3] {
            let reports = &all[..n];
            let json = serde_json::to_string_pretty(&RunOutput {
                batch: metrics,
                cache: Some(cache),
                distributed: None,
                reports: reports.to_vec(),
            })
            .unwrap()
                + "\n";
            let mut csv = format!("{}\n", ScenarioReport::CSV_HEADER);
            let mut summary = String::new();
            for r in reports {
                for row in r.csv_rows() {
                    csv += &(row + "\n");
                }
                summary += &(r.summary_with_node_limit(5) + "\n");
            }
            summary += &(batch_line(&metrics, Some(&cache), None) + "\n");
            for threads in [Some(1), Some(2), None] {
                let render = |format| {
                    render(reports, &metrics, Some(&cache), None, format, 5, threads).unwrap()
                };
                assert_eq!(render("json"), json, "{n} report(s), {threads:?}");
                assert_eq!(render("csv"), csv, "{n} report(s), {threads:?}");
                assert_eq!(render("summary"), summary, "{n} report(s), {threads:?}");
            }
        }
    }

    #[test]
    fn parse_field_spec_full_and_partial() {
        let f = parse_field_spec("lambda=0.25:0.75:5").unwrap();
        assert_eq!(f.field, GenField::Lambda);
        assert_eq!((f.min, f.max, f.points), (0.25, 0.75, Some(5)));
        let f = parse_field_spec("node-count=4:16").unwrap();
        assert_eq!(f.field, GenField::NodeCount);
        assert_eq!(f.points, None);

        assert!(parse_field_spec("lambda").is_err());
        assert!(parse_field_spec("bogus=0:1")
            .unwrap_err()
            .contains("lambda"));
        assert!(parse_field_spec("lambda=0:1:2:3").is_err());
        assert!(parse_field_spec("lambda=a:b").is_err());
        assert!(parse_field_spec("lambda=0:1:-2").is_err());
    }
}
