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
//! directory) — see `--no-cache` / `--refresh`. Each subcommand declares
//! its flags as one table, which parses its arguments and renders its help
//! (see `args`) — the workspace builds offline, without clap.

// The binary's `main` converts every error into an exit code; the few
// unwraps left guard infallible conversions, where a panic is acceptable.
#![allow(clippy::disallowed_methods)]

use std::process::ExitCode;

use args::{Command, Flag};

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
    () => { $crate::out("\n") };
    ($($arg:tt)*) => { $crate::out(&format!("{}\n", format_args!($($arg)*))) };
}

mod args;
mod check;
mod compare;
mod gen;
mod inspect;
mod run;
mod trace;
mod worker;

/// Every subcommand, in help order; `main` dispatches on the first word
/// of each synopsis.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { synopsis: "list", flags: None, run: inspect::cmd_list,
              help: &["List built-in scenarios"] },
    Command { synopsis: "run [FILES|DIRS..] [OPTIONS]", run: run::cmd_run,
              flags: Some(&[run::SCENARIO_FLAGS, run::RUN_FLAGS, run::COORDINATOR_FLAGS]),
              help: &["Run scenario files, whole directories of them",
                      "and/or built-ins; directory runs answer",
                      "unchanged scenarios from the content-hash",
                      "result cache (.wsnem-cache/ inside the",
                      "directory)"] },
    Command { synopsis: "gen <DIR> [OPTIONS]", flags: Some(&[gen::FLAGS]), run: gen::cmd_gen,
              help: &["Generate a scenario fleet into DIR: grid,",
                      "seeded-random or Latin-hypercube samples over",
                      "declared fields, one file per scenario plus a",
                      "manifest.json recording the generator spec"] },
    Command { synopsis: "serve <DIRS..> [OPTIONS]", run: run::cmd_serve,
              flags: Some(&[run::SCENARIO_FLAGS, run::RUN_FLAGS, run::SERVE_FLAGS, run::COORDINATOR_FLAGS]),
              help: &["Run a fleet as a distributed coordinator:",
                      "listen on --addr, lease content-hash shards to",
                      "pulling workers, reassign the shards of",
                      "crashed or silent workers, and fall back to an",
                      "in-process run if no worker appears within the",
                      "grace window; accepts the run options too"] },
    Command { synopsis: "worker <ADDR> [OPTIONS]", run: worker::cmd_worker,
              flags: Some(&[worker::FLAGS]),
              help: &["Join a coordinator as a pull worker: compute",
                      "shards, stream results back, heartbeat while",
                      "computing, and reconnect with exponential",
                      "backoff + jitter when the connection drops"] },
    Command { synopsis: "compare [FILE|DIR] [OPTIONS]", run: compare::cmd_compare,
              flags: Some(&[compare::FLAGS]),
              help: &["Run EVERY registered backend over a scenario's",
                      "base point and sweep, and emit the paper's",
                      "Table 4/5 cross-backend comparison matrix",
                      "(per-state deltas in percentage points plus",
                      "wall-clock cost per backend)"] },
    Command { synopsis: "trace [FILE] [OPTIONS]", run: trace::cmd_trace,
              flags: Some(&[trace::FLAGS]),
              help: &["Run one scenario's CPU model with a trace",
                      "observer attached and emit an NDJSON event",
                      "stream (firings, state changes, queue depths);",
                      "attaching the tracer never perturbs the run"] },
    Command { synopsis: "profile [FILES|DIRS..] [OPTIONS]", run: run::cmd_profile,
              flags: Some(&[run::SCENARIO_FLAGS, run::PROFILE_FLAGS]),
              help: &["Run scenarios and print a wall-clock profile:",
                      "per-scenario phase timings (base / sweep /",
                      "network), per-backend solver cost and batch",
                      "worker utilization"] },
    Command { synopsis: "check [FILES|DIRS..] [OPTIONS]", run: check::cmd_check,
              flags: Some(&[check::FLAGS]),
              help: &["Statically verify scenarios (or raw *.net.json",
                      "Petri-net specs) without running them: schema",
                      "and backend checks, queue stability on the",
                      "forwarding-inflated arrival rate, radio airtime",
                      "saturation, and net-level proofs (semiflows,",
                      "deadlock, dead transitions); exits non-zero",
                      "when any error-severity lint fires"] },
    Command { synopsis: "validate <FILES|DIRS..>", flags: Some(&[]), run: check::cmd_validate,
              help: &["Schema-level checks only (check --only-schema):",
                      "parse + validate scenario files (a directory",
                      "means every file a fleet run would load),",
                      "reporting every finding as a coded diagnostic"] },
    Command { synopsis: "export <NAME> [OPTIONS]", run: inspect::cmd_export,
              flags: Some(&[inspect::EXPORT_FLAGS]),
              help: &["Print a built-in scenario as a file"] },
    Command { synopsis: "topology [FILE] [--builtin <NAME>] [--limit <N>]", run: inspect::cmd_topology,
              flags: Some(&[inspect::TOPOLOGY_FLAGS]),
              help: &["Inspect a scenario's multi-hop routing:",
                      "per-node next hop, hop depth, subtree size,",
                      "forwarding load and radio MAC (no model",
                      "evaluation); prints at most N rows",
                      "(default 50) before an \"… and K more\" footer"] },
    Command { synopsis: "radio [FILE] [--builtin <NAME> | --preset <NAME>]", run: inspect::cmd_radio,
              flags: Some(&[inspect::RADIO_FLAGS]),
              help: &["Inspect duty-cycle radio/MAC specs: lowered",
                      "timing numbers, derived duty cycle, the",
                      "per-state power split and a",
                      "lifetime-vs-traffic table"] },
    Command { synopsis: "help", flags: None, run: |_| { out(&usage()); Ok(()) },
              help: &["Show this help"] },
];

/// The help's options sections, in the order they print.
#[rustfmt::skip]
const SECTIONS: &[(&str, &[&[Flag]])] = &[
    ("RUN OPTIONS", &[run::SCENARIO_FLAGS, run::RUN_FLAGS]),
    ("SERVE OPTIONS (in addition to the run options)", &[run::SERVE_FLAGS, run::COORDINATOR_FLAGS]),
    ("WORKER OPTIONS", &[worker::FLAGS]),
    ("GEN OPTIONS", &[gen::FLAGS]),
    ("CHECK OPTIONS", &[check::FLAGS]),
    ("TRACE OPTIONS", &[trace::FLAGS]),
    ("PROFILE OPTIONS", &[run::SCENARIO_FLAGS, run::PROFILE_FLAGS]),
    ("COMPARE OPTIONS", &[compare::FLAGS]),
    ("EXPORT OPTIONS", &[inspect::EXPORT_FLAGS]),
];

fn usage() -> String {
    args::usage(COMMANDS, SECTIONS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = argv.split_first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let name = if matches!(name.as_str(), "--help" | "-h") {
        "help"
    } else {
        name
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.synopsis.split(' ').next() == Some(name));
    let result = match command {
        None => Err(format!("unknown command `{name}`\n\n{}", usage())),
        Some(c) => args::parse(rest, c.flags).and_then(|a| (c.run)(&a)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    //! Unit tests of the subcommand modules' helpers.

    use wsnem_fleetd::DistStats;
    use wsnem_scenario::{builtin, BatchMetrics, CacheStats, GenField, Scenario, ScenarioReport};

    use crate::gen::parse_field_spec;
    use crate::run::{batch_line, progress_line, render, truncate_name, RunOutput};

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
