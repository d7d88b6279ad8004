//! `compare`: run every registered backend over a scenario and emit the
//! paper's Table 4/5 cross-backend matrix.

use std::path::Path;

use wsnem_scenario::{files, Scenario};

use crate::args::{self, switch, value, Args, Flag};
use crate::inspect::resolve_scenario;
use crate::out;
use crate::run::{parse_dir, preflight};

#[rustfmt::skip]
pub(crate) const FLAGS: &[Flag] = &[
    value(&["--builtin"], "<NAME>",        &["Compare a built-in scenario"]),
    value(&["--all-files"], "<DIR>",       &["Compare every scenario file in DIR (a directory",
                                             "positional means the same); matrices merge into one",
                                             "CSV/JSON document in sorted file order"]),
    value(&["--format"], "<FMT>",          &["Output format: summary (default), json, csv"]),
    value(&["--out", "-o"], "<FILE>",      &["Write the matrix there instead of stdout"]),
    value(&["--threads"], "<N>",           &["Replication worker threads (default: all cores)"]),
    switch(&["--quick"],                   &["Shrink replications/horizons for a fast smoke run"]),
    switch(&["--no-check"],                &["Skip the static preflight"]),
    value(&["--scenario-timeout"], "<SECS>", &["Per-scenario wall-clock watchdog: a matrix whose",
                                             "scenario exceeds it is skipped with a W006",
                                             "diagnostic; exits non-zero only under --strict"]),
    switch(&["--strict"],                  &["Make watchdog timeouts an error"]),
    value(&["--max-delta-pp"], "<PP>",     &["Exit non-zero if any backend's mean |Δ| vs the",
                                             "reference exceeds PP percentage points"]),
    switch(&["--tiered"],                  &["Skip the simulation backends at points whose",
                                             "utilization rho stays below 0.9 (the analytic",
                                             "closed forms are exact there); skipped cells show",
                                             "\"skipped by tiering\" at zero cost"]),
];

pub(crate) fn cmd_compare(a: &Args) -> Result<(), String> {
    let mut file = a.positional()?;
    let mut dirs: Vec<String> = a.values("--all-files").map(str::to_owned).collect();
    let formats = ["summary", "json", "csv"];
    let format = args::format(a.value("--format").unwrap_or("summary"), &formats)?;
    let threads = a.parsed("--threads", args::threads)?;
    let max_delta_pp = a.parsed("--max-delta-pp", |_, v| {
        v.parse()
            .ok()
            .filter(|x: &f64| *x > 0.0)
            .ok_or_else(|| format!("--max-delta-pp expects a positive number, got `{v}`"))
    })?;
    let scenario_timeout = a.parsed("--scenario-timeout", args::seconds)?;
    // A directory positional means the same as --all-files.
    if let Some(f) = &file {
        if Path::new(f).is_dir() {
            dirs.insert(0, file.take().unwrap());
        }
    }
    let mut scenarios: Vec<Scenario> = Vec::new();
    if !dirs.is_empty() {
        if file.is_some() || a.has("--builtin") {
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
        scenarios.push(resolve_scenario(a, "compare", files::parse)?);
    }
    if !a.has("--no-check") {
        preflight(&scenarios, false)?;
    }
    if a.has("--quick") {
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

    let tiered = a.has("--tiered");
    let compare = move |s: &Scenario| {
        let registry = wsnem_scenario::global_registry();
        if tiered {
            wsnem_scenario::compare_scenario_tiered(s, registry, threads)
        } else {
            wsnem_scenario::compare_scenario_with(s, registry, threads)
        }
    };
    let mut reports: Vec<wsnem_scenario::CompareReport> = Vec::new();
    let mut timeouts = 0usize;
    for scenario in &scenarios {
        // The same wall-clock watchdog `run --scenario-timeout` applies per
        // scenario: a point that exceeds it is skipped with a coded
        // diagnostic (an error under --strict) instead of hanging the
        // matrix.
        let report = match scenario_timeout {
            None => compare(scenario),
            Some(seconds) => {
                let s = scenario.clone();
                wsnem_scenario::call_with_timeout(seconds, move || compare(&s)).and_then(|r| r)
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
    let rendered = match format {
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
    match a.value("--out") {
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
    if timeouts > 0 && a.has("--strict") {
        return Err(format!(
            "{timeouts} scenario(s) hit the --scenario-timeout watchdog (--strict)"
        ));
    }
    Ok(())
}
