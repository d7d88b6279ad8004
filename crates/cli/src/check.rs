//! `check` and `validate`: static verification of scenarios and raw net
//! specs, reported as coded diagnostics.

use std::path::{Path, PathBuf};

use wsnem_scenario::{builtin, fleet};
use wsnem_stats::par;

use crate::args::{self, switch, value, Args, Flag};
use crate::out;

#[rustfmt::skip]
pub(crate) const FLAGS: &[Flag] = &[
    switch(&["--all"],                     &["Check every built-in scenario"]),
    value(&["--builtin"], "<NAME>",        &["Check one built-in (repeatable)"]),
    switch(&["--only-schema"],             &["Skip the net-level passes (what validate runs)"]),
    value(&["--format"], "<FMT>",          &["Output format: human (default), json"]),
    value(&["-W", "--warn"], "<LINT>",     &["Report LINT (code or name) at warning severity"]),
    value(&["-D", "--deny"], "<LINT>",     &["Report LINT at error severity; `-D warnings`",
                                             "escalates every warning, rustc-style"]),
    value(&["-A", "--allow"], "<LINT>",    &["Suppress LINT entirely"]),
    switch(&["--verbose", "-v"],           &["Also print info-severity findings (human format)"]),
];

/// The files `check` and `validate` read for `paths`: a directory stands
/// for every file a fleet run would load from it.
fn targets(paths: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for path in paths {
        if Path::new(path).is_dir() {
            files.extend(fleet::discover(path).map_err(|e| e.to_string())?);
        } else {
            files.push(path.into());
        }
    }
    Ok(files)
}

pub(crate) fn cmd_check(a: &Args) -> Result<(), String> {
    use wsnem_analysis::{self as analysis, Level, LintConfig};

    let format = args::format(a.value("--format").unwrap_or("human"), &["human", "json"])?;
    let mut config = LintConfig::default();
    for (flag, lint) in a.each(&["-W", "-D", "-A"]) {
        match (flag, lint.eq_ignore_ascii_case("warnings")) {
            // `-D warnings` is the blanket escalation switch, rustc-style.
            ("-D", true) => config.deny_warnings = true,
            (_, true) => {
                return Err(
                    "`warnings` is a blanket switch: it only combines with -D/--deny".into(),
                )
            }
            ("-W", false) => config.set(lint, Level::Warn)?,
            ("-D", false) => config.set(lint, Level::Deny)?,
            _ => config.set(lint, Level::Allow)?,
        }
    }
    if a.positionals.is_empty() && !a.has("--builtin") && !a.has("--all") {
        return Err(
            "nothing to check: pass scenario files, directories, --builtin <name> or --all".into(),
        );
    }

    let registry = wsnem_scenario::global_registry();
    let opts = analysis::CheckOptions {
        only_schema: a.has("--only-schema"),
    };
    let mut scenarios = if a.has("--all") {
        builtin::all()
    } else {
        Vec::new()
    };
    for name in a.values("--builtin") {
        scenarios.push(builtin::find(name).map_err(|e| e.to_string())?);
    }
    let mut diagnostics: Vec<analysis::Diagnostic> = scenarios
        .iter()
        .flat_map(|s| analysis::check_scenario(s, registry, opts))
        .collect();
    // Raw `*.net.json` net specs check too (`check_file` dispatches on the
    // suffix), one file per index on every core; `resolve` sees the
    // findings in file order.
    let files = targets(&a.positionals)?;
    let checked = scenarios.len() + files.len();
    let found = par::map_indexed(files.len(), None, |i| {
        analysis::check_file(&files[i], registry, opts).0
    });
    diagnostics.extend(found.into_iter().flatten());

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
            if a.has("--verbose") || d.severity >= analysis::Severity::Warning {
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

pub(crate) fn cmd_validate(a: &Args) -> Result<(), String> {
    if a.positionals.is_empty() {
        return Err("validate expects at least one scenario file or directory".into());
    }
    let files = targets(&a.positionals)?;
    // `validate` is `check --only-schema` with fixed reporting: every
    // error-severity diagnostic prints, clean files get one ok-line, and
    // any invalid file makes the exit status non-zero. Files are checked
    // on every core and reported in order.
    let registry = wsnem_scenario::global_registry();
    let config = wsnem_analysis::LintConfig::default();
    let opts = wsnem_analysis::CheckOptions { only_schema: true };
    let checked = par::map_indexed(files.len(), None, |i| {
        wsnem_analysis::check_file(&files[i], registry, opts)
    });
    let mut bad = 0usize;
    for (file, (diags, scenario)) in files.iter().zip(checked) {
        let file = file.display();
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
