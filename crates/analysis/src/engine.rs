//! The check engine: orchestrates passes over scenarios, scenario files and
//! raw net-spec files, and folds lint configuration into the final report.

use std::path::Path;

use wsnem_core::BackendRegistry;
use wsnem_petri::NetSpec;
use wsnem_scenario::{files, Scenario};

use crate::diag::{Diagnostic, Location, Severity};
use crate::lints::{self, LintConfig};
use crate::{net_passes, scenario_passes};

/// What to run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckOptions {
    /// Skip the net-level passes — schema/scenario findings only. This is
    /// exactly what `wsnem validate` runs.
    pub only_schema: bool,
}

/// Check an in-memory scenario: scenario-level passes, then (unless
/// `only_schema`) the net-level passes over its EDSPN.
pub fn check_scenario(
    s: &Scenario,
    registry: &BackendRegistry,
    opts: CheckOptions,
) -> Vec<Diagnostic> {
    let mut out = scenario_passes::run(s, registry);
    if !opts.only_schema {
        out.extend(net_passes::run(s));
    }
    out
}

/// The filename suffix that marks a raw Petri-net spec file, checked by the
/// net-level passes directly (no scenario wrapping).
pub const NET_SPEC_SUFFIX: &str = ".net.json";

/// Check one file: a `.net.json` net spec runs the net passes; anything
/// else parses as a scenario (without validating — every finding comes back
/// as a diagnostic, not one hard error) and runs [`check_scenario`]. Every
/// diagnostic is stamped with the file path.
///
/// The scenario the file parsed to comes back too (`None` for a net spec or
/// a file that does not parse).
pub fn check_file(
    path: &Path,
    registry: &BackendRegistry,
    opts: CheckOptions,
) -> (Vec<Diagnostic>, Option<Scenario>) {
    let display = path.display().to_string();
    let (mut out, scenario) = if display.ends_with(NET_SPEC_SUFFIX) {
        (check_net_spec_file(path), None)
    } else {
        match files::parse(path) {
            Ok(s) => (check_scenario(&s, registry, opts), Some(s)),
            Err(e) => (
                vec![lints::PARSE_ERROR.at(Location::default(), e.to_string())],
                None,
            ),
        }
    };
    for d in &mut out {
        if d.location.file.is_none() {
            d.location.file = Some(display.clone());
        }
    }
    (out, scenario)
}

/// Parse and check a raw `.net.json` net-spec file.
fn check_net_spec_file(path: &Path) -> Vec<Diagnostic> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return vec![lints::PARSE_ERROR.at(Location::default(), e.to_string())],
    };
    let spec: NetSpec = match serde_json::from_str(&text) {
        Ok(spec) => spec,
        Err(e) => {
            return vec![
                lints::PARSE_ERROR.at(Location::default(), format!("net spec does not parse: {e}"))
            ]
        }
    };
    match spec.build() {
        Ok(net) => net_passes::check_net(&net, Location::default()),
        Err(e) => {
            vec![lints::PARSE_ERROR.at(Location::default(), format!("net spec does not build: {e}"))]
        }
    }
}

/// Apply a [`LintConfig`] to raw diagnostics: allowed lints vanish, the
/// rest take their effective severity, and the result is ordered
/// worst-first (stable within a severity).
pub fn resolve(diagnostics: Vec<Diagnostic>, config: &LintConfig) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = diagnostics
        .into_iter()
        .filter_map(|mut d| {
            config.effective(&d).map(|severity| {
                d.severity = severity;
                d
            })
        })
        .collect();
    out.sort_by_key(|d| std::cmp::Reverse(d.severity));
    out
}

/// Severity counts over resolved diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct Counts {
    /// Diagnostics at [`Severity::Error`].
    pub errors: usize,
    /// Diagnostics at [`Severity::Warning`].
    pub warnings: usize,
    /// Diagnostics at [`Severity::Info`].
    pub infos: usize,
}

/// Count resolved diagnostics by severity.
pub fn counts(diagnostics: &[Diagnostic]) -> Counts {
    let mut c = Counts::default();
    for d in diagnostics {
        match d.severity {
            Severity::Error => c.errors += 1,
            Severity::Warning => c.warnings += 1,
            Severity::Info => c.infos += 1,
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::Level;
    use wsnem_scenario::builtin;

    fn registry() -> &'static BackendRegistry {
        wsnem_scenario::global_registry()
    }

    fn write_temp(tag: &str, name: &str, content: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wsnem-analysis-engine-{tag}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write");
        path
    }

    #[test]
    fn check_file_parses_scenario_and_stamps_path() {
        let s = builtin::paper_defaults();
        let text = files::to_string(&s, files::FileFormat::Toml).expect("renders");
        let path = write_temp("stamp", "s.toml", &text);
        let (diags, _) = check_file(&path, registry(), CheckOptions::default());
        assert!(!diags.is_empty());
        for d in &diags {
            assert_eq!(
                d.location.file.as_deref(),
                Some(path.display().to_string().as_str())
            );
        }
        assert!(diags.iter().all(|d| d.severity < Severity::Warning));
    }

    #[test]
    fn syntax_error_is_e001() {
        let path = write_temp("syntax", "bad.toml", "this is not toml = = =");
        let (diags, _) = check_file(&path, registry(), CheckOptions::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E001");
    }

    #[test]
    fn net_spec_files_run_net_passes() {
        // A one-shot net: drains its token and deadlocks, and has no
        // T-semiflow.
        let mut b = wsnem_petri::NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let t = b.exponential("t", 1.0);
        b.input_arc(p0, t, 1);
        b.output_arc(t, p1, 1);
        let net = b.build().expect("valid net");
        let spec = serde_json::to_string_pretty(&net.to_spec()).expect("serializes");
        let path = write_temp("netspec", "oneshot.net.json", &spec);
        let (diags, _) = check_file(&path, registry(), CheckOptions::default());
        assert!(
            diags.iter().any(|d| d.code == "E007"),
            "one-shot net deadlocks: {diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.code == "W005"),
            "one-shot net has no T-semiflow: {diags:?}"
        );
    }

    #[test]
    fn only_schema_skips_net_passes() {
        let s = builtin::paper_defaults();
        let diags = check_scenario(&s, registry(), CheckOptions { only_schema: true });
        assert!(
            diags.iter().all(|d| d.code != "I003" && d.code != "I001"),
            "{diags:?}"
        );
    }

    #[test]
    fn resolve_drops_allowed_and_sorts_worst_first() {
        let mut s = builtin::paper_defaults();
        s.cpu.lambda = 12.0;
        let mut cfg = LintConfig::default();
        cfg.set("semiflow-coverage", Level::Allow)
            .expect("known lint");
        let diags = resolve(
            check_scenario(&s, registry(), CheckOptions::default()),
            &cfg,
        );
        assert!(diags.iter().all(|d| d.code != "I002"));
        assert_eq!(diags.first().map(|d| d.code), Some("E005"));
        let c = counts(&diags);
        assert!(c.errors >= 1, "{c:?}");
    }
}
