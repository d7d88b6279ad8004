//! The diagnostic data model — what a check found, where, and how bad it
//! is — and the lint registry: every finding `wsnem check` can emit, with a
//! stable code, a kebab-case name and a default severity (README's lint
//! table says what each catches and what triggers it). The scenario rules ([`crate::Scenario::diagnose`]) emit their
//! errors here; `wsnem-analysis` re-exports this module and adds the lints
//! and the net passes.

use std::fmt;

use serde::{Serialize, Value};

/// How seriously a diagnostic should be taken.
///
/// Ordered: `Info < Warning < Error`, so "the worst severity in a report"
/// is a plain `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: a structural fact worth knowing, never a defect.
    Info,
    /// A smell or risk the model will still simulate through.
    Warning,
    /// The scenario or net is unsound; running it is refused by default.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where a diagnostic points: any subset of file / scenario / node / field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Location {
    /// Source file the finding came from, when checking files.
    pub file: Option<String>,
    /// Scenario name.
    pub scenario: Option<String>,
    /// Network node name, for per-node findings.
    pub node: Option<String>,
    /// Schema field or net element (place / transition) the finding is about.
    pub field: Option<String>,
}

impl Location {
    /// Location naming just a scenario.
    pub fn scenario(name: &str) -> Self {
        Location {
            scenario: Some(name.to_owned()),
            ..Location::default()
        }
    }

    /// Attach a field path.
    pub fn with_field(mut self, field: impl Into<String>) -> Self {
        self.field = Some(field.into());
        self
    }

    /// Attach a node name.
    pub fn with_node(mut self, node: impl Into<String>) -> Self {
        self.node = Some(node.into());
        self
    }

    /// Attach a source file.
    pub fn with_file(mut self, file: impl Into<String>) -> Self {
        self.file = Some(file.into());
        self
    }

    /// True when nothing is set (a whole-run diagnostic).
    pub fn is_empty(&self) -> bool {
        *self == Location::default()
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(file) = &self.file {
            parts.push(file.clone());
        }
        if let Some(s) = &self.scenario {
            parts.push(format!("scenario `{s}`"));
        }
        if let Some(n) = &self.node {
            parts.push(format!("node `{n}`"));
        }
        if let Some(fld) = &self.field {
            parts.push(fld.clone());
        }
        f.write_str(&parts.join(": "))
    }
}

/// One finding: a lint code, its (default) severity, where it points, what
/// went wrong and, when there is one, a concrete way out.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable lint code (`E005`, `W002`, `I001`, …).
    pub code: &'static str,
    /// The lint's kebab-case name (`unstable-queue`).
    pub name: &'static str,
    /// Severity as configured lints resolved it (default severity at
    /// construction; the engine rewrites it when `-W`/`-D` overrides apply).
    pub severity: Severity,
    /// Where the finding points.
    pub location: Location,
    /// What was found.
    pub message: String,
    /// How to fix it, when a concrete suggestion exists.
    pub help: Option<String>,
}

// The in-workspace serde derive supports no field attributes, and the JSON
// output wants lowercase severities and absent-not-null locations — so the
// `Serialize` impls are spelled out.
impl Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for Location {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = Vec::new();
        for (key, v) in [
            ("file", &self.file),
            ("scenario", &self.scenario),
            ("node", &self.node),
            ("field", &self.field),
        ] {
            if let Some(v) = v {
                entries.push((key.to_owned(), Value::Str(v.clone())));
            }
        }
        Value::Map(entries)
    }
}

impl Serialize for Diagnostic {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("code".to_owned(), Value::Str(self.code.to_owned())),
            ("name".to_owned(), Value::Str(self.name.to_owned())),
            ("severity".to_owned(), self.severity.to_value()),
            ("location".to_owned(), self.location.to_value()),
            ("message".to_owned(), Value::Str(self.message.clone())),
        ];
        if let Some(help) = &self.help {
            entries.push(("help".to_owned(), Value::Str(help.clone())));
        }
        Value::Map(entries)
    }
}

impl Diagnostic {
    /// Attach a help suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Render in the `severity[code] location: message` human form, with the
    /// help suggestion indented below.
    pub fn render(&self) -> String {
        let mut s = format!("{}[{}]", self.severity, self.code);
        if !self.location.is_empty() {
            s.push_str(&format!(" {}", self.location));
        }
        s.push_str(&format!(": {}", self.message));
        if let Some(help) = &self.help {
            s.push_str(&format!("\n  help: {help}"));
        }
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A registered lint: stable identity plus its default severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lint {
    /// Stable code: `Exxx` for default-error lints, `Wxxx` for warnings,
    /// `Ixxx` for informational findings.
    pub code: &'static str,
    /// Kebab-case name, accepted wherever the code is.
    pub name: &'static str,
    /// Severity before any per-run override.
    pub severity: Severity,
}

impl Lint {
    /// Build a diagnostic for this lint at its default severity.
    pub fn at(&'static self, location: Location, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code: self.code,
            name: self.name,
            severity: self.severity,
            location,
            message: message.into(),
            help: None,
        }
    }
}

macro_rules! lints {
    ($($(#[$doc:meta])* $ident:ident = ($code:literal, $name:literal, $sev:ident);)*) => {
        $(
            $(#[$doc])*
            // Summaries carry bracketed math like `E[S]`, which must not be
            // parsed as an intra-doc link.
            #[allow(rustdoc::broken_intra_doc_links)]
            pub static $ident: Lint = Lint {
                code: $code,
                name: $name,
                severity: Severity::$sev,
            };
        )*
        /// Every registered lint, in code order.
        pub static ALL: &[&Lint] = &[$(&$ident),*];
    };
}

lints! {
    /// the file cannot be read, parsed, or built into a net
    PARSE_ERROR = ("E001", "parse-error", Error);
    /// the file's schema_version is outside the supported range
    SCHEMA_VERSION = ("E002", "schema-version", Error);
    /// a requested backend is not in the solver registry
    UNKNOWN_BACKEND = ("E003", "unknown-backend", Error);
    /// a field fails schema validation (out of range, inconsistent, or missing)
    INVALID_FIELD = ("E004", "invalid-field", Error);
    /// offered load rho = lambda_eff * E[S] >= 1, or lambda_eff / mu >= 1: the job queue grows without bound
    UNSTABLE_QUEUE = ("E005", "unstable-queue", Error);
    /// a backend is asked for something its capabilities rule out
    CAPABILITY_MISMATCH = ("E006", "capability-mismatch", Error);
    /// the Petri net can reach a marking that enables no transition
    NET_DEADLOCK = ("E007", "net-deadlock", Error);
    /// a transition can never fire (structurally starved or unreached in the full state space)
    DEAD_TRANSITION = ("E008", "dead-transition", Error);
    /// a fleet directory disagrees with its manifest.json (missing file, drifted content)
    MANIFEST_MISMATCH = ("E009", "manifest-mismatch", Error);
    /// offered load rho >= 0.95: stable on paper, but near-saturated queues mix slowly
    HIGH_RHO = ("W001", "high-rho", Warning);
    /// packet airtime alone fills (or overfills) a node's radio schedule
    RADIO_SATURATION = ("W002", "radio-saturation", Warning);
    /// a sweep axis repeats a value: duplicate rows cost simulation time and add nothing
    DEGENERATE_SWEEP = ("W003", "degenerate-sweep", Warning);
    /// a scenario file in a fleet directory is not listed in the manifest
    MANIFEST_EXTRA_FILE = ("W004", "manifest-extra-file", Warning);
    /// no transition semiflow exists: no firing mix returns the net to a marking, so no steady cycle
    NO_T_SEMIFLOW = ("W005", "no-t-semiflow", Warning);
    /// a scenario exceeded the --scenario-timeout wall-clock watchdog and was marked failed
    SCENARIO_TIMEOUT = ("W006", "scenario-timeout", Warning);
    /// structural classification of the net (state machine / marked graph / free choice)
    STRUCTURAL_CLASS = ("I001", "structural-class", Info);
    /// places not covered by any P-semiflow: token count there is not conserved
    SEMIFLOW_COVERAGE = ("I002", "semiflow-coverage", Info);
    /// state-space exploration hit its budget; reachability verdicts cover the explored prefix only
    REACHABILITY_CAPPED = ("I003", "reachability-capped", Info);
    /// a non-Poisson workload drives backends that assume Poisson arrivals
    WORKLOAD_APPROXIMATION = ("I004", "workload-approximation", Info);
}

/// Look a lint up by code (`E005`) or name (`unstable-queue`),
/// case-insensitively.
pub fn find(code_or_name: &str) -> Option<&'static Lint> {
    ALL.iter()
        .copied()
        .find(|l| l.code.eq_ignore_ascii_case(code_or_name) || l.name == code_or_name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(
            [Severity::Warning, Severity::Info].iter().max(),
            Some(&Severity::Warning)
        );
    }

    #[test]
    fn location_renders_set_parts_only() {
        let loc = Location::scenario("s").with_node("n1").with_field("lambda");
        assert_eq!(loc.to_string(), "scenario `s`: node `n1`: lambda");
        assert!(Location::default().is_empty());
        assert!(!loc.is_empty());
    }

    #[test]
    fn diagnostic_renders_help_indented() {
        let d = Diagnostic {
            code: "E005",
            name: "unstable-queue",
            severity: Severity::Error,
            location: Location::scenario("s"),
            message: "rho = 1.2".into(),
            help: Some("lower lambda".into()),
        }
        .with_help("lower lambda");
        let text = d.render();
        assert!(text.starts_with("error[E005] scenario `s`: rho = 1.2"));
        assert!(text.contains("\n  help: lower lambda"));
    }
}
