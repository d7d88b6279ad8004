//! The diagnostic data model — what a check found, where, and how bad it
//! is — and the lint registry: every finding `wsnem check` can emit, with a
//! stable code, a kebab-case name, a default severity and an example
//! trigger. The scenario rules ([`crate::Scenario::diagnose`]) emit their
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
    /// One-line description of what the lint catches.
    pub summary: &'static str,
    /// An example input that triggers it.
    pub trigger: &'static str,
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
    ($($ident:ident = ($code:literal, $name:literal, $sev:ident, $summary:literal, $trigger:literal);)*) => {
        $(
            #[doc = $summary]
            // Summaries are user-facing strings first: bracketed math like
            // `E[S]` must not be parsed as an intra-doc link.
            #[allow(rustdoc::broken_intra_doc_links)]
            pub static $ident: Lint = Lint {
                code: $code,
                name: $name,
                severity: Severity::$sev,
                summary: $summary,
                trigger: $trigger,
            };
        )*
        /// Every registered lint, in code order.
        pub static ALL: &[&Lint] = &[$(&$ident),*];
    };
}

lints! {
    PARSE_ERROR = (
        "E001", "parse-error", Error,
        "the file cannot be read, parsed, or built into a net",
        "a TOML scenario with unbalanced brackets, or a .net.json arc naming a missing place"
    );
    SCHEMA_VERSION = (
        "E002", "schema-version", Error,
        "the file's schema_version is outside the supported range",
        "schema_version = 99 in a scenario written against a future wsnem"
    );
    UNKNOWN_BACKEND = (
        "E003", "unknown-backend", Error,
        "a requested backend is not in the solver registry",
        "backends = [\"markov\"] in a build whose registry dropped the Markov solver"
    );
    INVALID_FIELD = (
        "E004", "invalid-field", Error,
        "a field fails schema validation (out of range, inconsistent, or missing)",
        "cpu.mu = -1, or warmup >= horizon"
    );
    UNSTABLE_QUEUE = (
        "E005", "unstable-queue", Error,
        "offered load rho = lambda_eff * E[S] >= 1, or lambda_eff / mu >= 1: the job queue grows without bound",
        "lambda = 12 against mu = 10, or a relay or template root whose forwarded traffic pushes it past mu"
    );
    CAPABILITY_MISMATCH = (
        "E006", "capability-mismatch", Error,
        "a backend is asked for something its capabilities rule out",
        "service.type = \"deterministic\" with the analytic markov backend"
    );
    NET_DEADLOCK = (
        "E007", "net-deadlock", Error,
        "the Petri net can reach a marking that enables no transition",
        "a .net.json whose inhibitor arc freezes the only live transition"
    );
    DEAD_TRANSITION = (
        "E008", "dead-transition", Error,
        "a transition can never fire (structurally starved or unreached in the full state space)",
        "a transition whose input place has no producer and no initial token"
    );
    MANIFEST_MISMATCH = (
        "E009", "manifest-mismatch", Error,
        "a fleet directory disagrees with its manifest.json (missing file, drifted content)",
        "deleting fleet-03.toml from a generated fleet, or hand-editing its lambda"
    );
    HIGH_RHO = (
        "W001", "high-rho", Warning,
        "offered load rho >= 0.95: stable on paper, but near-saturated queues mix slowly",
        "lambda = 9.6 against mu = 10"
    );
    RADIO_SATURATION = (
        "W002", "radio-saturation", Warning,
        "packet airtime alone fills (or overfills) a node's radio schedule",
        "tx_pps * tx_airtime_s + rx_pps * rx_airtime_s >= 1 on a relay under a slow MAC"
    );
    DEGENERATE_SWEEP = (
        "W003", "degenerate-sweep", Warning,
        "a sweep axis repeats a value: duplicate rows cost simulation time and add nothing",
        "sweep.values = [0.5, 0.5, 1.0]"
    );
    MANIFEST_EXTRA_FILE = (
        "W004", "manifest-extra-file", Warning,
        "a scenario file in a fleet directory is not listed in the manifest",
        "copying an extra .toml into a generated fleet directory"
    );
    NO_T_SEMIFLOW = (
        "W005", "no-t-semiflow", Warning,
        "no transition semiflow exists: no firing mix returns the net to a marking, so no steady cycle",
        "a net that only drains its initial tokens"
    );
    SCENARIO_TIMEOUT = (
        "W006", "scenario-timeout", Warning,
        "a scenario exceeded the --scenario-timeout wall-clock watchdog and was marked failed",
        "a DES point with horizon = 5e7 under --scenario-timeout 10"
    );
    STRUCTURAL_CLASS = (
        "I001", "structural-class", Info,
        "structural classification of the net (state machine / marked graph / free choice)",
        "any net with conflict or synchronization"
    );
    SEMIFLOW_COVERAGE = (
        "I002", "semiflow-coverage", Info,
        "places not covered by any P-semiflow: token count there is not conserved",
        "the EDSPN job buffer, unbounded under open arrivals"
    );
    REACHABILITY_CAPPED = (
        "I003", "reachability-capped", Info,
        "state-space exploration hit its budget; reachability verdicts cover the explored prefix only",
        "any net with an unbounded place, such as the EDSPN under open arrivals"
    );
    WORKLOAD_APPROXIMATION = (
        "I004", "workload-approximation", Info,
        "a non-Poisson workload drives backends that assume Poisson arrivals",
        "a bursty on-off workload evaluated by the analytic markov backend"
    );
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
