//! The lint registry and the per-run severity overrides (`-W` / `-D` /
//! `-A`, `--deny warnings`) that rewrite it. The registry itself — every
//! check `wsnem check` can emit, with a stable code, a kebab-case name, a
//! default severity and an example trigger — lives in
//! [`wsnem_scenario::diag`], next to the scenario rules that emit most of
//! its error codes, and is re-exported here.

pub use wsnem_scenario::diag::*;

/// A per-run severity override level, mirroring `rustc`'s `-W`/`-D`/`-A`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Suppress the lint entirely.
    Allow,
    /// Report at warning severity.
    Warn,
    /// Report at error severity (fails the check).
    Deny,
}

/// Per-run lint configuration: individual overrides plus the blanket
/// `--deny warnings` switch.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// `(lint code, level)` pairs, last-one-wins.
    overrides: Vec<(&'static str, Level)>,
    /// Escalate every effective warning to an error. Applied after
    /// individual overrides, so `-W e007 --deny warnings` still fails.
    pub deny_warnings: bool,
}

impl LintConfig {
    /// Record an override for a lint named by code or name. Errors on
    /// unknown lints, listing the registry.
    pub fn set(&mut self, code_or_name: &str, level: Level) -> Result<(), String> {
        let lint = find(code_or_name).ok_or_else(|| {
            let known: Vec<String> = ALL
                .iter()
                .map(|l| format!("{} ({})", l.code, l.name))
                .collect();
            format!(
                "unknown lint `{code_or_name}` (known: {})",
                known.join(", ")
            )
        })?;
        self.overrides.push((lint.code, level));
        Ok(())
    }

    /// The severity a diagnostic reports at under this configuration, or
    /// `None` when it is allowed away.
    pub fn effective(&self, d: &Diagnostic) -> Option<Severity> {
        let mut severity = d.severity;
        // Last explicit override wins.
        if let Some((_, level)) = self
            .overrides
            .iter()
            .rev()
            .find(|(code, _)| *code == d.code)
        {
            severity = match level {
                Level::Allow => return None,
                Level::Warn => Severity::Warning,
                Level::Deny => Severity::Error,
            };
        }
        if self.deny_warnings && severity == Severity::Warning {
            severity = Severity::Error;
        }
        Some(severity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_codes_are_unique_and_sorted() {
        let codes: Vec<&str> = ALL.iter().map(|l| l.code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes.len(), sorted.len(), "duplicate lint code");
        // E* default to Error, W* to Warning, I* to Info — the code prefix
        // is a promise about the default.
        for l in ALL {
            let expect = match l.code.as_bytes()[0] {
                b'E' => Severity::Error,
                b'W' => Severity::Warning,
                b'I' => Severity::Info,
                other => panic!("unexpected code prefix {other}"),
            };
            assert_eq!(l.severity, expect, "{}", l.code);
        }
    }

    #[test]
    fn find_accepts_code_and_name_case_insensitively() {
        assert_eq!(find("E005").map(|l| l.name), Some("unstable-queue"));
        assert_eq!(find("e005").map(|l| l.name), Some("unstable-queue"));
        assert_eq!(find("unstable-queue").map(|l| l.code), Some("E005"));
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn overrides_rewrite_severity() {
        let d = UNSTABLE_QUEUE.at(Location::default(), "m");
        let mut cfg = LintConfig::default();
        assert_eq!(cfg.effective(&d), Some(Severity::Error));
        cfg.set("unstable-queue", Level::Warn).unwrap();
        assert_eq!(cfg.effective(&d), Some(Severity::Warning));
        cfg.set("E005", Level::Allow).unwrap();
        assert_eq!(cfg.effective(&d), None, "last override wins");
        assert!(cfg.set("no-such-lint", Level::Deny).is_err());
    }

    #[test]
    fn deny_warnings_escalates_after_overrides() {
        let warn = HIGH_RHO.at(Location::default(), "m");
        let cfg = LintConfig {
            deny_warnings: true,
            ..LintConfig::default()
        };
        assert_eq!(cfg.effective(&warn), Some(Severity::Error));
        // Info stays info; allowed lints stay gone.
        let info = SEMIFLOW_COVERAGE.at(Location::default(), "m");
        assert_eq!(cfg.effective(&info), Some(Severity::Info));
        let mut cfg = cfg;
        cfg.set("high-rho", Level::Allow).unwrap();
        assert_eq!(cfg.effective(&warn), None);
        // A demoted error becomes a warning, then --deny warnings pulls it
        // back up: demotion under the blanket deny is a no-op by design.
        cfg.set("net-deadlock", Level::Warn).unwrap();
        let err = NET_DEADLOCK.at(Location::default(), "m");
        assert_eq!(cfg.effective(&err), Some(Severity::Error));
    }
}
