//! Loading and saving scenario files (JSON and TOML).

use std::path::Path;

use crate::error::ScenarioError;
use crate::schema::Scenario;

/// On-disk scenario file format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileFormat {
    /// JSON (`.json`).
    Json,
    /// TOML (`.toml`) — the default for hand-authored files.
    Toml,
}

impl FileFormat {
    /// Infer the format from a path's extension.
    ///
    /// `.json` and `.toml` map to their formats; an extension**less** path
    /// reads as TOML (the historical stdin-ish default). Any *other*
    /// extension is an error naming the supported list — a `fleet.yaml`
    /// used to fall through to the TOML parser and die with a baffling
    /// TOML syntax error instead.
    pub fn from_path(path: &Path) -> Result<Self, ScenarioError> {
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Ok(FileFormat::Json),
            Some("toml") | None => Ok(FileFormat::Toml),
            Some(other) => Err(ScenarioError::Io(format!(
                "{}: unrecognized scenario file extension `.{other}` \
                 (supported: .toml, .json; extensionless files read as TOML)",
                path.display()
            ))),
        }
    }

    /// The canonical file extension for this format.
    pub fn extension(self) -> &'static str {
        match self {
            FileFormat::Json => "json",
            FileFormat::Toml => "toml",
        }
    }
}

/// Parse a scenario from a string *without* validating it — the static
/// analyzer's entry point: a syntactically valid but semantically broken
/// scenario must still parse so every validation failure can be reported as
/// a coded diagnostic instead of one hard error.
///
/// A backend named twice in `backends`, under any spelling that
/// [`BackendId::parse`](crate::BackendId::parse) accepts, is kept once at
/// its first position, so it is never solved and reported twice.
pub fn parse_str(content: &str, format: FileFormat) -> Result<Scenario, ScenarioError> {
    let parsed = match format {
        FileFormat::Json => serde_json::from_str(content).map_err(|e| e.to_string()),
        FileFormat::Toml => toml::from_str(content).map_err(|e| e.to_string()),
    };
    let mut scenario: Scenario = parsed.map_err(ScenarioError::Parse)?;
    let mut seen = Vec::with_capacity(scenario.backends.len());
    scenario.backends.retain(|&b| {
        let first = !seen.contains(&b);
        seen.push(b);
        first
    });
    Ok(scenario)
}

/// Parse a scenario from a string in the given format and validate it.
pub fn from_str(content: &str, format: FileFormat) -> Result<Scenario, ScenarioError> {
    let scenario = parse_str(content, format)?;
    scenario.validate()?;
    Ok(scenario)
}

/// Read and parse a scenario file *without* validating it (format inferred
/// from the extension). See [`parse_str`].
pub fn parse(path: impl AsRef<Path>) -> Result<Scenario, ScenarioError> {
    let path = path.as_ref();
    let format = FileFormat::from_path(path)?;
    let content = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.display())))?;
    parse_str(&content, format).map_err(|e| match e {
        ScenarioError::Parse(msg) => ScenarioError::Parse(format!("{}: {msg}", path.display())),
        other => other,
    })
}

/// Load and validate a scenario file, inferring the format from the
/// extension.
pub fn load(path: impl AsRef<Path>) -> Result<Scenario, ScenarioError> {
    let path = path.as_ref();
    let scenario = parse(path)?;
    scenario.validate()?;
    Ok(scenario)
}

/// Render a scenario in the given format.
pub fn to_string(scenario: &Scenario, format: FileFormat) -> Result<String, ScenarioError> {
    match format {
        FileFormat::Json => {
            serde_json::to_string_pretty(scenario).map_err(|e| ScenarioError::Parse(e.to_string()))
        }
        FileFormat::Toml => {
            toml::to_string(scenario).map_err(|e| ScenarioError::Parse(e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;

    #[test]
    fn format_inference() {
        let infer = |p: &str| FileFormat::from_path(Path::new(p));
        assert_eq!(infer("a.json").unwrap(), FileFormat::Json);
        assert_eq!(infer("a.toml").unwrap(), FileFormat::Toml);
        // Extensionless stays TOML (stdin-ish uses), but any *other*
        // extension is rejected up front with the supported list instead of
        // falling through to a baffling TOML parse error.
        assert_eq!(infer("a").unwrap(), FileFormat::Toml);
        for bad in ["fleet.yaml", "s.yml", "s.csv", "s.TOML"] {
            let err = infer(bad).unwrap_err().to_string();
            assert!(
                err.contains("unrecognized scenario file extension"),
                "{err}"
            );
            assert!(err.contains(".toml") && err.contains(".json"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
        assert_eq!(FileFormat::Json.extension(), "json");
        assert_eq!(FileFormat::Toml.extension(), "toml");
    }

    #[test]
    fn load_rejects_unrecognized_extension_before_reading() {
        // The path need not even exist: the extension gate fires first.
        let err = load("/nonexistent/fleet.yaml").unwrap_err().to_string();
        assert!(
            err.contains("unrecognized scenario file extension"),
            "{err}"
        );
    }

    #[test]
    fn every_builtin_round_trips_through_both_formats() {
        for s in builtin::all() {
            for format in [FileFormat::Json, FileFormat::Toml] {
                let text = to_string(&s, format).unwrap();
                let back = from_str(&text, format)
                    .unwrap_or_else(|e| panic!("{} ({format:?}): {e}\n{text}", s.name));
                assert_eq!(back, s, "{} via {format:?}", s.name);
            }
        }
    }

    #[test]
    fn load_reads_files_and_reports_path_in_errors() {
        let dir = std::env::temp_dir().join("wsnem-scenario-files-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.toml");
        let s = builtin::paper_defaults();
        std::fs::write(&path, to_string(&s, FileFormat::Toml).unwrap()).unwrap();
        assert_eq!(load(&path).unwrap(), s);

        let bad = dir.join("bad.toml");
        std::fs::write(&bad, "this is not toml = = =").unwrap();
        let err = load(&bad).unwrap_err().to_string();
        assert!(err.contains("bad.toml"), "{err}");

        assert!(matches!(
            load(dir.join("missing.toml")),
            Err(ScenarioError::Io(_))
        ));
    }

    #[test]
    fn repeated_backends_are_solved_once() {
        use crate::BackendId;
        let mut s = builtin::paper_defaults();
        s.backends = vec![BackendId::Mg1, BackendId::Markov, BackendId::PetriNet];
        for format in [FileFormat::Json, FileFormat::Toml] {
            let text = to_string(&s, format).unwrap();
            // The canonical name twice, and the retired alias onto it.
            for repeat in ["\"Mg1\"", "\"ErlangPhase\""] {
                let dup = text.replace("\"PetriNet\"", repeat);
                assert_ne!(dup, text, "{format:?}");
                let loaded = from_str(&dup, format).unwrap();
                assert_eq!(
                    loaded.backends,
                    vec![BackendId::Mg1, BackendId::Markov],
                    "{format:?} {repeat}"
                );
            }
        }
    }

    #[test]
    fn invalid_scenarios_rejected_at_load() {
        // Parses fine but fails validation (no backends).
        let mut s = builtin::paper_defaults();
        s.backends.clear();
        let text = to_string(&s, FileFormat::Json).unwrap();
        assert!(matches!(
            from_str(&text, FileFormat::Json),
            Err(ScenarioError::Invalid(_))
        ));
    }
}
