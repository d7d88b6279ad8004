//! `gen`: write a sampled scenario fleet, or check one against its
//! manifest.

use std::path::Path;

use wsnem_scenario::{builtin, files, gen, FieldSpec, FileFormat, GenField, GenMethod, GenSpec};

use crate::args::{self, switch, value, Args, Flag};

#[rustfmt::skip]
pub(crate) const FLAGS: &[Flag] = &[
    value(&["--field"], "<SPEC>",          &["Sampled field as name=min:max[:points], repeatable.",
                                             "Fields: lambda, service-mean, radio-check-interval,",
                                             "fanout, node-count ([:points] sizes grid axes only,",
                                             "default 3)"]),
    value(&["--method"], "<M>",            &["Sampling method: grid (default), random, lhs"]),
    value(&["--count"], "<N>",             &["Sample count (random/lhs; a grid's size is the",
                                             "product of its per-field points)"]),
    value(&["--seed"], "<N>",              &["RNG seed for random/lhs (default 42)"]),
    value(&["--base"], "<FILE>",           &["Base scenario file the samples are applied to"]),
    value(&["--builtin"], "<NAME>",        &["Base built-in scenario (default: paper-defaults)"]),
    value(&["--prefix"], "<NAME>",         &["Scenario/file name prefix (default: fleet)"]),
    value(&["--format"], "<FMT>",          &["Generated file format: toml (default), json"]),
    switch(&["--check"],                   &["Verify DIR against its manifest.json instead of",
                                             "generating: missing / renamed / drifted / extra",
                                             "files come back as manifest-mismatch diagnostics"]),
];

/// Read a scenario file format (`gen --format`, `export --format`).
pub(crate) fn file_format(_: &str, v: &str) -> Result<FileFormat, String> {
    match args::format(v, &["toml", "json"])? {
        "json" => Ok(FileFormat::Json),
        _ => Ok(FileFormat::Toml),
    }
}

/// Parse one `--field` value: `name=min:max[:points]`.
pub(crate) fn parse_field_spec(spec: &str) -> Result<FieldSpec, String> {
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

pub(crate) fn cmd_gen(a: &Args) -> Result<(), String> {
    let fields = a
        .values("--field")
        .map(parse_field_spec)
        .collect::<Result<Vec<FieldSpec>, String>>()?;
    let method = a.parsed_or(
        "--method",
        |_, v| {
            GenMethod::parse_name(v)
                .ok_or_else(|| format!("unknown --method `{v}` (expected grid, random or lhs)"))
        },
        GenMethod::Grid,
    )?;
    let count = a.parsed("--count", args::positive)?;
    let seed = a.parsed_or("--seed", args::integer, 42)?;
    let format = a.parsed_or("--format", file_format, FileFormat::Toml)?;
    let dir = a.positional()?.ok_or("gen expects an output directory")?;
    if a.has("--check") {
        // Verification mode: compare the directory against what its
        // manifest.json deterministically regenerates.
        if ["--field", "--count", "--base", "--builtin"]
            .iter()
            .any(|f| a.has(f))
        {
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
    let base = match (a.value("--base"), a.value("--builtin")) {
        (Some(_), Some(_)) => {
            return Err("pass either --base <FILE> or --builtin <NAME>, not both".into())
        }
        (Some(f), None) => files::load(f).map_err(|e| e.to_string())?,
        (None, Some(n)) => builtin::find(n).map_err(|e| e.to_string())?,
        (None, None) => builtin::find("paper-defaults").map_err(|e| e.to_string())?,
    };
    let spec = GenSpec {
        method,
        count: count.unwrap_or(10),
        seed,
        prefix: a.value("--prefix").unwrap_or("fleet").to_owned(),
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
