//! The `wsnem` command-line surface, pinned: the help text byte for byte,
//! and the exit code and stderr of every flag error each subcommand can
//! raise before it does any work.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use std::process::{Command, Output};

fn wsnem(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wsnem"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn wsnem")
}

/// `tests/golden/help.txt`, recorded from the binary (`wsnem help >
/// crates/cli/tests/golden/help.txt`), never written by hand.
fn golden_help() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/help.txt");
    std::fs::read_to_string(path).expect("golden present")
}

#[test]
fn help_matches_golden_on_every_path() {
    let help = golden_help();
    for spelling in ["help", "--help", "-h"] {
        let out = wsnem(&[spelling]);
        assert!(out.status.success(), "wsnem {spelling}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            help,
            "wsnem {spelling}"
        );
        assert!(out.stderr.is_empty(), "wsnem {spelling}");
    }
    let bare = wsnem(&[]);
    assert_eq!(bare.status.code(), Some(1));
    assert!(bare.stdout.is_empty());
    assert_eq!(String::from_utf8_lossy(&bare.stderr), help);
    let bogus = wsnem(&["bogus"]);
    assert_eq!(bogus.status.code(), Some(1));
    assert!(bogus.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&bogus.stderr),
        format!("error: unknown command `bogus`\n\n{help}\n")
    );
}

/// `(command line, exit code, stderr without its newline)`: for every
/// subcommand, an unknown option, a missing value for each valued flag, a
/// bad value for each typed flag and a surplus positional where the command
/// takes one. `list` and `help` read no arguments and ignore any given.
#[rustfmt::skip]
const FLAG_ERRORS: &[(&str, i32, &str)] = &[
    ("list --bogus", 0, ""),
    ("help --bogus", 0, ""),
    ("run --bogus", 1, "error: unknown option `--bogus`"),
    ("run --builtin", 1, "error: missing value for --builtin <NAME>"),
    ("run --all-files", 1, "error: missing value for --all-files <DIR>"),
    ("run --format", 1, "error: missing value for --format <FMT>"),
    ("run --out", 1, "error: missing value for --out <FILE>"),
    ("run -o", 1, "error: missing value for --out <FILE>"),
    ("run --threads", 1, "error: missing value for --threads <N>"),
    ("run --limit", 1, "error: missing value for --limit <N>"),
    ("run --scenario-timeout", 1, "error: missing value for --scenario-timeout <SECS>"),
    ("run --distributed", 1, "error: missing value for --distributed <ADDR>"),
    ("run --addr", 1, "error: unknown option `--addr`"),
    ("run --builtin paper-defaults --quick --addr 10.0.0.1:5", 1, "error: unknown option `--addr`"),
    ("run --grace", 1, "error: missing value for --grace <SECS>"),
    ("run --lease-timeout", 1, "error: missing value for --lease-timeout <SECS>"),
    ("run --liveness-timeout", 1, "error: missing value for --liveness-timeout <SECS>"),
    ("run --format xml", 1, "error: unknown format `xml` (expected summary, json or csv)"),
    ("run --threads x", 1, "error: --threads expects a positive integer, got `x`"),
    ("run --threads 0", 1, "error: --threads must be >= 1"),
    ("run --limit -1", 1, "error: --limit expects a non-negative integer, got `-1`"),
    ("run --scenario-timeout 0", 1, "error: --scenario-timeout expects a positive number of seconds, got `0`"),
    ("run --grace x", 1, "error: --grace expects a positive number of seconds, got `x`"),
    ("run --lease-timeout -2", 1, "error: --lease-timeout expects a positive number of seconds, got `-2`"),
    ("run --liveness-timeout inf", 1, "error: --liveness-timeout expects a positive number of seconds, got `inf`"),
    ("run --no-cache --refresh", 1, "error: --no-cache and --refresh are mutually exclusive"),
    ("run --builtin paper-defaults --quick --grace 3", 1, "error: --grace configures the coordinator of a distributed run: add --distributed <ADDR>, or use `wsnem serve`"),
    ("run --builtin paper-defaults --lease-timeout 4", 1, "error: --lease-timeout configures the coordinator of a distributed run: add --distributed <ADDR>, or use `wsnem serve`"),
    ("run --all --liveness-timeout 5", 1, "error: --liveness-timeout configures the coordinator of a distributed run: add --distributed <ADDR>, or use `wsnem serve`"),
    ("serve --bogus", 1, "error: unknown option `--bogus`"),
    ("serve --addr", 1, "error: missing value for --addr <ADDR>"),
    ("serve --grace", 1, "error: missing value for --grace <SECS>"),
    ("serve --grace 0", 1, "error: --grace expects a positive number of seconds, got `0`"),
    ("serve --distributed 127.0.0.1:0", 1, "error: serve listens on --addr; --distributed belongs to `wsnem run`"),
    ("profile --bogus", 1, "error: unknown option `--bogus`"),
    ("profile --builtin", 1, "error: missing value for --builtin <NAME>"),
    ("profile --threads", 1, "error: missing value for --threads <N>"),
    ("profile --threads 0", 1, "error: --threads must be >= 1"),
    ("profile --scenario-timeout 0", 1, "error: --scenario-timeout expects a positive number of seconds, got `0`"),
    ("profile --format json", 1, "error: unknown option `--format`"),
    ("profile --out p.txt", 1, "error: unknown option `--out`"),
    ("profile --distributed 127.0.0.1:0", 1, "error: unknown option `--distributed`"),
    ("profile --grace 1", 1, "error: unknown option `--grace`"),
    ("profile --limit 3 --addr 1.2.3.4:1", 1, "error: unknown option `--limit`"),
    ("profile", 1, "error: nothing to profile: pass scenario files or directories, --builtin <name>, --all-files <dir> or --all"),
    ("worker --bogus", 1, "error: unknown option `--bogus`"),
    ("worker --name", 1, "error: missing value for --name <NAME>"),
    ("worker --threads", 1, "error: missing value for --threads <N>"),
    ("worker --cache", 1, "error: missing value for --cache <DIR>"),
    ("worker --fault-plan", 1, "error: missing value for --fault-plan <SPEC>"),
    ("worker --retries", 1, "error: missing value for --retries <N>"),
    ("worker --heartbeat", 1, "error: missing value for --heartbeat <MS>"),
    ("worker --scenario-timeout", 1, "error: missing value for --scenario-timeout <SECS>"),
    ("worker --threads 0", 1, "error: --threads must be >= 1"),
    ("worker --retries -1", 1, "error: --retries expects a non-negative integer, got `-1`"),
    ("worker --heartbeat 0", 1, "error: --heartbeat expects milliseconds >= 1, got `0`"),
    ("worker --scenario-timeout x", 1, "error: --scenario-timeout expects a positive number of seconds, got `x`"),
    ("worker --fault-plan bogus", 1, "error: fault `bogus`: expected `kind=value`"),
    ("worker", 1, "error: worker expects a coordinator address (host:port)"),
    ("worker 127.0.0.1:1 127.0.0.1:2", 1, "error: worker expects exactly one coordinator address"),
    ("gen --bogus", 1, "error: unknown option `--bogus`"),
    ("gen --field", 1, "error: missing value for --field <SPEC>"),
    ("gen --method", 1, "error: missing value for --method <M>"),
    ("gen --count", 1, "error: missing value for --count <N>"),
    ("gen --seed", 1, "error: missing value for --seed <N>"),
    ("gen --base", 1, "error: missing value for --base <FILE>"),
    ("gen --builtin", 1, "error: missing value for --builtin <NAME>"),
    ("gen --prefix", 1, "error: missing value for --prefix <NAME>"),
    ("gen --format", 1, "error: missing value for --format <FMT>"),
    ("gen --field bogus=0:1", 1, "error: unknown --field name `bogus` (expected one of: lambda, service-mean, radio-check-interval, fanout, node-count)"),
    ("gen --field lambda=0:1:x", 1, "error: invalid --field `lambda=0:1:x`: `x` is not a positive point count"),
    ("gen --method sobol", 1, "error: unknown --method `sobol` (expected grid, random or lhs)"),
    ("gen --count 0", 1, "error: --count expects a positive integer, got `0`"),
    ("gen --seed -1", 1, "error: --seed expects an integer, got `-1`"),
    ("gen --format yaml", 1, "error: unknown format `yaml` (expected toml or json)"),
    ("gen", 1, "error: gen expects an output directory"),
    ("gen a b", 1, "error: unexpected argument `b`"),
    ("trace --bogus", 1, "error: unknown option `--bogus`"),
    ("trace --builtin", 1, "error: missing value for --builtin <NAME>"),
    ("trace --backend", 1, "error: missing value for --backend <B>"),
    ("trace --out", 1, "error: missing value for --out <FILE>"),
    ("trace --limit", 1, "error: missing value for --limit <N>"),
    ("trace --sample", 1, "error: missing value for --sample <N>"),
    ("trace --seed", 1, "error: missing value for --seed <N>"),
    ("trace --limit 0", 1, "error: --limit expects a positive integer, got `0`"),
    ("trace --sample x", 1, "error: --sample expects a positive integer, got `x`"),
    ("trace --seed 1.5", 1, "error: --seed expects an integer, got `1.5`"),
    ("trace --builtin paper-defaults --backend bogus", 1, "error: unknown backend `bogus` (expected des or petri)"),
    ("trace", 1, "error: trace expects a scenario file or --builtin <NAME>"),
    ("trace a b", 1, "error: unexpected argument `b`"),
    ("compare --bogus", 1, "error: unknown option `--bogus`"),
    ("compare --builtin", 1, "error: missing value for --builtin <NAME>"),
    ("compare --all-files", 1, "error: missing value for --all-files <DIR>"),
    ("compare --format", 1, "error: missing value for --format <FMT>"),
    ("compare --out", 1, "error: missing value for --out <FILE>"),
    ("compare --threads", 1, "error: missing value for --threads <N>"),
    ("compare --scenario-timeout", 1, "error: missing value for --scenario-timeout <SECS>"),
    ("compare --max-delta-pp", 1, "error: missing value for --max-delta-pp <PP>"),
    ("compare --threads 0", 1, "error: --threads must be >= 1"),
    ("compare --scenario-timeout x", 1, "error: --scenario-timeout expects a positive number of seconds, got `x`"),
    ("compare --max-delta-pp 0", 1, "error: --max-delta-pp expects a positive number, got `0`"),
    ("compare", 1, "error: compare expects a scenario file or --builtin <NAME>"),
    ("compare a b", 1, "error: unexpected argument `b`"),
    ("check --bogus", 1, "error: unknown option `--bogus`"),
    ("check --builtin", 1, "error: missing value for --builtin <NAME>"),
    ("check --format", 1, "error: missing value for --format <FMT>"),
    ("check -W", 1, "error: missing value for -W <LINT>"),
    ("check --warn", 1, "error: missing value for -W <LINT>"),
    ("check -D", 1, "error: missing value for -D <LINT>"),
    ("check -A", 1, "error: missing value for -A <LINT>"),
    ("check --format xml", 1, "error: unknown format `xml` (expected human or json)"),
    ("check -W warnings", 1, "error: `warnings` is a blanket switch: it only combines with -D/--deny"),
    ("check -A warnings", 1, "error: `warnings` is a blanket switch: it only combines with -D/--deny"),
    ("check", 1, "error: nothing to check: pass scenario files, directories, --builtin <name> or --all"),
    ("validate", 1, "error: validate expects at least one scenario file or directory"),
    ("validate --all", 1, "error: unknown option `--all`"),
    ("export --bogus", 1, "error: unknown option `--bogus`"),
    ("export --format", 1, "error: missing value for --format <FMT>"),
    ("export paper-defaults --format yaml", 1, "error: unknown format `yaml` (expected toml or json)"),
    ("export", 1, "error: export expects a built-in scenario name"),
    ("export a b", 1, "error: unexpected argument `b`"),
    ("topology --bogus", 1, "error: unknown option `--bogus`"),
    ("topology --builtin", 1, "error: missing value for --builtin <NAME>"),
    ("topology --limit", 1, "error: missing value for --limit <N>"),
    ("topology --limit x", 1, "error: --limit expects a non-negative integer, got `x`"),
    ("topology", 1, "error: topology expects a scenario file or --builtin <NAME>"),
    ("topology a b", 1, "error: unexpected argument `b`"),
    ("radio --bogus", 1, "error: unknown option `--bogus`"),
    ("radio --builtin", 1, "error: missing value for --builtin <NAME>"),
    ("radio --preset", 1, "error: missing value for --preset <NAME>"),
    ("radio", 1, "error: radio expects a scenario file, --builtin <NAME> or --preset <NAME> (e.g. `wsnem radio --preset cc2420-class`)"),
    ("radio a b", 1, "error: unexpected argument `b`"),
];

#[test]
fn flag_errors_exit_with_their_messages() {
    let mut wrong = Vec::new();
    for &(line, code, message) in FLAG_ERRORS {
        let out = wsnem(&line.split(' ').collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        let expected = if message.is_empty() {
            String::new()
        } else {
            format!("{message}\n")
        };
        if out.status.code() != Some(code) || stderr != expected {
            wrong.push(format!(
                "wsnem {line}: exit {:?}, stderr {stderr:?}",
                out.status.code()
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
