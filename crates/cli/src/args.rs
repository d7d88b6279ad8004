//! The one argument parser behind every subcommand. A command declares its
//! flags as static tables of [`Flag`] rows; [`parse`] reads a command line
//! against them and [`usage`] renders the help from the same rows, so a
//! flag is accepted exactly when it is documented.

use std::str::FromStr;

type Lines = &'static [&'static str];
/// Reads one flag value: `(flag name, value) -> value or message`.
type Read<T> = fn(&str, &str) -> Result<T, String>;

/// One flag: its spellings, the value it takes and its help lines.
pub(crate) struct Flag {
    /// Every spelling; the first names the flag in getters and messages.
    pub(crate) names: Lines,
    /// Placeholder of the value the flag takes; `None` makes it a switch.
    metavar: Option<&'static str>,
    help: Lines,
}

/// A flag that takes no value.
pub(crate) const fn switch(names: Lines, help: Lines) -> Flag {
    Flag {
        names,
        metavar: None,
        help,
    }
}

/// A flag that takes the next argument as its value.
pub(crate) const fn value(names: Lines, metavar: &'static str, help: Lines) -> Flag {
    Flag {
        names,
        metavar: Some(metavar),
        help,
    }
}

/// One subcommand: how the help shows it, the flag tables it parses and
/// the function that runs it.
pub(crate) struct Command {
    /// Starts with the command's name.
    pub(crate) synopsis: &'static str,
    pub(crate) help: Lines,
    /// The tables the command parses; see [`parse`] for `None`.
    pub(crate) flags: Option<&'static [&'static [Flag]]>,
    pub(crate) run: fn(&Args) -> Result<(), String>,
}

/// A parsed command line: the flags given, in order, each under its first
/// name with its value (empty for a switch), and the positional arguments.
#[derive(Default)]
pub(crate) struct Args {
    given: Vec<(&'static str, String)>,
    pub(crate) positionals: Vec<String>,
}

/// Read `args` against `tables`. An argument that starts with `-` and
/// names no flag is an unknown option, and a valued flag takes the next
/// argument whatever it is. Without tables every argument is positional.
pub(crate) fn parse(args: &[String], tables: Option<&[&[Flag]]>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flags = tables.into_iter().flatten().flat_map(|t| t.iter());
        let Some(flag) = flags.find(|f| f.names.contains(&arg.as_str())) else {
            if tables.is_some() && arg.starts_with('-') {
                return Err(format!("unknown option `{arg}`"));
            }
            parsed.positionals.push(arg.clone());
            continue;
        };
        let value = match flag.metavar {
            None => String::new(),
            Some(metavar) => it
                .next()
                .cloned()
                .ok_or_else(|| format!("missing value for {} {metavar}", flag.names[0]))?,
        };
        parsed.given.push((flag.names[0], value));
    }
    Ok(parsed)
}

impl Args {
    /// Whether the flag named `name` was given.
    pub(crate) fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The values of the flags named in `names`, in order, each with its
    /// flag's name.
    pub(crate) fn each(&self, names: &[&str]) -> Vec<(&str, &str)> {
        let given = self.given.iter().filter(|(n, _)| names.contains(n));
        given.map(|(n, v)| (*n, v.as_str())).collect()
    }

    /// Every value of `name`, in order.
    pub(crate) fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        let given = self.given.iter().filter(move |(n, _)| *n == name);
        given.map(|(_, v)| v.as_str())
    }

    /// The last value of `name`: a repeated flag's last value wins.
    pub(crate) fn value(&self, name: &str) -> Option<&str> {
        let last = self.given.iter().rev().find(|(n, _)| *n == name);
        last.map(|(_, v)| v.as_str())
    }

    /// The last value of `name` read by `read`, which sees every value
    /// given, so a bad early value fails even when a later one would win.
    pub(crate) fn parsed<T>(&self, name: &str, read: Read<T>) -> Result<Option<T>, String> {
        self.values(name)
            .try_fold(None, |_, v| read(name, v).map(Some))
    }

    /// [`Args::parsed`], or `default` when the flag is not given.
    pub(crate) fn parsed_or<T>(&self, name: &str, read: Read<T>, default: T) -> Result<T, String> {
        Ok(self.parsed(name, read)?.unwrap_or(default))
    }

    /// The one positional argument the command takes, if given.
    pub(crate) fn positional(&self) -> Result<Option<String>, String> {
        match self.positionals.as_slice() {
            [] => Ok(None),
            [one] => Ok(Some(one.clone())),
            [_, extra, ..] => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

/// A count of zero or more.
pub(crate) fn count<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got `{v}`"))
}

/// A count of one or more.
pub(crate) fn positive(flag: &str, v: &str) -> Result<usize, String> {
    let n = v.parse().ok().filter(|&n: &usize| n >= 1);
    n.ok_or_else(|| format!("{flag} expects a positive integer, got `{v}`"))
}

/// A positive, finite number of seconds.
pub(crate) fn seconds(flag: &str, v: &str) -> Result<f64, String> {
    let s = v.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0);
    s.ok_or_else(|| format!("{flag} expects a positive number of seconds, got `{v}`"))
}

/// Any unsigned 64-bit integer.
pub(crate) fn integer(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects an integer, got `{v}`"))
}

/// A thread count: at least one.
pub(crate) fn threads(flag: &str, v: &str) -> Result<usize, String> {
    match v.parse() {
        Err(_) => Err(format!("{flag} expects a positive integer, got `{v}`")),
        Ok(0) => Err(format!("{flag} must be >= 1")),
        Ok(n) => Ok(n),
    }
}

/// `v` when it is one of the output formats a command writes.
pub(crate) fn format<'a>(v: &'a str, formats: &[&str]) -> Result<&'a str, String> {
    match formats.split_last() {
        Some((last, rest)) if !formats.contains(&v) => Err(format!(
            "unknown format `{v}` (expected {} or {last})",
            rest.join(", ")
        )),
        _ => Ok(v),
    }
}

/// The help text: every command in order, then each options section under
/// its heading.
pub(crate) fn usage(commands: &[Command], sections: &[(&str, &[&[Flag]])]) -> String {
    let mut text = String::from("wsnem — energy-model scenario runner\n\n");
    text.push_str("USAGE:\n    wsnem <COMMAND> [OPTIONS]\n\nCOMMANDS:\n");
    for c in commands {
        row(&mut text, c.synopsis, 27, c.help);
    }
    for (heading, tables) in sections {
        text.push_str(&format!("\n{heading}:\n"));
        for f in tables.iter().flat_map(|t| t.iter()) {
            let label = f.names.join(", ");
            let label = f.metavar.map_or(label.clone(), |m| format!("{label} {m}"));
            row(&mut text, &label, 22, f.help);
        }
    }
    text
}

/// One help row: `label` in a `width`-column field indented four spaces,
/// then the help lines; a label too wide to leave a space before the help
/// gets a line of its own.
fn row(text: &mut String, label: &str, width: usize, help: &[&str]) {
    text.push_str(&format!("    {label}"));
    let mut pad = width.saturating_sub(label.len());
    if pad == 0 {
        text.push('\n');
        pad = 4 + width;
    }
    for line in help {
        text.push_str(&format!("{:pad$}{line}\n", ""));
        pad = 4 + width;
    }
}
