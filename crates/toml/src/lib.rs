//! TOML rendering and parsing over the in-workspace serde subset.
//!
//! Source-compatible with the `toml` crate calls this workspace makes:
//! [`to_string`], [`to_string_pretty`], [`from_str`].
//!
//! Supported TOML subset (everything the scenario file format uses, plus
//! headroom for hand-authored files):
//!
//! * `[table]` and `[[array-of-tables]]` headers with dotted paths,
//! * `key = value` with bare or quoted keys, including dotted keys,
//! * basic and literal strings, integers (with `_` separators), floats
//!   (including `inf` / `-inf` / `nan`), booleans,
//! * arrays (multi-line allowed) and inline tables,
//! * `#` comments.
//!
//! Dates/times and multi-line strings are not supported. `None` fields are
//! skipped on write (TOML has no null), which matches upstream `toml`.
//!
//! The parser is linear in the input, and tables and arrays may nest at
//! most [`MAX_DEPTH`] levels, so hostile input is answered with an
//! [`Error`] rather than a stack overflow.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Deepest nesting [`parse`] accepts, counting every table (from a header
/// segment, a dotted-key prefix or an inline table) and every array around
/// a value; a deeper document is a parse error.
pub const MAX_DEPTH: usize = 128;

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Serialize a value to a TOML document.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let v = value.to_value();
    let Value::Map(entries) = v else {
        return Err(Error::new(
            "TOML documents must serialize from a map/struct",
        ));
    };
    let mut out = String::new();
    write_table(&mut out, &[], &entries);
    Ok(out)
}

/// Alias of [`to_string`] (the output is already block-formatted).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    to_string(value)
}

/// Parse a TOML document into a typed value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse(s)?;
    T::from_value(&v).map_err(Error::from)
}

/// Parse a TOML document into a [`Value`] tree.
///
/// Nesting deeper than [`MAX_DEPTH`] is an error.
pub fn parse(s: &str) -> Result<Value, Error> {
    Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    }
    .document()
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn is_table(v: &Value) -> bool {
    matches!(v, Value::Map(_))
}

fn is_table_array(v: &Value) -> bool {
    match v {
        Value::Seq(items) => !items.is_empty() && items.iter().all(is_table),
        _ => false,
    }
}

fn write_table(out: &mut String, path: &[String], entries: &[(String, Value)]) {
    // Inline entries first, then sub-tables, then arrays of tables — the
    // order TOML requires for unambiguous section ownership.
    for (k, v) in entries {
        if matches!(v, Value::Null) || is_table(v) || is_table_array(v) {
            continue;
        }
        write_key(out, k);
        out.push_str(" = ");
        write_inline(out, v);
        out.push('\n');
    }
    for (k, v) in entries {
        let Value::Map(sub) = v else { continue };
        let sub_path: Vec<String> = path.iter().cloned().chain([k.clone()]).collect();
        if !out.is_empty() {
            out.push('\n');
        }
        out.push('[');
        write_path(out, &sub_path);
        out.push_str("]\n");
        write_table(out, &sub_path, sub);
    }
    for (k, v) in entries {
        if !is_table_array(v) {
            continue;
        }
        let Value::Seq(items) = v else { unreachable!() };
        let sub_path: Vec<String> = path.iter().cloned().chain([k.clone()]).collect();
        for item in items {
            let Value::Map(sub) = item else {
                unreachable!()
            };
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str("[[");
            write_path(out, &sub_path);
            out.push_str("]]\n");
            write_table(out, &sub_path, sub);
        }
    }
}

fn write_path(out: &mut String, path: &[String]) {
    for (i, seg) in path.iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        write_key(out, seg);
    }
}

fn bare_key_ok(k: &str) -> bool {
    !k.is_empty()
        && k.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn write_key(out: &mut String, k: &str) {
    if bare_key_ok(k) {
        out.push_str(k);
    } else {
        write_basic_string(out, k);
    }
}

fn write_inline(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("{}"), // unreachable from write_table; defensive
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_basic_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_inline(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            let mut first = true;
            for (k, v) in entries {
                if matches!(v, Value::Null) {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                write_key(out, k);
                out.push_str(" = ");
                write_inline(out, v);
            }
            out.push('}');
        }
    }
}

fn write_float(out: &mut String, f: f64) {
    if f.is_nan() {
        out.push_str("nan");
    } else if f.is_infinite() {
        out.push_str(if f > 0.0 { "inf" } else { "-inf" });
    } else {
        let s = f.to_string();
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

fn write_basic_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Tables and arrays open around `pos`; the root table is level 0.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        Error::new(format!("TOML parse error at line {line}: {msg}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn too_deep(&self) -> Error {
        self.err(&format!(
            "tables and arrays nest deeper than {MAX_DEPTH} levels"
        ))
    }

    /// Parse with `levels` more tables or arrays open, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        levels: usize,
        parse: fn(&mut Self) -> Result<Value, Error>,
    ) -> Result<Value, Error> {
        if self.depth + levels > MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += levels;
        let out = parse(self);
        self.depth -= levels;
        out
    }

    /// Skip spaces/tabs and comments on the current line.
    fn skip_inline_ws(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t') => self.pos += 1,
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    /// Skip all whitespace including newlines and comments.
    fn skip_all_ws(&mut self) {
        loop {
            self.skip_inline_ws();
            if matches!(self.peek(), Some(b'\n' | b'\r')) {
                self.pos += 1;
            } else {
                return;
            }
        }
    }

    fn expect_eol(&mut self) -> Result<(), Error> {
        self.skip_inline_ws();
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.pos += 1;
                Ok(())
            }
            Some(b'\r') if self.bytes.get(self.pos + 1) == Some(&b'\n') => {
                self.pos += 2;
                Ok(())
            }
            Some(c) => Err(self.err(&format!("expected end of line, found `{}`", c as char))),
        }
    }

    fn document(&mut self) -> Result<Value, Error> {
        let mut root: Vec<(String, Value)> = Vec::new();
        // Path of the table currently being filled; empty = root.
        let mut current: Vec<String> = Vec::new();
        loop {
            self.skip_all_ws();
            match self.peek() {
                None => return Ok(Value::Map(root)),
                Some(b'[') => {
                    self.pos += 1;
                    let array_of_tables = self.peek() == Some(b'[');
                    if array_of_tables {
                        self.pos += 1;
                    }
                    self.skip_inline_ws();
                    let path = self.dotted_key()?;
                    // Each header segment is a table.
                    if path.len() > MAX_DEPTH {
                        return Err(self.too_deep());
                    }
                    self.skip_inline_ws();
                    if self.peek() != Some(b']') {
                        return Err(self.err("expected `]`"));
                    }
                    self.pos += 1;
                    if array_of_tables {
                        if self.peek() != Some(b']') {
                            return Err(self.err("expected `]]`"));
                        }
                        self.pos += 1;
                    }
                    self.expect_eol()?;
                    if array_of_tables {
                        push_table_array_element(&mut root, &path).map_err(|m| self.err(&m))?;
                    } else {
                        ensure_table(&mut root, &path).map_err(|m| self.err(&m))?;
                    }
                    current = path;
                }
                Some(_) => {
                    let key_path = self.dotted_key()?;
                    self.skip_inline_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected `=` after key"));
                    }
                    self.pos += 1;
                    self.skip_inline_ws();
                    // The current table's segments and the key's dotted
                    // prefix are tables around the value.
                    let value = self.nested(current.len() + key_path.len() - 1, Self::value)?;
                    self.expect_eol()?;
                    let mut full: Vec<String> = current.clone();
                    full.extend(key_path);
                    insert_value(&mut root, &full, value).map_err(|m| self.err(&m))?;
                }
            }
        }
    }

    fn dotted_key(&mut self) -> Result<Vec<String>, Error> {
        let mut path = vec![self.key_segment()?];
        loop {
            self.skip_inline_ws();
            if self.peek() == Some(b'.') {
                self.pos += 1;
                self.skip_inline_ws();
                path.push(self.key_segment()?);
            } else {
                return Ok(path);
            }
        }
    }

    fn key_segment(&mut self) -> Result<String, Error> {
        match self.peek() {
            Some(b'"') => self.basic_string(),
            Some(b'\'') => self.literal_string(),
            Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-'
                ) {
                    self.pos += 1;
                }
                // Only ASCII alphanumerics, `_` and `-` were consumed.
                let Ok(key) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
                    unreachable!("bare key span is pure ASCII")
                };
                Ok(key.to_owned())
            }
            _ => Err(self.err("expected a key")),
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.basic_string()?)),
            Some(b'\'') => Ok(Value::Str(self.literal_string()?)),
            Some(b'[') => self.nested(1, Self::array),
            Some(b'{') => self.nested(1, Self::inline_table),
            Some(b't') | Some(b'f') => self.boolean(),
            Some(c) if c == b'+' || c == b'-' || c.is_ascii_digit() || c == b'i' || c == b'n' => {
                self.number()
            }
            _ => Err(self.err("expected a TOML value")),
        }
    }

    fn boolean(&mut self) -> Result<Value, Error> {
        for (lit, v) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                return Ok(Value::Bool(v));
            }
        }
        Err(self.err("expected `true` or `false`"))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'+' | b'-')) {
            self.pos += 1;
        }
        // inf / nan keywords.
        for lit in ["inf", "nan"] {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                let neg = self.bytes[start] == b'-';
                return Ok(Value::Float(match (lit, neg) {
                    ("inf", false) => f64::INFINITY,
                    ("inf", true) => f64::NEG_INFINITY,
                    _ => f64::NAN,
                }));
            }
        }
        let mut is_float = false;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'_') {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'_') {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'_') {
                self.pos += 1;
            }
        }
        // Only ASCII digits, signs, dots, exponents and `_` were consumed.
        let Ok(span) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            unreachable!("number span is pure ASCII")
        };
        let text: String = span.chars().filter(|&c| c != '_').collect();
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid float"))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::Int(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Value::UInt(u))
        } else {
            Err(self.err("invalid integer"))
        }
    }

    fn basic_string(&mut self) -> Result<String, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected `\"`"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next quote, backslash or newline
            // whole. It starts after an ASCII byte and ends before one, so
            // it is a slice of whole characters of the `&str` input.
            let rest = &self.bytes[self.pos..];
            let len = rest
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\' | b'\n'))
                .unwrap_or(rest.len());
            let run = self
                .src
                .get(self.pos..self.pos + len)
                .ok_or_else(|| self.err("invalid UTF-8"))?;
            out.push_str(run);
            self.pos += len;
            match self.peek() {
                None | Some(b'\n') => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar value"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn literal_string(&mut self) -> Result<String, Error> {
        self.pos += 1; // opening '
        let start = self.pos;
        loop {
            match self.peek() {
                None | Some(b'\n') => return Err(self.err("unterminated literal string")),
                Some(b'\'') => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?
                        .to_owned();
                    self.pos += 1;
                    return Ok(s);
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.pos += 1; // [
        let mut items = Vec::new();
        loop {
            self.skip_all_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Seq(items));
            }
            items.push(self.value()?);
            self.skip_all_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn inline_table(&mut self) -> Result<Value, Error> {
        self.pos += 1; // {
        let mut entries: Vec<(String, Value)> = Vec::new();
        self.skip_inline_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_inline_ws();
            let path = self.dotted_key()?;
            self.skip_inline_ws();
            if self.peek() != Some(b'=') {
                return Err(self.err("expected `=` in inline table"));
            }
            self.pos += 1;
            self.skip_inline_ws();
            let v = self.nested(path.len() - 1, Self::value)?;
            insert_value(&mut entries, &path, v).map_err(|m| self.err(&m))?;
            self.skip_inline_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in inline table")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Document assembly
// ---------------------------------------------------------------------------

/// Walk (creating as needed) to the table at `path`. When the final segment
/// holds an array of tables, descend into its *last* element — TOML's
/// `[table.after.array]` semantics.
fn walk<'t>(
    root: &'t mut Vec<(String, Value)>,
    path: &[String],
) -> Result<&'t mut Vec<(String, Value)>, String> {
    let mut table = root;
    for seg in path {
        if !table.iter().any(|(k, _)| k == seg) {
            table.push((seg.clone(), Value::Map(Vec::new())));
        }
        // The key was inserted just above when absent.
        let Some(idx) = table.iter().position(|(k, _)| k == seg) else {
            unreachable!("freshly inserted key not found")
        };
        let node = &mut table[idx].1;
        // Descend into the last element of an array of tables.
        if let Value::Seq(items) = node {
            match items.last_mut() {
                Some(Value::Map(_)) => {}
                _ => return Err(format!("key `{seg}` is not a table")),
            }
            let Some(Value::Map(last)) = items.last_mut() else {
                unreachable!()
            };
            table = last;
            continue;
        }
        match node {
            Value::Map(m) => table = m,
            _ => return Err(format!("key `{seg}` is not a table")),
        }
    }
    Ok(table)
}

fn ensure_table(root: &mut Vec<(String, Value)>, path: &[String]) -> Result<(), String> {
    walk(root, path).map(|_| ())
}

fn push_table_array_element(
    root: &mut Vec<(String, Value)>,
    path: &[String],
) -> Result<(), String> {
    // The header grammar requires at least one key segment.
    let Some((last, parent_path)) = path.split_last() else {
        unreachable!("empty header path")
    };
    let parent = walk(root, parent_path)?;
    match parent.iter_mut().find(|(k, _)| k == last) {
        None => {
            parent.push((last.clone(), Value::Seq(vec![Value::Map(Vec::new())])));
            Ok(())
        }
        Some((_, Value::Seq(items))) => {
            items.push(Value::Map(Vec::new()));
            Ok(())
        }
        Some(_) => Err(format!("key `{last}` is not an array of tables")),
    }
}

fn insert_value(
    root: &mut Vec<(String, Value)>,
    path: &[String],
    value: Value,
) -> Result<(), String> {
    // The key grammar requires at least one segment.
    let Some((last, parent_path)) = path.split_last() else {
        unreachable!("empty key path")
    };
    let parent = walk(root, parent_path)?;
    if parent.iter().any(|(k, _)| k == last) {
        return Err(format!("duplicate key `{last}`"));
    }
    parent.push((last.clone(), value));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_sections() {
        let doc = r#"
# a comment
name = "paper-defaults"
count = 3
rate = 1.5
big = 1_000
on = true

[cpu]
lambda = 1.0
mu = 10.0

[cpu.inner]
x = -2
"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("paper-defaults"));
        assert_eq!(v.get("count"), Some(&Value::Int(3)));
        assert_eq!(v.get("big"), Some(&Value::Int(1000)));
        assert_eq!(v.get("on"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("cpu").unwrap().get("lambda"),
            Some(&Value::Float(1.0))
        );
        assert_eq!(
            v.get("cpu").unwrap().get("inner").unwrap().get("x"),
            Some(&Value::Int(-2))
        );
    }

    #[test]
    fn arrays_and_inline_tables() {
        let doc = r#"
xs = [1, 2, 3]
multi = [
  1.5,
  2.5, # comment
]
service = {Exponential = {rate = 10.0}}
names = ["a", 'b']
"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("xs").unwrap().as_seq().unwrap().len(), 3);
        assert_eq!(v.get("multi").unwrap().as_seq().unwrap().len(), 2);
        assert_eq!(
            v.get("service")
                .unwrap()
                .get("Exponential")
                .unwrap()
                .get("rate"),
            Some(&Value::Float(10.0))
        );
        assert_eq!(
            v.get("names").unwrap().as_seq().unwrap()[1].as_str(),
            Some("b")
        );
    }

    #[test]
    fn array_of_tables() {
        let doc = r#"
[[node]]
name = "a"

[[node]]
name = "b"

[node.extra]
w = 1
"#;
        let v = parse(doc).unwrap();
        let nodes = v.get("node").unwrap().as_seq().unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].get("name").unwrap().as_str(), Some("a"));
        // [node.extra] lands in the LAST element.
        assert_eq!(
            nodes[1].get("extra").unwrap().get("w"),
            Some(&Value::Int(1))
        );
    }

    #[test]
    fn nonfinite_floats() {
        let v = parse("a = inf\nb = -inf\nc = nan\n").unwrap();
        assert_eq!(v.get("a"), Some(&Value::Float(f64::INFINITY)));
        assert_eq!(v.get("b"), Some(&Value::Float(f64::NEG_INFINITY)));
        assert!(matches!(v.get("c"), Some(Value::Float(f)) if f.is_nan()));
    }

    #[test]
    fn writer_round_trips_nested_value() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("x".into())),
            ("t".into(), Value::Float(0.5)),
            (
                "cpu".into(),
                Value::Map(vec![
                    ("lambda".into(), Value::Float(1.0)),
                    ("seed".into(), Value::Int(42)),
                ]),
            ),
            (
                "nodes".into(),
                Value::Seq(vec![
                    Value::Map(vec![("id".into(), Value::Int(0))]),
                    Value::Map(vec![("id".into(), Value::Int(1))]),
                ]),
            ),
            ("xs".into(), Value::Seq(vec![Value::Int(1), Value::Int(2)])),
        ]);
        let Value::Map(entries) = &v else {
            unreachable!()
        };
        let mut doc = String::new();
        write_table(&mut doc, &[], entries);
        let back = parse(&doc).unwrap();
        // The writer reorders (inline keys before sections, as TOML
        // requires); compare with sorted keys.
        fn normalize(v: &Value) -> Value {
            match v {
                Value::Map(m) => {
                    let mut m: Vec<(String, Value)> =
                        m.iter().map(|(k, v)| (k.clone(), normalize(v))).collect();
                    m.sort_by(|a, b| a.0.cmp(&b.0));
                    Value::Map(m)
                }
                Value::Seq(s) => Value::Seq(s.iter().map(normalize).collect()),
                other => other.clone(),
            }
        }
        assert_eq!(normalize(&back), normalize(&v), "document was:\n{doc}");
    }

    #[test]
    fn dotted_keys_and_duplicates() {
        let v = parse("a.b = 1\na.c = 2\n").unwrap();
        assert_eq!(v.get("a").unwrap().get("b"), Some(&Value::Int(1)));
        assert_eq!(v.get("a").unwrap().get("c"), Some(&Value::Int(2)));
        assert!(parse("x = 1\nx = 2\n").is_err());
        let e = parse("x = @").unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
    }

    #[test]
    fn enum_like_values_round_trip_inline() {
        // Unit variants are strings; newtype/struct variants are single-entry
        // maps — both must survive writer → parser.
        let v = Value::Map(vec![
            ("policy".into(), Value::Str("RaceResample".into())),
            (
                "dist".into(),
                Value::Map(vec![("Deterministic".into(), Value::Float(0.25))]),
            ),
        ]);
        let Value::Map(entries) = &v else {
            unreachable!()
        };
        let mut doc = String::new();
        write_table(&mut doc, &[], entries);
        assert_eq!(parse(&doc).unwrap(), v, "document was:\n{doc}");
    }

    /// SplitMix64: a seeded stream for the string battery.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// 1-, 2-, 3- and 4-byte UTF-8, plus every character the writer or
    /// the parser treats specially.
    const ALPHABET: &[char] = &[
        'a', 'Z', '7', ' ', '=', '#', '\'', 'é', 'ß', '€', '中', '😀', '𝄞', '"', '\\', '\n', '\r',
        '\t', '\u{1}',
    ];

    /// `c` as basic-string content, written one of several valid ways.
    fn encode_char(c: char, how: u64, out: &mut String) {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            _ => None,
        };
        match (how % 3, short) {
            (0, Some(esc)) => out.push_str(esc),
            (1, _) if (c as u32) < 0x10000 => out.push_str(&format!("\\u{:04x}", c as u32)),
            // Raw: everything but the quote, the backslash and the
            // newline may appear unescaped.
            _ if !matches!(c, '"' | '\\' | '\n') => out.push(c),
            _ => out.push_str(short.unwrap()),
        }
    }

    #[test]
    fn seeded_strings_round_trip_with_escapes_next_to_multibyte_characters() {
        let mut state = 0x70e1;
        for round in 0..2000 {
            let len = next(&mut state) % 40;
            let expected: String = (0..len)
                .map(|_| ALPHABET[(next(&mut state) % ALPHABET.len() as u64) as usize])
                .collect();
            // Through the writer, as a value and as a quoted key.
            let entries = vec![
                ("s".to_owned(), Value::Str(expected.clone())),
                (format!("k{expected}"), Value::Int(1)),
            ];
            let mut written = String::new();
            write_table(&mut written, &[], &entries);
            assert_eq!(
                parse(&written).unwrap(),
                Value::Map(entries),
                "round {round}:\n{written}"
            );
            // Through hand-mixed raw characters, short escapes and \u
            // escapes, so escapes land right before and after multi-byte
            // characters.
            let mut doc = String::from("s = \"");
            for c in expected.chars() {
                encode_char(c, next(&mut state), &mut doc);
            }
            doc.push_str("\" # tail \"€\"\nt = [\"😀\"]\n");
            let v = parse(&doc).unwrap_or_else(|e| panic!("round {round}: {e}\n{doc}"));
            assert_eq!(
                v.get("s").unwrap().as_str(),
                Some(expected.as_str()),
                "{doc}"
            );
            assert_eq!(
                v.get("t").unwrap().as_seq().unwrap()[0].as_str(),
                Some("😀")
            );
        }
    }

    #[test]
    fn basic_string_hitting_a_newline_is_an_error_on_its_line() {
        let e = parse("a = 1\nb = \"ab€c\ndef\"\n").unwrap_err().to_string();
        assert!(
            e.contains("line 2") && e.contains("unterminated string"),
            "{e}"
        );
        let e = parse("a = \"open").unwrap_err().to_string();
        assert!(
            e.contains("line 1") && e.contains("unterminated string"),
            "{e}"
        );
        assert!(parse("a = \"x\\é\"")
            .unwrap_err()
            .to_string()
            .contains("invalid escape"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MB of mixed-width characters with an escape every ~1000
        // bytes. The old character-at-a-time scan re-validated the rest
        // of the document per character and took hours on this.
        let chunk = format!("{}\\t", "aé€😀".repeat(100));
        let body = chunk.repeat(1_000_000 / chunk.len());
        let doc = format!("s = \"{body}\"\n");
        assert!(doc.len() >= 990_000);
        let started = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let elapsed = started.elapsed();
        let s = v.get("s").unwrap().as_str().unwrap();
        assert_eq!(s.len(), body.len() - body.matches("\\t").count());
        assert!(elapsed.as_secs_f64() < 10.0, "{elapsed:?}");
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |depth: usize| format!("x = {}{}\n", "[".repeat(depth), "]".repeat(depth));
        let tables =
            |depth: usize| format!("x = {}1{}\n", "{a = ".repeat(depth), "}".repeat(depth));
        let dotted = |segments: usize| format!("{} = 1\n", vec!["a"; segments].join("."));
        let header = |segments: usize| format!("[{}]\n", vec!["a"; segments].join("."));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&tables(MAX_DEPTH)).is_ok());
        // A dotted key's last segment names the value, not a table.
        assert!(parse(&dotted(MAX_DEPTH + 1)).is_ok());
        assert!(parse(&header(MAX_DEPTH)).is_ok());
        // Header segments and dotted prefixes count toward the value's depth.
        assert!(parse(&format!("{}x = [1]\n", header(MAX_DEPTH - 1))).is_ok());
        for doc in [
            arrays(MAX_DEPTH + 1),
            tables(MAX_DEPTH + 1),
            dotted(MAX_DEPTH + 2),
            header(MAX_DEPTH + 1),
            format!("{}x = [1]\n", header(MAX_DEPTH)),
            format!("{}b.x = 1\n", header(MAX_DEPTH)),
            format!("x = {{{} = 1}}\n", vec!["a"; MAX_DEPTH + 1].join(".")),
            format!("x = {}", "[".repeat(200_000)),
            format!("x = {}", "{a = [".repeat(100_000)),
        ] {
            let e = parse(&doc).unwrap_err().to_string();
            assert!(e.contains("nest deeper than 128 levels"), "{e}");
        }
    }
}
