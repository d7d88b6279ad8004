//! JSON rendering and parsing over the in-workspace serde subset.
//!
//! Source-compatible with the `serde_json` calls this workspace makes:
//! [`to_string`], [`to_string_pretty`], [`from_str`], [`to_value`],
//! [`from_value`] and the [`Value`] re-export, plus [`to_string_pretty_at`]
//! for rendering one piece of a larger pretty-printed document.
//!
//! Numbers are written with Rust's shortest-round-trip float formatting, so
//! `serialize → parse` reproduces every finite `f64` bit-exactly. JSON has no
//! literal for non-finite floats; they are written as the strings
//! `"Infinity"`, `"-Infinity"` and `"NaN"`, which the serde subset's `f64`
//! deserializer accepts symmetrically.
//!
//! The parser is linear in the input: each plain run of a string is copied
//! with one `push_str`, and arrays and objects may nest at most
//! [`MAX_DEPTH`] levels, so hostile input is answered with an [`Error`]
//! rather than a stack overflow.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub use serde::Value;

use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`parse`] accepts; a deeper
/// document is a parse error. Scenario files, reports and fleetd frames
/// nest fewer than ten levels.
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

/// Serialize a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize a value to a pretty-printed JSON string (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    to_string_pretty_at(value, 0)
}

/// Serialize a value pretty-printed as if it sat `depth` levels deep in a
/// larger document: its inner lines are indented for that depth and its
/// closing bracket for `depth` itself, while its first character carries
/// no indent. This is exactly the slice [`to_string_pretty`] writes for the
/// value at that depth, so documents can be rendered in pieces and joined.
pub fn to_string_pretty_at<T: Serialize + ?Sized>(
    value: &T,
    depth: usize,
) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), depth);
    Ok(out)
}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Reconstruct a typed value from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value).map_err(Error::from)
}

/// Parse a JSON document into a typed value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse(s)?;
    T::from_value(&v).map_err(Error::from)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Writing into a `String` cannot fail.
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => write_block(out, indent, depth, '[', ']', items.len(), |out, i| {
            write_value(out, &items[i], indent, depth + 1)
        }),
        Value::Map(entries) => {
            write_block(out, indent, depth, '{', '}', entries.len(), |out, i| {
                write_string(out, &entries[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, &entries[i].1, indent, depth + 1)
            })
        }
    }
}

fn write_block(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            newline_indent(out, w * (depth + 1));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        newline_indent(out, w * depth);
    }
    out.push(close);
}

/// A newline followed by `width` spaces, copied from a static run.
fn newline_indent(out: &mut String, width: usize) {
    const SPACES: &str = "                                                                ";
    out.push('\n');
    let mut left = width;
    while left > 0 {
        let n = left.min(SPACES.len());
        out.push_str(&SPACES[..n]);
        left -= n;
    }
}

fn write_float(out: &mut String, f: f64) {
    if f.is_nan() {
        out.push_str("\"NaN\"");
    } else if f.is_infinite() {
        out.push_str(if f > 0.0 {
            "\"Infinity\""
        } else {
            "\"-Infinity\""
        });
    } else {
        // Rust's Display for f64 is the shortest string that parses back to
        // the same bits; keep a trailing `.0` so the value re-parses as a
        // float rather than an integer (harmless either way, since numeric
        // deserializers coerce).
        let start = out.len();
        let _ = write!(out, "{f}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the plain runs between
    // them start and end on char boundaries and are copied whole.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// Parse a JSON document into a [`Value`] tree.
///
/// Arrays and objects nested deeper than [`MAX_DEPTH`] are an error.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        Error::new(format!("JSON parse error at line {line}: {msg}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse an array or object one level deeper, refusing to recurse
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!(
                "arrays and objects nest deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
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

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next quote or backslash whole.
            // It starts after an ASCII byte and ends before one, so it is
            // a slice of whole characters of the `&str` input.
            let rest = &self.bytes[self.pos..];
            let len = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let run = self
                .src
                .get(self.pos..self.pos + len)
                .ok_or_else(|| self.err("invalid UTF-8"))?;
            out.push_str(run);
            self.pos += len;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for this
                            // workspace's data; reject rather than corrupt.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // Only ASCII digits, signs, dots and exponents were consumed.
        let Ok(text) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            unreachable!("number span is pure ASCII")
        };
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid number"))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::Int(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Value::UInt(u))
        } else {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&"a\"b").unwrap(), r#""a\"b""#);
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-3").unwrap(), -3);
    }

    #[test]
    fn float_bits_survive() {
        for &x in &[0.1f64, 1.0 / 3.0, 1e-300, 123456.789e12, -0.0] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {s}");
        }
    }

    #[test]
    fn nonfinite_floats() {
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "\"Infinity\"");
        let back: f64 = from_str("\"-Infinity\"").unwrap();
        assert!(back.is_infinite() && back < 0.0);
        let back: f64 = from_str(&to_string(&f64::NAN).unwrap()).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn containers() {
        let v = vec![1u32, 2, 3];
        assert_eq!(to_string(&v).unwrap(), "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>("[1, 2,\n3]").unwrap(), v);
        let m: Value = parse(r#"{"a": [true, null], "b": {"c": 1e3}}"#).unwrap();
        assert_eq!(m.get("a").unwrap().as_seq().unwrap().len(), 2);
        assert_eq!(m.get("b").unwrap().get("c"), Some(&Value::Float(1000.0)));
    }

    #[test]
    fn pretty_printing_nests() {
        let v = Value::Map(vec![
            ("x".into(), Value::Seq(vec![Value::Int(1), Value::Int(2)])),
            ("y".into(), Value::Map(vec![])),
        ]);
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(s, "{\n  \"x\": [\n    1,\n    2\n  ],\n  \"y\": {}\n}");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn pretty_pieces_match_their_slice_of_the_nested_document() {
        let pieces = [
            Value::Map(vec![
                ("a".into(), Value::Seq(vec![Value::Int(1), Value::Null])),
                (
                    "b".into(),
                    Value::Map(vec![("c".into(), Value::Bool(true))]),
                ),
                ("e".into(), Value::Seq(vec![])),
                ("f".into(), Value::Map(vec![])),
            ]),
            Value::Seq(vec![
                Value::Float(f64::NAN),
                Value::Float(f64::INFINITY),
                Value::Float(f64::NEG_INFINITY),
                Value::Float(-0.5),
                Value::Str("line\nbreak \"q\"".into()),
                Value::Seq(vec![Value::Map(vec![])]),
            ]),
            Value::Seq(vec![]),
            Value::Map(vec![]),
            Value::Float(f64::NAN),
            Value::UInt(7),
        ];
        for piece in &pieces {
            for depth in 0..5 {
                // Nest the piece `depth` levels deep, alternating objects
                // and arrays, and write down the text around it.
                let (mut doc, mut prefix, mut suffix) =
                    (piece.clone(), String::new(), String::new());
                for level in (0..depth).rev() {
                    let (open, close, key) = if level % 2 == 0 {
                        doc = Value::Map(vec![("k".into(), doc)]);
                        ('{', '}', "\"k\": ")
                    } else {
                        doc = Value::Seq(vec![doc]);
                        ('[', ']', "")
                    };
                    prefix = format!("{open}\n{}{key}{prefix}", " ".repeat(2 * (level + 1)));
                    suffix = format!("{suffix}\n{}{close}", " ".repeat(2 * level));
                }
                let full = to_string_pretty(&doc).unwrap();
                let at = to_string_pretty_at(piece, depth).unwrap();
                assert_eq!(full, format!("{prefix}{at}{suffix}"), "depth {depth}");
            }
        }
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        let e = parse("{\n\"a\": }").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn string_escapes() {
        let s: String = from_str(r#""tab\there A""#).unwrap();
        assert_eq!(s, "tab\there A");
        let round = to_string(&"line\nbreak\u{1}").unwrap();
        assert_eq!(from_str::<String>(&round).unwrap(), "line\nbreak\u{1}");
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
        'a', 'Z', '7', ' ', 'é', 'ß', '€', '中', '😀', '𝄞', '"', '\\', '/', '\n', '\r', '\t',
        '\u{1}', '\u{1f}', '\u{8}', '\u{c}',
    ];

    /// `c` as JSON string content, written one of several valid ways.
    fn encode_char(c: char, how: u64, out: &mut String) {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            _ => None,
        };
        match (how % 3, short) {
            (0, Some(esc)) => out.push_str(esc),
            (1, _) if (c as u32) < 0x10000 => out.push_str(&format!("\\u{:04X}", c as u32)),
            // Raw: everything but the quote and the backslash may appear
            // unescaped, control characters included.
            _ if c != '"' && c != '\\' => out.push(c),
            _ => out.push_str(short.unwrap()),
        }
    }

    #[test]
    fn seeded_strings_round_trip_with_escapes_next_to_multibyte_characters() {
        let mut state = 0x5eed;
        for round in 0..2000 {
            let len = next(&mut state) % 40;
            let expected: String = (0..len)
                .map(|_| ALPHABET[(next(&mut state) % ALPHABET.len() as u64) as usize])
                .collect();
            // Through the writer.
            let written = to_string(&expected).unwrap();
            assert_eq!(from_str::<String>(&written).unwrap(), expected, "{written}");
            // Through hand-mixed raw characters, short escapes and \u
            // escapes, so escapes land right before and after multi-byte
            // characters.
            let mut doc = String::from("\"");
            for c in expected.chars() {
                encode_char(c, next(&mut state), &mut doc);
            }
            doc.push('"');
            assert_eq!(
                from_str::<String>(&doc).unwrap(),
                expected,
                "round {round}: {doc}"
            );
            // Inside a document, next to other values.
            let pair = format!("[{doc},{written},\"€\"]");
            let back: Vec<String> = from_str(&pair).unwrap();
            assert_eq!(back, vec![expected.clone(), expected, "€".into()]);
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_accepted() {
        let doc = "\"a\u{1}b\tc\nd\u{1f}\"";
        assert_eq!(from_str::<String>(doc).unwrap(), "a\u{1}b\tc\nd\u{1f}");
    }

    #[test]
    fn bad_strings_are_errors() {
        assert!(parse("\"abc")
            .unwrap_err()
            .to_string()
            .contains("unterminated"));
        assert!(parse("\"a\\é\"")
            .unwrap_err()
            .to_string()
            .contains("invalid escape"));
        assert!(parse("\"\\u12\"").is_err());
        assert!(parse("\"\\ud800\"").is_err(), "lone surrogate");
        let e = parse("[\n\"ok\",\n\"open").unwrap_err();
        assert!(e.to_string().contains("line 3"), "{e}");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 4 MB of mixed-width characters with an escape every ~1000
        // bytes. The old character-at-a-time scan re-validated the rest
        // of the document per character and took hours on this.
        let chunk = format!("{}\\n", "aé€😀".repeat(100));
        let body = chunk.repeat(4_000_000 / chunk.len());
        let doc = format!("\"{body}\"");
        assert!(doc.len() >= 3_900_000);
        let started = std::time::Instant::now();
        let s: String = from_str(&doc).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(s.len(), body.len() - body.matches("\\n").count());
        assert!(elapsed.as_secs_f64() < 10.0, "{elapsed:?}");
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nested(MAX_DEPTH, "[", "]")).is_ok());
        assert!(parse(&nested(MAX_DEPTH, "{\"k\":", "}").replace(":}", ":1}")).is_ok());
        for doc in [
            nested(MAX_DEPTH + 1, "[", "]"),
            nested(MAX_DEPTH + 1, "{\"k\":", "}").replace(":}", ":1}"),
            "[".repeat(200_000),
            "[{\"a\":".repeat(100_000),
        ] {
            let e = parse(&doc).unwrap_err().to_string();
            assert!(e.contains("nest deeper than 128 levels"), "{e}");
        }
    }
}
