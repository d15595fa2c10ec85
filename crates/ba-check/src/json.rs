//! A minimal hand-rolled JSON value, parser and printer.
//!
//! The workspace builds fully offline, so `serde_json` is not an option.
//! This module implements exactly the subset the regression corpus needs,
//! with one deliberate restriction: numbers are **unsigned integers only**
//! ([`Json::Int`] holds a `u64`). Floats are rejected at parse time, which
//! guarantees that 64-bit seeds round-trip exactly — a float-backed number
//! type would silently lose precision above 2⁵³ and corrupt replay seeds.
//! Bench reports need fractions, so [`Json::Dec`] renders a preformatted
//! decimal; it is render-only, and [`parse`] still rejects what it prints.

use std::fmt::Write as _;

/// A JSON value restricted to the corpus vocabulary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number form [`parse`] accepts).
    Int(u64),
    /// A decimal, rendered verbatim (see [`Json::dec`]); never parsed.
    Dec(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs — insertion order is preserved
    /// so rendering is deterministic.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an [`Json::Int`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A decimal rendered verbatim with `places` digits after the point —
    /// for bench reports. [`parse`] rejects the result (see module docs).
    pub fn dec(x: f64, places: usize) -> Json {
        Json::Dec(format!("{x:.places$}"))
    }

    /// Renders compactly (no whitespace).
    pub fn render(&self) -> String {
        self.rendered(Style::Compact)
    }

    /// Renders on one line with `": "` / `", "` separators, for bench
    /// report rows.
    pub fn inline(&self) -> String {
        self.rendered(Style::Inline)
    }

    /// Renders with two-space indentation, for committed corpus files.
    pub fn pretty(&self) -> String {
        let mut out = self.rendered(Style::Pretty);
        out.push('\n');
        out
    }

    fn rendered(&self, style: Style) -> String {
        let mut out = String::new();
        self.write(&mut out, style, 0);
        out
    }

    fn write(&self, out: &mut String, style: Style, depth: usize) {
        let entries: Vec<(Option<&str>, &Json)> = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => return out.push_str(&v.to_string()),
            Json::Dec(text) => return out.push_str(text),
            Json::Str(s) => return write_escaped(out, s),
            Json::Arr(items) => items.iter().map(|item| (None, item)).collect(),
            Json::Obj(pairs) => pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        };
        let (open, close) = match self {
            Json::Arr(_) => ('[', ']'),
            _ => ('{', '}'),
        };
        out.push(open);
        for (i, (key, value)) in entries.iter().enumerate() {
            if i > 0 {
                out.push_str(if style == Style::Inline { ", " } else { "," });
            }
            if style == Style::Pretty {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
            if let Some(key) = key {
                write_escaped(out, key);
                out.push_str(if style == Style::Compact { ":" } else { ": " });
            }
            value.write(out, style, depth + 1);
        }
        if style == Style::Pretty && !entries.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

/// How [`Json::write`] lays a value out.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Style {
    /// No whitespace: `{"a":1,"b":2}`.
    Compact,
    /// One line: `{"a": 1, "b": 2}`.
    Inline,
    /// Two-space indentation, one entry per line.
    Pretty,
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses `text` into a [`Json`] value.
///
/// # Errors
/// A description with the byte offset of the first syntax error. Negative
/// numbers, fractions and exponents are rejected (see module docs).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'0'..=b'9') => self.integer(),
            Some(b'-') => Err(format!(
                "negative number at byte {} (corpus numbers are unsigned)",
                self.pos
            )),
            Some(other) => Err(format!(
                "unexpected '{}' at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn integer(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(format!(
                "non-integer number at byte {start} (floats cannot carry 64-bit seeds)"
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        text.parse::<u64>()
            .map(Json::Int)
            .map_err(|_| format!("integer out of u64 range at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8")?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_compact_and_pretty() {
        let value = Json::Obj(vec![
            ("name".into(), Json::Str("ds-weak".into())),
            ("seed".into(), Json::Int(u64::MAX)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "items".into(),
                Json::Arr(vec![Json::Int(1), Json::Int(2), Json::Arr(vec![])]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(parse(&value.render()).unwrap(), value);
        assert_eq!(parse(&value.pretty()).unwrap(), value);
    }

    #[test]
    fn u64_seeds_roundtrip_exactly() {
        // The motivating case: a seed above 2^53, where a float-backed
        // number type would lose the low bits.
        for seed in [u64::MAX, (1u64 << 53) + 1, 0x1234_5678_9abc_def0] {
            let text = Json::Int(seed).render();
            assert_eq!(parse(&text).unwrap().as_u64(), Some(seed));
        }
    }

    #[test]
    fn floats_and_negatives_are_rejected() {
        assert!(parse("1.5").unwrap_err().contains("non-integer"));
        assert!(parse("1e9").unwrap_err().contains("non-integer"));
        assert!(parse("-3").unwrap_err().contains("negative"));
    }

    #[test]
    fn decimals_render_verbatim_and_do_not_parse() {
        assert_eq!(Json::dec(1553.94, 1).render(), "1553.9");
        assert_eq!(Json::dec(24.0, 2).render(), "24.00");
        assert_eq!(Json::Dec("4".into()).render(), "4");
        for value in [Json::dec(0.5, 3), Json::Arr(vec![Json::dec(9.17083, 4)])] {
            assert!(parse(&value.render()).unwrap_err().contains("non-integer"));
        }
    }

    #[test]
    fn inline_is_one_line_with_spaced_separators() {
        let value = Json::Obj(vec![
            ("label".into(), "L=8 k=63".into()),
            ("n".into(), 64u64.into()),
            ("ok".into(), true.into()),
            ("ns".into(), Json::dec(24.664, 2)),
            (
                "host".into(),
                Json::Obj(vec![("cores".into(), 2usize.into())]),
            ),
            (
                "rows".into(),
                Json::Arr(vec![Json::Int(1), Json::Arr(vec![])]),
            ),
            ("none".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(
            value.inline(),
            r#"{"label": "L=8 k=63", "n": 64, "ok": true, "ns": 24.66, "host": {"cores": 2}, "rows": [1, []], "none": {}}"#
        );
    }

    #[test]
    fn compact_and_pretty_layouts_are_pinned() {
        let value = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Int(1), Json::Null])),
            ("b".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(value.render(), r#"{"a":[1,null],"b":{}}"#);
        assert_eq!(
            value.pretty(),
            "{\n  \"a\": [\n    1,\n    null\n  ],\n  \"b\": {}\n}\n"
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        let tricky = "quote \" slash \\ newline \n tab \t unicode \u{263a}";
        let text = Json::Str(tricky.into()).render();
        assert_eq!(parse(&text).unwrap().as_str(), Some(tricky));
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[] trailing").unwrap_err().contains("trailing"));
        assert!(parse("\"open").unwrap_err().contains("unterminated"));
    }

    #[test]
    fn accessors_select_by_type() {
        let obj = parse("{\"a\": 3, \"b\": [true], \"c\": \"x\"}").unwrap();
        assert_eq!(obj.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(
            obj.get("b").and_then(Json::as_arr).map(|a| a.len()),
            Some(1)
        );
        assert_eq!(obj.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(
            obj.get("b").unwrap().as_arr().unwrap()[0].as_bool(),
            Some(true)
        );
        assert_eq!(obj.get("missing"), None);
        assert_eq!(obj.get("a").and_then(Json::as_str), None);
    }
}
