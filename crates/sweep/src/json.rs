//! A minimal JSON value, writer and parser.
//!
//! The cache files and the `BENCH_sweep.json` artifact need structured,
//! deterministic serialization, and the build environment has no serde;
//! this module implements the small JSON subset the sweep engine uses.
//! Integers are kept lossless in a dedicated [`Value::Int`] variant
//! (cycle counts exceed `f64`'s 53-bit integer range in principle), and
//! object keys keep their insertion order so output is byte-stable.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (all counters in the sweep are unsigned).
    Int(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys keep insertion order for deterministic output.
    Obj(Vec<(String, Value)>),
    /// One complete JSON value exactly as this module writes it,
    /// emitted verbatim: lets a caller embed text it already holds (a
    /// report's verified cache bytes, say) without decoding and
    /// re-encoding it. [`parse`] never produces it, so a value holding
    /// `Raw` never equals its own parsed form.
    Raw(String),
}

impl Value {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value to compact JSON (no whitespace), suitable
    /// for byte-for-byte comparison across runs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => write_u64(*n, out),
            Value::Float(x) => write_f64(*x, out),
            Value::Str(s) => write_string(s, out),
            Value::Raw(text) => out.push_str(text),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Writes `n` in decimal without a temporary `String`.
pub(crate) fn write_u64(n: u64, out: &mut String) {
    write!(out, "{n}").expect("writing to a String cannot fail");
}

/// Rust's shortest-roundtrip `f64` formatting is deterministic, but
/// bare `Display` omits the decimal point for integral values, which
/// would parse back as `Int`; force a fractional form.
pub(crate) fn write_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        // JSON has no Inf/NaN; the sweep never produces them, but a
        // defined encoding beats a panic in a reporting path.
        out.push_str("null");
        return;
    }
    let start = out.len();
    write!(out, "{x}").expect("writing to a String cannot fail");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Writes `s` as a quoted JSON string. Every byte that needs an escape
/// is ASCII, so the runs between them are copied whole.
pub(crate) fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so without a bound one line of `[[[[…`
/// would overflow the parsing thread's stack and abort the process. The
/// deepest document the workspace writes (a run report's switch shapes
/// inside a `records` frame) nests seven levels.
pub const MAX_DEPTH: usize = 128;

/// A parse failure with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document.
///
/// # Errors
///
/// Fails on malformed input, trailing garbage, or nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { at: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
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
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes, then decode it as UTF-8.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates never occur in the engine's own
                            // output; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| ParseError { at: start, message: "bad number".into() })
    }
}

/// Convenience: builds an object value from pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = obj(vec![
            ("name", Value::Str("SP fine".into())),
            ("cycles", Value::Int(123_456_789)),
            ("p", Value::Float(0.25)),
            ("flags", Value::Arr(vec![Value::Bool(true), Value::Null])),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_stay_lossless() {
        let big = u64::MAX - 3;
        let text = Value::Int(big).to_json();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn floats_keep_fractional_form() {
        assert_eq!(Value::Float(2.0).to_json(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Value::Float(2.0));
        assert_eq!(parse("2").unwrap(), Value::Int(2));
    }

    #[test]
    fn string_escapes() {
        let v = Value::Str("a\"b\\c\nd".into());
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    /// The char-at-a-time escaper `write_string` replaced: the oracle.
    fn escape_by_char(s: &str) -> String {
        let mut out = String::from('"');
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
        out
    }

    #[test]
    fn write_string_matches_the_char_escaper() {
        let cases = [
            "",
            "plain ascii",
            "say \"hi\"",
            "back\\slash\\",
            "\u{1}",
            "\u{1f}",
            "\u{0}\u{1}\u{1f}\u{7f}",
            "tab\tnew\nret\r",
            "naïve café — ünïcödé",
            "emoji 🦀 and \"quotes\" 🦀",
            "\u{1f}🦀\\\"\u{1}é",
        ];
        for s in cases {
            let mut fast = String::new();
            write_string(s, &mut fast);
            assert_eq!(fast, escape_by_char(s), "{s:?}");
            assert_eq!(parse(&fast).unwrap(), Value::Str(s.into()), "{s:?}");
        }
    }

    #[test]
    fn integers_write_like_display() {
        for n in [0, 1, 9, 10, 99, 100, 4_294_967_296, u64::MAX - 1, u64::MAX] {
            assert_eq!(Value::Int(n).to_json(), n.to_string());
        }
    }

    #[test]
    fn raw_values_are_emitted_verbatim() {
        let v = obj(vec![("a", Value::Int(1)), ("r", Value::Raw("{\"x\":[1,2.5,\"s\"]}".into()))]);
        let text = v.to_json();
        assert_eq!(text, "{\"a\":1,\"r\":{\"x\":[1,2.5,\"s\"]}}");
        // `parse` never produces `Raw`: the parsed form differs as a
        // value but writes the same bytes.
        let back = parse(&text).unwrap();
        assert_ne!(back, v);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Far past any stack: one mebibyte of openers, objects mixed in.
        let err = parse(&"[{\"a\":".repeat(1 << 18)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn negative_and_exponent_numbers() {
        assert_eq!(parse("-3").unwrap(), Value::Float(-3.0));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
    }
}
