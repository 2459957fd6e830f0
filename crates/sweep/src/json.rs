//! A minimal JSON value, writer, parser and pull reader.
//!
//! The cache files and the `BENCH_sweep.json` artifact need structured,
//! deterministic serialization, and the build environment has no serde;
//! this module implements the small JSON subset the sweep engine uses.
//! Integers are kept lossless in a dedicated [`Value::Int`] variant
//! (cycle counts exceed `f64`'s 53-bit integer range in principle), and
//! object keys keep their insertion order so output is byte-stable.
//!
//! Reading has one tokenizer and two ways in. [`parse`] builds a
//! [`Value`] tree, for small documents: control frames, specs, wall
//! hints. The crate's report and `records` frame decoders pull fields
//! straight from the text, in the order their encoder wrote them, with
//! no tree at all. Both share the same scanning code and the same
//! [`MAX_DEPTH`] bound.

use std::borrow::Cow;
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

/// The deepest array/object nesting this module's reader accepts, in
/// [`parse`] and every report decode alike. [`parse`] recurses once per
/// level, so without a bound one line of `[[[[…` would overflow the
/// parsing thread's stack and abort the process. The deepest document
/// the workspace writes (a run report's switch shapes inside a `records`
/// frame) nests seven levels.
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
    let mut r = Reader::new(input);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// A forward-only pull reader over one JSON text: the one tokenizer
/// behind [`parse`] and every report decode.
///
/// A pull consumer reads the document in the order it was written:
/// [`Reader::key`] demands the next member by name, so a decoder that
/// follows its encoder's field order needs no tree and no per-key
/// allocation, and a document in any other order is an error rather
/// than a silent re-ordering. Whitespace between tokens is skipped.
/// Every array and object opens through one depth check, so no entry
/// point nests deeper than [`MAX_DEPTH`].
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// The innermost open object has no member read yet.
    first: bool,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Reader { text, pos: 0, depth: 0, first: false }
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError { at: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    /// Consumes `lit` if the text continues with it.
    fn literal(&mut self, lit: &str) -> bool {
        let found = self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes());
        if found {
            self.pos += lit.len();
        }
        found
    }

    /// Checks that only whitespace is left.
    pub(crate) fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

    /// Opens an array (`[`) or an object (`{`): the one place nesting
    /// deepens, so the one place [`MAX_DEPTH`] is enforced.
    fn open(&mut self, byte: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.depth == MAX_DEPTH && self.peek() == Some(byte) {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.expect(byte)?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Reads the comma-separated elements of a just-opened array or
    /// object through `element`, up to and including `close`.
    fn seq<E: From<ParseError>>(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                element(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => {
                        let message = format!("expected ',' or '{}'", close as char);
                        return Err(self.err(&message).into());
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        self.first = false;
        Ok(())
    }

    /// Reads an array, each element through `element`.
    pub(crate) fn array<E: From<ParseError>>(
        &mut self,
        element: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.open(b'[')?;
        self.seq(b']', element)
    }

    /// Opens an object whose members are then read by [`Reader::key`].
    pub(crate) fn begin_object(&mut self) -> Result<(), ParseError> {
        self.open(b'{')
    }

    /// Reads the open object's next member key, which must be `name`,
    /// and its colon; the member's value comes next.
    ///
    /// `"name":` is compared in place; only other text (an escape,
    /// whitespace before the colon, a wrong key) takes the decoding
    /// path. Every `name` a decoder asks for is plain: no `"` or `\`.
    pub(crate) fn key(&mut self, name: &str) -> Result<(), ParseError> {
        if !std::mem::take(&mut self.first) {
            self.expect(b',')?;
        }
        self.skip_ws();
        debug_assert!(!name.contains(['"', '\\']), "key {name:?} is not plain");
        let n = name.len();
        let quoted = self.text.as_bytes().get(self.pos..self.pos + n + 3);
        if quoted
            .is_some_and(|k| k[0] == b'"' && k[1..=n] == *name.as_bytes() && k[n + 1..] == *b"\":")
        {
            self.pos += n + 3;
            return Ok(());
        }
        self.decoded_key(name)
    }

    /// [`Reader::key`] after its comma, by decoding the key.
    fn decoded_key(&mut self, name: &str) -> Result<(), ParseError> {
        let at = self.pos;
        if self.member_key()? == name {
            Ok(())
        } else {
            Err(ParseError { at, message: format!("expected key \"{name}\"") })
        }
    }

    /// Whether the open object has a member left to read.
    pub(crate) fn has_member(&mut self) -> bool {
        self.skip_ws();
        self.peek() != Some(b'}')
    }

    /// Closes the open object: no member may be left.
    pub(crate) fn end_object(&mut self) -> Result<(), ParseError> {
        self.expect(b'}')?;
        self.depth -= 1;
        self.first = false;
        Ok(())
    }

    fn member_key(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let key = self.str()?;
        self.expect(b':')?;
        Ok(key)
    }

    /// Reads a non-negative integer that fits a `u64`, accumulating its
    /// digits in one pass; a fraction, an exponent, a sign, a leading
    /// zero or an overflow takes the [`Reader::number`] path, which
    /// rejects it.
    pub(crate) fn u64(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let (bytes, mut end, mut n) = (self.text.as_bytes(), self.pos, 0u64);
        while let Some(d) = bytes.get(end).filter(|b| b.is_ascii_digit()) {
            match n.checked_mul(10).and_then(|n| n.checked_add(u64::from(d - b'0'))) {
                Some(next) => (n, end) = (next, end + 1),
                None => return self.number_u64(),
            }
        }
        let leading_zero = end > self.pos + 1 && bytes[self.pos] == b'0';
        if end > self.pos && !leading_zero && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E')) {
            self.pos = end;
            return Ok(n);
        }
        self.number_u64()
    }

    /// [`Reader::u64`] through the general number scan.
    fn number_u64(&mut self) -> Result<u64, ParseError> {
        let at = self.pos;
        match self.number()? {
            Value::Int(n) => Ok(n),
            _ => Err(ParseError { at, message: "expected an integer".into() }),
        }
    }

    /// Reads a number; integers widen.
    pub(crate) fn f64(&mut self) -> Result<f64, ParseError> {
        self.number()?.as_f64().ok_or_else(|| self.err("expected a number"))
    }

    /// Reads `true` or `false`.
    pub(crate) fn bool(&mut self) -> Result<bool, ParseError> {
        self.skip_ws();
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(self.err("expected a boolean"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| -> Result<(), ParseError> {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.open(b'{')?;
                self.seq(b'}', |r| -> Result<(), ParseError> {
                    let key = r.member_key()?.into_owned();
                    pairs.push((key, r.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(pairs))
            }
            _ => self.scalar(),
        }
    }

    /// A string, number, boolean or `null`.
    fn scalar(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.str()?.into_owned())),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.literal("null") => Ok(Value::Null),
            _ if self.literal("true") => Ok(Value::Bool(true)),
            _ if self.literal("false") => Ok(Value::Bool(false)),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Reads a string. It borrows the text unless it holds an escape.
    pub(crate) fn str(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        // The text is a `str` and both stops are ASCII, so every slice
        // taken between them lies on character boundaries.
        let plain_run = |r: &mut Self| {
            while let Some(c) = r.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                r.pos += 1;
            }
        };
        plain_run(self);
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                            // Exactly four hex digits, digit by digit:
                            // `u32::from_str_radix` would also take a sign.
                            let code = self
                                .text
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| {
                                    hex.iter().try_fold(0, |code, &b| {
                                        char::from(b).to_digit(16).map(|d| code * 16 + d)
                                    })
                                })
                                .ok_or_else(|| self.err("bad \\u escape"))?;
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
            let run = self.pos;
            plain_run(self);
            out.push_str(&self.text[run..self.pos]);
        }
    }

    /// Reads a number in JSON's grammar,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`: an
    /// [`Value::Int`] when it is a non-negative integer that fits, a
    /// [`Value::Float`] otherwise.
    fn number(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.err("expected a number"));
        }
        let start = self.pos;
        let bad = || ParseError { at: start, message: "bad number".into() };
        // Skips one or more digits, returning how many.
        let digits = |r: &mut Self| {
            let from = r.pos;
            while matches!(r.peek(), Some(c) if c.is_ascii_digit()) {
                r.pos += 1;
            }
            match r.pos - from {
                0 => Err(bad()),
                n => Ok(n),
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        if digits(self)? > 1 && self.text.as_bytes()[int_start] == b'0' {
            return Err(bad());
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self)?;
        }
        let text = &self.text[start..self.pos];
        if !is_float && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>().map(Value::Float).map_err(|_| bad())
    }
}

/// Convenience: builds an object value from pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The member split the `records` frame decoder replaced, kept for its
/// differential oracle.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Splits a JSON object into its members without decoding their
    /// values: each key with the text of its value, every value checked
    /// to be well formed and no deeper than [`MAX_DEPTH`].
    pub(crate) fn members(text: &str) -> Result<Vec<(Cow<'_, str>, &str)>, ParseError> {
        let mut r = Reader::new(text);
        let mut out = Vec::new();
        r.open(b'{')?;
        r.seq(b'}', |r| -> Result<(), ParseError> {
            let key = r.member_key()?;
            r.skip_ws();
            let start = r.pos;
            skip_value(r)?;
            out.push((key, &r.text[start..r.pos]));
            Ok(())
        })?;
        r.finish()?;
        Ok(out)
    }

    fn skip_value(r: &mut Reader<'_>) -> Result<(), ParseError> {
        r.skip_ws();
        match r.peek() {
            Some(b'[') => r.array(skip_value),
            Some(b'{') => {
                r.open(b'{')?;
                r.seq(b'}', |r| {
                    r.member_key()?;
                    skip_value(r)
                })
            }
            Some(b'"') => r.str().map(drop),
            _ => r.scalar().map(drop),
        }
    }
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
        assert_eq!(parse("-0").unwrap(), Value::Float(-0.0));
        assert_eq!(parse("0.5").unwrap(), Value::Float(0.5));
        assert_eq!(parse("1E+3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("-1.5e-7").unwrap(), Value::Float(-1.5e-7));
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".into()));
        // Text outside JSON's number and `\u` grammars is a typed error
        // through the tree parser and through the pull reader alike.
        let rejected = [
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u004\"",
            "\"\\u00g1\"",
            "-.5",
            ".5",
            "1.",
            "1.e3",
            "01",
            "-01",
            "00",
            "-",
            "1e",
            "1e+",
            "+1",
        ];
        for text in rejected {
            assert!(parse(text).is_err(), "{text}");
            let mut r = Reader::new(text);
            let pulled = match text.as_bytes()[0] {
                b'"' => r.str().map(drop),
                _ => r.f64().map(drop),
            };
            assert!(pulled.and_then(|()| r.finish()).is_err(), "{text}");
        }
    }

    #[test]
    fn the_pull_reader_demands_members_in_order() {
        let mut r = Reader::new("{\"a\":1, \"b\":[true,false],\"c\":-2.5}");
        r.begin_object().unwrap();
        r.key("a").unwrap();
        assert_eq!(r.u64().unwrap(), 1);
        r.key("b").unwrap();
        let mut flags = Vec::new();
        r.array(|r| -> Result<(), ParseError> {
            flags.push(r.bool()?);
            Ok(())
        })
        .unwrap();
        assert_eq!(flags, [true, false]);
        assert!(r.has_member());
        r.key("c").unwrap();
        assert_eq!(r.f64().unwrap(), -2.5);
        assert!(!r.has_member());
        r.end_object().unwrap();
        r.finish().unwrap();

        let mut r = Reader::new("{\"b\":1,\"a\":2}");
        r.begin_object().unwrap();
        let err = r.key("a").unwrap_err();
        assert_eq!((err.at, err.message.as_str()), (1, "expected key \"a\""));
        let mut r = Reader::new("[-1, 1.5, 18446744073709551616]");
        r.array(|r| -> Result<(), ParseError> { r.u64().map(drop) }).unwrap_err();
    }

    /// The parent's `Reader::key`: the comma, then the decoded key.
    fn decoding_key(r: &mut Reader<'_>, name: &str) -> Result<(), ParseError> {
        if !std::mem::take(&mut r.first) {
            r.expect(b',')?;
        }
        r.skip_ws();
        r.decoded_key(name)
    }

    #[test]
    fn the_key_and_u64_fast_paths_accept_and_reject_what_the_decoding_paths_do() {
        // Each text is one object's tail after its first member's value:
        // the reader stands where a decoder asks for the next key.
        let keys = [
            "{\"scheme\":1",
            "{\"sch\\u0065me\":1",
            "{ \"scheme\" : 1",
            "{\"scheme\"",
            "{\"scheme",
            "{\"schemes\":1",
            "{\"schem\":1",
            "{\"policy\":1",
            "{\"\":1",
            "{",
            "{}",
        ];
        for text in keys {
            for first in [true, false] {
                // `first == false` reads the key after a comma.
                let text =
                    if first { text.to_string() } else { text.replacen('{', "{\"a\":0,", 1) };
                let mut fast = Reader::new(&text);
                let mut slow = Reader::new(&text);
                for r in [&mut fast, &mut slow] {
                    r.begin_object().unwrap();
                    if !first {
                        r.key("a").unwrap();
                        r.u64().unwrap();
                    }
                }
                let got = fast.key("scheme");
                assert_eq!(got, decoding_key(&mut slow, "scheme"), "{text}");
                assert_eq!(fast.pos, slow.pos, "{text}");
                if text.contains("\\u0065") {
                    assert!(got.is_ok(), "an escaped key decodes: {text}");
                }
            }
        }
        // Each text with the value both paths must read from it.
        let numbers = [
            ("0", Some(0)),
            ("0]", Some(0)),
            ("007", None),
            ("01", None),
            ("-0", None),
            (" 42 ", Some(42)),
            ("12,", Some(12)),
            ("12]", Some(12)),
            ("12-3", Some(12)),
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("99999999999999999999999", None),
            ("1.0", None),
            ("1.", None),
            ("1e3", None),
            ("1E3", None),
            ("-1", None),
            ("-", None),
            ("", None),
            ("x", None),
        ];
        for (text, want) in numbers {
            let mut fast = Reader::new(text);
            let mut slow = Reader::new(text);
            slow.skip_ws();
            let got = fast.u64();
            assert_eq!(got, slow.number_u64(), "{text:?}");
            assert_eq!(got.ok(), want, "{text:?}");
            if want.is_some() {
                assert_eq!(fast.pos, slow.pos, "{text:?}");
            }
        }
    }
}
