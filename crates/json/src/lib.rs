//! # nvmm-json
//!
//! A small, self-contained JSON representation used for the repo's
//! experiment artifacts (`target/experiments/*.json`) and the
//! benchmark's result lines.
//!
//! The crates-io registry is not reachable from the environments this
//! reproduction is built in, so instead of `serde`/`serde_json` the
//! workspace carries this substitute: a [`Json`] tree, a
//! recursive-descent parser ([`Json::parse`]), a compact and a pretty
//! printer, and the [`ToJson`] trait the artifact types implement.
//! Artifacts are write-only: nothing converts a parsed tree back into a
//! typed value.
//!
//! Integers are kept exact: the tree distinguishes [`Json::U64`],
//! [`Json::I64`] and [`Json::F64`], so a `u64` counter is written
//! bit-for-bit even above 2^53. Object member order is preserved
//! (members are a `Vec`, not a map), which keeps emitted artifacts
//! deterministic.
//!
//! # Examples
//!
//! ```
//! use nvmm_json::{Json, ToJson};
//!
//! let j = Json::parse(r#"{"runtime": 125, "label": "SCA"}"#).unwrap();
//! assert_eq!(j.get("runtime").and_then(Json::as_u64), Some(125));
//!
//! let v: Vec<u64> = vec![1, 2, 3];
//! assert_eq!(v.to_json().to_compact(), "[1,2,3]");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact.
    U64(u64),
    /// A negative integer, kept exact.
    I64(i64),
    /// A (finite) floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a member of an object by key; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// This value as a `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value's elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// This value's members, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation, one member/element per line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(elems) => {
                write_seq(out, indent, depth, '[', ']', elems.iter(), |out, e, d| {
                    e.write(out, indent, d)
                });
            }
            Json::Obj(members) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '{',
                    '}',
                    members.iter(),
                    |out, (k, v), d| {
                        write_escaped(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        v.write(out, indent, d);
                    },
                );
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] (with a byte offset) on malformed input,
    /// trailing garbage, or arrays and objects nested deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` on f64 is the shortest representation that round-trips.
        let s = v.to_string();
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Inf; artifacts never contain them, but a
        // printer must still emit *valid* JSON if one slips through.
        out.push_str("null");
    }
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
    }
    out.push(close);
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level, so without a bound a few
/// kilobytes of `[` would overflow the stack and abort the process;
/// every artifact this workspace writes nests at most six levels deep.
pub const MAX_DEPTH: usize = 128;

/// An error from [`Json::parse`], carrying the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object with `parse`, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut elems = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(elems));
        }
        loop {
            self.skip_ws();
            elems.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(elems));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
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
                    self.escape(&mut out)?;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err(&format!(
                        "raw control character U+{b:04X} in string (escape it)"
                    )))
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let b = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: a second \uXXXX must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 1;
                    self.expect(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                };
                out.push(c);
            }
            _ => return Err(self.err("unknown escape character")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Scans one number in RFC 8259's grammar,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`: a leading zero
    /// stands alone, and a point or an exponent mark needs a digit after.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let malformed = ParseError {
            offset: start,
            message: "malformed number".to_string(),
        };
        self.pos += usize::from(self.peek() == Some(b'-'));
        let int = self.digits();
        if int == 0 || (int > 1 && self.bytes[self.pos - int] == b'0') {
            return Err(malformed);
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(malformed);
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            if self.digits() == 0 {
                return Err(malformed);
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number span is ASCII by construction");
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| malformed)
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

/// Conversion of a typed value into a [`Json`] tree.
pub trait ToJson {
    /// Converts `self` into a JSON tree.
    fn to_json(&self) -> Json;
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
    )*};
}

impl_json_uint!(u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" 42 ").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("2.5").unwrap(), Json::F64(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".to_string()));
    }

    #[test]
    fn parse_nested() {
        let j = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[0], Json::U64(1));
        assert_eq!(
            j.get("a").unwrap().as_arr().unwrap()[1].get("b"),
            Some(&Json::Null)
        );
        assert_eq!(j.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for ok in ["0", "-0", "10", "0.5", "-0.5", "1e5", "1E+5", "2.5e-3"] {
            assert!(Json::parse(ok).is_ok(), "{ok}");
        }
        for bad in ["01", "00", "-01", "1.", "-.5", "1.e5", "1e", "1e+", "-"] {
            let err = Json::parse(bad).expect_err(bad);
            assert_eq!((err.offset, err.message.as_str()), (0, "malformed number"));
        }
        let err = Json::parse("[1, 01]").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (4, "malformed number"));
    }

    #[test]
    fn raw_control_characters_in_strings_are_named() {
        let err = Json::parse("\"a\tb\"").unwrap_err();
        assert_eq!(err.offset, 2);
        assert_eq!(
            err.message,
            "raw control character U+0009 in string (escape it)"
        );
        let err = Json::parse("{\"k\u{1}\": 1}").unwrap_err();
        assert!(err.message.contains("U+0001"), "{err}");
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        assert!(Json::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(r#"{"k":"#, "}", MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "the first bracket past the bound");
        assert!(Json::parse(&nest(r#"{"k":"#, "}", MAX_DEPTH + 1)).is_err());
        // Far past any stack: an error, not a stack-overflow abort.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&r#"{"k":"#.repeat(100_000)).is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line\none\ttab \"quoted\" back\\slash \u{1}";
        let j = Json::Str(original.to_string());
        assert_eq!(Json::parse(&j.to_compact()).unwrap(), j);
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(
            Json::parse(r#""A😀""#).unwrap().as_str(),
            Some("A\u{1f600}")
        );
    }

    #[test]
    fn large_u64_exact() {
        let v = u64::MAX - 1;
        let j = Json::U64(v);
        assert_eq!(Json::parse(&j.to_compact()).unwrap().as_u64(), Some(v));
    }

    #[test]
    fn compact_and_pretty_parse_back() {
        let j = Json::Obj(vec![
            (
                "xs".to_string(),
                Json::Arr(vec![Json::U64(1), Json::F64(0.5)]),
            ),
            ("flag".to_string(), Json::Bool(false)),
            ("name".to_string(), Json::Str("nvmm".to_string())),
            ("none".to_string(), Json::Null),
        ]);
        assert_eq!(Json::parse(&j.to_compact()).unwrap(), j);
        assert_eq!(Json::parse(&j.to_pretty()).unwrap(), j);
    }

    #[test]
    fn float_always_has_float_shape() {
        assert_eq!(Json::F64(2.0).to_compact(), "2.0");
        assert_eq!(Json::F64(0.25).to_compact(), "0.25");
    }

    #[test]
    fn member_order_preserved() {
        let j = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }
}
