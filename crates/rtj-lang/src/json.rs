//! A minimal, dependency-free JSON value: render and parse.
//!
//! The observability layers serialize trace events (JSONL), runtime
//! metrics snapshots (`rtj-metrics/v1`), and checker profiles
//! (`rtj-checker-metrics/v1`), and `rtjc report` reads snapshots back.
//! It lives in `rtj-lang` — the root of the crate graph — so both the
//! runtime (`rtj-runtime`) and the static checker (`rtj-types`) share
//! one implementation. The container has no crates.io access, so instead
//! of `serde` this module provides the small subset the repo needs:
//!
//! * [`Json`] — a JSON value whose objects preserve insertion order, so
//!   rendering is byte-deterministic (a requirement of the determinism
//!   tests in `tests/observability.rs`);
//! * [`Json::render`] — compact, stable rendering;
//! * [`Json::parse`] — a strict recursive-descent parser. Arrays and
//!   objects nest at most [`MAX_DEPTH`] levels; a deeper document is a
//!   [`JsonError`] at the bracket that crosses the limit, not a stack
//!   overflow;
//! * [`Json::expect_schema`] and the typed field lookups
//!   ([`Json::field`], [`Json::u64_field`], [`Json::field_as`], …) that
//!   every `rtj-*/v1` reader goes through: a missing or mistyped field
//!   is a [`JsonError`] that names the field and has no byte offset.
//!   [`Json::u64_field_or`] reads a counter older documents may lack:
//!   absent gives its default, mistyped is still an error;
//! * [`chrome`] — the Chrome `trace_event` records both trace exporters
//!   build.
//!
//! Numbers are kept as `i64` when they parse exactly as integers
//! (virtual-cycle counters) and as `f64` otherwise (overhead ratios), so
//! counter round-trips are loss-free.

use std::fmt;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// Every schema the repository writes nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number (renders without a decimal point).
    Int(i64),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// A failure to read a document: malformed JSON, or well-formed JSON
/// that lacks a field a schema requires or holds a value of the wrong
/// type there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of a syntax error in the input; `None` when the JSON
    /// parsed and a field lookup failed.
    pub at: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(at) => write!(f, "JSON error at byte {at}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from pairs (convenience for literals).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` counter, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether the value is `null` (used by sparse schema fields such as
    /// the session slot of `rtj-server-trace/v1` event triples).
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's key/value pairs.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The object field `key`, which a schema requires.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming `key` when the field is missing.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| field_error(format!("missing field `{key}`")))
    }

    /// The required field `key`, converted by `read`; `expected` says
    /// what `read` accepts, for the error.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming `key` when the field is missing or `read`
    /// rejects its value.
    pub fn field_as<'a, T>(
        &'a self,
        key: &str,
        expected: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, JsonError> {
        read(self.field(key)?)
            .ok_or_else(|| field_error(format!("field `{key}` is not {expected}")))
    }

    /// The required non-negative integer field `key`; errors as
    /// [`Json::field_as`].
    pub fn u64_field(&self, key: &str) -> Result<u64, JsonError> {
        self.field_as(key, "a non-negative integer", Json::as_u64)
    }

    /// The optional non-negative integer field `key`, `default` when the
    /// field is absent (older documents lack some counters).
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming `key` when the field is present but not a
    /// non-negative integer.
    pub fn u64_field_or(&self, key: &str, default: u64) -> Result<u64, JsonError> {
        match self.get(key) {
            None => Ok(default),
            Some(_) => self.u64_field(key),
        }
    }

    /// The required number field `key`; errors as [`Json::field_as`].
    pub fn f64_field(&self, key: &str) -> Result<f64, JsonError> {
        self.field_as(key, "a number", Json::as_f64)
    }

    /// The required string field `key`; errors as [`Json::field_as`].
    pub fn str_field(&self, key: &str) -> Result<&str, JsonError> {
        self.field_as(key, "a string", Json::as_str)
    }

    /// The required array field `key`; errors as [`Json::field_as`].
    pub fn arr_field(&self, key: &str) -> Result<&[Json], JsonError> {
        self.field_as(key, "an array", Json::as_arr)
    }

    /// The required object field `key`, as its key/value pairs; errors
    /// as [`Json::field_as`].
    pub fn obj_field(&self, key: &str) -> Result<&[(String, Json)], JsonError> {
        self.field_as(key, "an object", Json::as_obj)
    }

    /// Checks that the document's `schema` tag is `schema`.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] when the tag is missing, not a string, or names
    /// another schema.
    pub fn expect_schema(&self, schema: &str) -> Result<(), JsonError> {
        match self.str_field("schema")? {
            found if found == schema => Ok(()),
            found => Err(field_error(format!(
                "expected schema `{schema}`, found `{found}`"
            ))),
        }
    }

    /// Compact, deterministic rendering (object keys in insertion order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(x) => {
                // `f64::to_string` never emits exponents for the magnitudes
                // used here; integral floats get a `.0` so they re-parse as
                // floats.
                if x.fract() == 0.0 && x.is_finite() {
                    out.push_str(&format!("{x:.1}"));
                } else {
                    out.push_str(&x.to_string());
                }
            }
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input or trailing garbage.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let bytes = src.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after value"));
        }
        Ok(v)
    }
}

/// Chrome `trace_event` records, the form `chrome://tracing` and
/// Perfetto load. The checker's span tree and the server's scheduling
/// lanes both export through these; each exporter keeps its own lane
/// logic. Timestamps are microseconds, and every event is in process 0.
pub mod chrome {
    use super::Json;

    /// A complete (`"ph":"X"`) event: `dur` µs from `ts` on thread `tid`.
    pub fn complete(name: String, cat: &str, ts: u64, dur: u64, tid: u64) -> Json {
        Json::obj(vec![
            ("name", Json::Str(name)),
            ("cat", Json::Str(cat.into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Int(ts as i64)),
            ("dur", Json::Int(dur as i64)),
            ("pid", Json::Int(0)),
            ("tid", Json::Int(tid as i64)),
        ])
    }

    /// An instant (`"ph":"i"`) event at `ts` on thread `tid`, drawn on
    /// that thread only.
    pub fn instant(name: String, cat: &str, ts: u64, tid: u64) -> Json {
        Json::obj(vec![
            ("name", Json::Str(name)),
            ("cat", Json::Str(cat.into())),
            ("ph", Json::Str("i".into())),
            ("s", Json::Str("t".into())),
            ("ts", Json::Int(ts as i64)),
            ("pid", Json::Int(0)),
            ("tid", Json::Int(tid as i64)),
        ])
    }

    /// The metadata record that names thread `tid` in the viewer.
    pub fn thread_name(tid: u64, name: &str) -> Json {
        Json::obj(vec![
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Int(0)),
            ("tid", Json::Int(tid as i64)),
            ("args", Json::obj(vec![("name", Json::Str(name.into()))])),
        ])
    }

    /// The events as JSONL: one compact object per line.
    pub fn jsonl(events: &[Json]) -> String {
        let mut out = String::new();
        for e in events {
            e.render_into(&mut out);
            out.push('\n');
        }
        out
    }
}

/// Escapes a string for embedding in JSON (no surrounding quotes).
pub fn escape_into(s: &str, out: &mut String) {
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
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// A field lookup's failure: the JSON parsed, so there is no offset.
fn field_error(message: String) -> JsonError {
    JsonError { at: None, message }
}

fn err(at: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        at: Some(at),
        message: message.into(),
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{lit}`")))
    }
}

/// Parses the value at `pos`, inside `depth` enclosing arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")));
    }
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(err(*pos, format!("unexpected byte `{}`", *c as char))),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not produced by our renderer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one UTF-8 scalar.
                let s = &b[*pos..];
                let len = utf8_len(s[0]);
                let chunk = s
                    .get(..len)
                    .and_then(|c| std::str::from_utf8(c).ok())
                    .ok_or_else(|| err(*pos, "invalid UTF-8"))?;
                out.push_str(chunk);
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| err(start, "bad number"))?;
    if !is_float {
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| err(start, format!("bad number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_values() {
        let v = Json::obj(vec![
            ("a", Json::Int(42)),
            ("b", Json::Str("x\"y\n".into())),
            (
                "c",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Float(1.5)]),
            ),
            ("d", Json::Obj(vec![])),
        ]);
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(v, back);
        assert_eq!(back.render(), text, "render is stable");
    }

    #[test]
    fn integers_roundtrip_exactly() {
        let big = (1u64 << 62) as i64;
        let text = Json::Int(big).render();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(big as u64));
    }

    #[test]
    fn integral_floats_stay_floats() {
        let text = Json::Float(2.0).render();
        assert_eq!(text, "2.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::Float(2.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_limited() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        // The error points at the bracket that opens level 129.
        let e = Json::parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            (e.at, e.message.as_str()),
            (Some(128), "nesting deeper than 128 levels")
        );
        assert_eq!(
            Json::parse(&objects(MAX_DEPTH + 1)).unwrap_err().at,
            Some(5 * 128)
        );
        // Far past the limit is the same error, not a stack overflow.
        let e = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(e.at, Some(128));
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = Json::parse(r#"{"x": 3, "y": [1, 2], "s": "hi", "r": 1.25}"#).unwrap();
        assert_eq!(v.get("x").and_then(Json::as_u64), Some(3));
        assert_eq!(
            v.get("y").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(v.get("r").and_then(Json::as_f64), Some(1.25));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn field_lookups_name_the_field_without_an_offset() {
        let v = Json::parse(r#"{"schema": "a/v1", "x": 3, "s": "hi", "y": [1]}"#).unwrap();
        assert_eq!(v.u64_field("x"), Ok(3));
        assert_eq!(v.str_field("s"), Ok("hi"));
        assert_eq!(v.arr_field("y").map(<[Json]>::len), Ok(1));
        assert_eq!(v.expect_schema("a/v1"), Ok(()));
        let message = |e: JsonError| {
            assert_eq!(e.at, None);
            e.to_string()
        };
        assert_eq!(message(v.u64_field("z").unwrap_err()), "missing field `z`");
        assert_eq!(
            message(v.u64_field("s").unwrap_err()),
            "field `s` is not a non-negative integer"
        );
        assert_eq!(
            message(v.obj_field("y").unwrap_err()),
            "field `y` is not an object"
        );
        assert_eq!(v.u64_field_or("x", 9), Ok(3));
        assert_eq!(v.u64_field_or("z", 9), Ok(9));
        assert_eq!(
            message(v.u64_field_or("s", 9).unwrap_err()),
            "field `s` is not a non-negative integer"
        );
        assert_eq!(
            message(v.expect_schema("b/v1").unwrap_err()),
            "expected schema `b/v1`, found `a/v1`"
        );
    }
}
