//! # gf-json
//!
//! A small, real JSON subsystem for the offline GreenFPGA workspace: a
//! [`Value`] tree, a recursive-descent parser with depth and size limits
//! ([`parse`], [`parse_with`]), and a byte writer ([`JsonWriter`]) whose
//! `f64` rendering round-trips bit-for-bit.
//!
//! The workspace has no registry dependencies, so every machine-readable
//! artifact — bench metrics, the `bench_gate` baseline, and the
//! `greenfpga-serve` HTTP API — goes through this crate instead of
//! hand-concatenated strings.
//!
//! Design constraints, in order:
//!
//! 1. **Round-tripping**: `parse(v.to_json_string()) == v` for every value
//!    this crate can produce. Numbers are written as the shortest digits
//!    that round-trip, byte-identical to Rust's `f64` `Display`, by an
//!    integer fast path and an in-crate Ryū (Adams, PLDI 2018) rather than
//!    through `core::fmt`. A parsed response compares *bit-identical* to
//!    the `f64` the producer serialized — the property the serving
//!    integration tests golden-match on. `tests/writer_oracle.rs` checks
//!    the writer against `Display` and against `str::parse::<f64>`.
//! 2. **Bounded input**: the parser enforces a nesting-depth limit and an
//!    input-size limit so a hostile request body cannot blow the stack or
//!    memory of a long-lived server.
//! 3. **Strict JSON**: no NaN/Infinity literals, no trailing commas, no
//!    comments, no unquoted keys. Numbers that overflow `f64` are rejected
//!    rather than silently becoming infinite.
//!
//! ## One encoder, two outputs
//!
//! A type encodes by walking itself once into a [`JsonSink`]
//! ([`ToJson::encode`]). There are two sinks: [`JsonWriter`] appends bytes
//! to a reused `Vec<u8>` (the serving path, [`ToJson::write_json`]), and a
//! private builder assembles a [`Value`] ([`ToJson::to_json`]). The same
//! walk drives both, so the two outputs cannot disagree, and
//! [`Value::to_json_string`] is itself the [`Value`] walk into a
//! [`JsonWriter`]: number and string formatting live in one place.
//!
//! ## Example
//!
//! ```
//! use gf_json::{parse, ToJson, Value};
//!
//! let value = parse(r#"{"domain": "dnn", "points": [1, 2.5e0]}"#)?;
//! assert_eq!(value.get("domain").and_then(Value::as_str), Some("dnn"));
//! let back = parse(&value.to_json_string()?)?;
//! assert_eq!(back, value);
//! let mut bytes = Vec::new();
//! value.write_json(&mut bytes)?;
//! assert_eq!(bytes, value.to_json_string()?.as_bytes());
//! # Ok::<(), gf_json::JsonError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parse;
mod ryu;
mod write;

use std::fmt;

pub use parse::{parse, parse_with, ParseLimits};
pub use write::JsonWriter;

/// A JSON document: the result of parsing, and the input to writing.
///
/// Objects preserve insertion order (they are association lists, not hash
/// maps): serialized output is deterministic, and round-trips reproduce the
/// source layout. Duplicate keys are allowed by the parser — [`Value::get`]
/// returns the **last** occurrence, matching the common
/// last-value-wins convention.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. The writer rejects non-finite contents.
    Number(f64),
    /// A string.
    String(String),
    /// `[ ... ]`.
    Array(Vec<Value>),
    /// `{ ... }` as an insertion-ordered association list.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member of an object by key (last occurrence wins), or `None` for
    /// a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The element of an array by index, or `None` for a non-array or an
    /// out-of-range index.
    pub fn index(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(i),
            _ => None,
        }
    }

    /// The boolean content, or `None` for other variants.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric content, or `None` for other variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric content as an exact unsigned integer: `None` unless the
    /// number is integral, non-negative and at most 2⁵³ (beyond which `f64`
    /// cannot represent every integer and a silent rounding would corrupt
    /// counts).
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= MAX_EXACT => Some(*n as u64),
            _ => None,
        }
    }

    /// Decodes the object member `key` through [`FromJson::from_member`]:
    /// an absent member is a "missing required field" error unless the
    /// type gives absence a meaning (`Option<T>` reads it as `None`).
    /// Schema errors report the member's path ([`JsonError::at_member`]).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Schema`] when the member is missing or does not
    /// decode.
    pub fn member<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        T::from_member(self.get(key)).map_err(|e| e.at_member(key))
    }

    /// The string content, or `None` for other variants.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The array items, or `None` for other variants.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object members in insertion order, or `None` for other variants.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serializes compactly (no interstitial whitespace).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::NonFinite`] when any contained number is NaN or
    /// infinite — JSON has no lexeme for them, and emitting `null` instead
    /// would silently break round-tripping.
    pub fn to_json_string(&self) -> Result<String, JsonError> {
        write::to_string(self, false)
    }

    /// Serializes with two-space indentation, for human-facing artifacts
    /// like the committed `BENCH_eval.json` baseline.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Value::to_json_string`].
    pub fn to_json_string_pretty(&self) -> Result<String, JsonError> {
        write::to_string(self, true)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Number(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Array(items)
    }
}

/// Builds a [`Value::Object`] from `(key, value)` pairs — the ergonomic
/// constructor the response builders use.
pub fn object<K: Into<String>, V: Into<Value>>(members: impl IntoIterator<Item = (K, V)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect(),
    )
}

/// Builds a [`Value::Array`] from anything convertible to values.
pub fn array<V: Into<Value>>(items: impl IntoIterator<Item = V>) -> Value {
    Value::Array(items.into_iter().map(Into::into).collect())
}

/// Errors raised while parsing, writing, or decoding JSON.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JsonError {
    /// The input violated the JSON grammar.
    Syntax {
        /// Byte offset of the offending input.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// Nesting exceeded the configured depth limit.
    DepthLimit {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The input exceeded the configured size limit.
    SizeLimit {
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// A number was NaN or infinite (on write), or overflowed `f64` (on
    /// parse).
    NonFinite,
    /// A well-formed document did not match the expected schema
    /// (`from_json` decoding).
    Schema {
        /// Which field or element was wrong.
        at: String,
        /// What was expected.
        message: String,
    },
}

impl JsonError {
    /// Constructs a [`JsonError::Schema`] error — the helper every
    /// `FromJson` impl leans on.
    pub fn schema(at: impl Into<String>, message: impl Into<String>) -> JsonError {
        JsonError::Schema {
            at: at.into(),
            message: message.into(),
        }
    }

    /// Re-roots a schema error raised while decoding the object member
    /// `key`, so `"lifetime_years"` inside `"point"` reports as
    /// `point.lifetime_years`. An error with no path of its own (empty, a
    /// primitive decoder's `number`/`string`/`bool`/`array`, or the key
    /// itself) reports at `key`. Other errors pass through unchanged.
    pub fn at_member(self, key: &str) -> JsonError {
        match self {
            JsonError::Schema { at, message } => JsonError::Schema {
                at: if at.is_empty()
                    || at == key
                    || matches!(at.as_str(), "number" | "string" | "bool" | "array")
                {
                    key.to_string()
                } else {
                    format!("{key}.{at}")
                },
                message,
            },
            other => other,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            JsonError::DepthLimit { limit } => {
                write!(f, "JSON nesting exceeds the depth limit of {limit}")
            }
            JsonError::SizeLimit { limit } => {
                write!(f, "JSON input exceeds the size limit of {limit} bytes")
            }
            JsonError::NonFinite => f.write_str("JSON cannot represent NaN or infinite numbers"),
            JsonError::Schema { at, message } => {
                write!(f, "JSON schema error at {at}: {message}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

/// Receives one JSON document as a stream of tokens: the target of every
/// encoder's walk ([`ToJson::encode`]). [`JsonWriter`] writes the tokens as
/// bytes; the builder behind [`ToJson::to_json`] assembles a [`Value`].
///
/// A walk is well-formed JSON: every `begin_*` has its `end_*`, and inside
/// an object each value follows a key.
pub trait JsonSink {
    /// `null`.
    fn null(&mut self);
    /// `true` or `false`.
    fn bool(&mut self, value: bool);
    /// A number. NaN and ±∞ have no JSON lexeme: the byte writer fails
    /// with [`JsonError::NonFinite`] at [`JsonWriter::finish`].
    fn number(&mut self, value: f64);
    /// A string, escaped as needed.
    fn string(&mut self, value: &str);
    /// Opens an object.
    fn begin_object(&mut self);
    /// An object key known at compile time (see [`key!`]).
    fn key(&mut self, key: Key);
    /// An object key known only at run time, escaped as needed.
    fn key_str(&mut self, key: &str);
    /// Closes the innermost object.
    fn end_object(&mut self);
    /// Opens an array.
    fn begin_array(&mut self);
    /// Closes the innermost array.
    fn end_array(&mut self);

    /// An object member: `key`, then `value`'s walk.
    fn member<T: ToJson + ?Sized>(&mut self, key: Key, value: &T)
    where
        Self: Sized,
    {
        self.key(key);
        value.encode(self);
    }
}

/// An object key known when the program is compiled, stored ready to copy:
/// quoted and followed by its colon (`"design_kg":`). Build one with
/// [`key!`], which checks at compile time that the name needs no escaping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key(&'static str);

impl Key {
    /// Wraps a quoted key with its colon, e.g. `"\"design_kg\":"`.
    ///
    /// # Panics
    ///
    /// Panics (at compile time when called from [`key!`]) unless `quoted`
    /// is a `"`-quoted name followed by `:` whose name holds no `"`, `\`
    /// or control character.
    pub const fn new(quoted: &'static str) -> Key {
        let bytes = quoted.as_bytes();
        let len = bytes.len();
        assert!(
            len >= 3 && bytes[0] == b'"' && bytes[len - 2] == b'"' && bytes[len - 1] == b':',
            "a key is a quoted name followed by a colon"
        );
        let mut i = 1;
        while i < len - 2 {
            assert!(
                bytes[i] >= 0x20 && bytes[i] != b'"' && bytes[i] != b'\\',
                "a static key must need no escaping"
            );
            i += 1;
        }
        Key(quoted)
    }

    /// The key's name, without quotes or colon.
    fn name(self) -> &'static str {
        &self.0[1..self.0.len() - 2]
    }

    /// The bytes the writer copies: `"name":`.
    fn quoted(self) -> &'static str {
        self.0
    }
}

/// A [`Key`] from a string literal, checked and quoted at compile time:
/// `key!("design_kg")` is the key written as `"design_kg":`.
#[macro_export]
macro_rules! key {
    ($name:literal) => {
        const { $crate::Key::new(concat!("\"", $name, "\":")) }
    };
}

/// Serialization to JSON: one walk ([`ToJson::encode`]) from which both the
/// [`Value`] form and the byte form derive.
pub trait ToJson {
    /// Walks `self` into `sink`, token by token.
    fn encode<S: JsonSink>(&self, sink: &mut S);

    /// Renders `self` as a JSON value.
    fn to_json(&self) -> Value {
        let mut builder = ValueBuilder::default();
        self.encode(&mut builder);
        builder.finish()
    }

    /// Appends the compact JSON bytes of `self` to `out` — the same bytes
    /// as `self.to_json().to_json_string()`, without the [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::NonFinite`] for a NaN or infinite number; `out`
    /// is then left as it was.
    fn write_json(&self, out: &mut Vec<u8>) -> Result<(), JsonError> {
        let mut writer = JsonWriter::new(out);
        self.encode(&mut writer);
        writer.finish()
    }
}

/// A type encoded as a JSON object whose members can also be written on
/// their own, spliced into an enclosing object (flattened request members,
/// the query envelope, an error body with a request id appended).
pub trait ToJsonMembers {
    /// Walks the object's members (keys and values, no braces) into `sink`.
    fn encode_members<S: JsonSink>(&self, sink: &mut S);
}

/// Deserialization from a JSON [`Value`].
pub trait FromJson: Sized {
    /// Decodes `self` from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Schema`] when the value does not match.
    fn from_json(value: &Value) -> Result<Self, JsonError>;

    /// Decodes an object member that may be absent (`None`). Absence is a
    /// "missing required field" error by default; `Option<T>` overrides it
    /// to decode as `None`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Schema`] when the member is absent or does not
    /// match.
    fn from_member(member: Option<&Value>) -> Result<Self, JsonError> {
        match member {
            Some(value) => Self::from_json(value),
            None => Err(JsonError::schema("", "missing required field")),
        }
    }
}

/// Assembles a [`Value`] from a sink walk: the `to_json` half of every
/// encoder.
#[derive(Default)]
struct ValueBuilder {
    /// Open containers, innermost last; an object holds its pending key.
    open: Vec<(Value, String)>,
    root: Option<Value>,
}

impl ValueBuilder {
    fn push(&mut self, value: Value) {
        match self.open.last_mut() {
            Some((Value::Array(items), _)) => items.push(value),
            Some((Value::Object(members), key)) => members.push((std::mem::take(key), value)),
            _ => self.root = Some(value),
        }
    }

    fn close(&mut self) {
        if let Some((container, _)) = self.open.pop() {
            self.push(container);
        }
    }

    fn finish(self) -> Value {
        self.root.unwrap_or(Value::Null)
    }
}

impl JsonSink for ValueBuilder {
    fn null(&mut self) {
        self.push(Value::Null);
    }

    fn bool(&mut self, value: bool) {
        self.push(Value::Bool(value));
    }

    fn number(&mut self, value: f64) {
        self.push(Value::Number(value));
    }

    fn string(&mut self, value: &str) {
        self.push(Value::String(value.to_string()));
    }

    fn begin_object(&mut self) {
        self.open.push((Value::Object(Vec::new()), String::new()));
    }

    fn key(&mut self, key: Key) {
        self.key_str(key.name());
    }

    fn key_str(&mut self, key: &str) {
        if let Some((_, pending)) = self.open.last_mut() {
            key.clone_into(pending);
        }
    }

    fn end_object(&mut self) {
        self.close();
    }

    fn begin_array(&mut self) {
        self.open.push((Value::Array(Vec::new()), String::new()));
    }

    fn end_array(&mut self) {
        self.close();
    }
}

impl ToJson for Value {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        match self {
            Value::Null => sink.null(),
            Value::Bool(b) => sink.bool(*b),
            Value::Number(n) => sink.number(*n),
            Value::String(s) => sink.string(s),
            Value::Array(items) => {
                sink.begin_array();
                for item in items {
                    item.encode(sink);
                }
                sink.end_array();
            }
            Value::Object(members) => {
                sink.begin_object();
                for (key, member) in members {
                    sink.key_str(key);
                    member.encode(sink);
                }
                sink.end_object();
            }
        }
    }

    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for f64 {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.number(*self);
    }
}

impl FromJson for f64 {
    fn from_json(value: &Value) -> Result<f64, JsonError> {
        value
            .as_f64()
            .ok_or_else(|| JsonError::schema("number", "expected a number"))
    }
}

impl ToJson for u64 {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.number(*self as f64);
    }
}

impl FromJson for u64 {
    fn from_json(value: &Value) -> Result<u64, JsonError> {
        value
            .as_u64()
            .ok_or_else(|| JsonError::schema("number", "expected a non-negative integer ≤ 2^53"))
    }
}

impl ToJson for usize {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.number(*self as f64);
    }
}

impl FromJson for usize {
    fn from_json(value: &Value) -> Result<usize, JsonError> {
        u64::from_json(value).and_then(|n| {
            usize::try_from(n).map_err(|_| JsonError::schema("number", "integer out of range"))
        })
    }
}

impl ToJson for bool {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.bool(*self);
    }
}

impl FromJson for bool {
    fn from_json(value: &Value) -> Result<bool, JsonError> {
        value
            .as_bool()
            .ok_or_else(|| JsonError::schema("bool", "expected true or false"))
    }
}

impl ToJson for str {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.string(self);
    }
}

impl ToJson for String {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.string(self);
    }
}

impl FromJson for String {
    fn from_json(value: &Value) -> Result<String, JsonError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::schema("string", "expected a string"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.begin_array();
        for item in self {
            item.encode(sink);
        }
        sink.end_array();
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Vec<T>, JsonError> {
        value
            .as_array()
            .ok_or_else(|| JsonError::schema("array", "expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// `None` encodes as `null`; a record that leaves the member out when it
/// is `None` decides that itself.
impl<T: ToJson> ToJson for Option<T> {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        match self {
            Some(value) => value.encode(sink),
            None => sink.null(),
        }
    }
}

/// `null` — or, as an object member, absence — decodes as `None`.
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Option<T>, JsonError> {
        match value {
            Value::Null => Ok(None),
            value => T::from_json(value).map(Some),
        }
    }

    fn from_member(member: Option<&Value>) -> Result<Option<T>, JsonError> {
        member.map_or(Ok(None), Option::<T>::from_json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        let doc = object([
            ("flag", Value::Bool(true)),
            ("n", Value::Number(2.5)),
            ("s", Value::from("hi")),
            ("list", array([1.0, 2.0])),
            ("nothing", Value::Null),
        ]);
        assert_eq!(doc.get("flag").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("n").and_then(Value::as_f64), Some(2.5));
        assert_eq!(doc.get("s").and_then(Value::as_str), Some("hi"));
        assert_eq!(
            doc.get("list")
                .and_then(|v| v.index(1))
                .and_then(Value::as_f64),
            Some(2.0)
        );
        assert!(doc.get("nothing").is_some_and(Value::is_null));
        assert!(doc.get("missing").is_none());
        assert!(Value::Null.get("x").is_none());
        assert!(Value::Null.index(0).is_none());
        assert_eq!(doc.as_object().map(<[_]>::len), Some(5));
    }

    #[test]
    fn duplicate_keys_resolve_to_the_last() {
        let doc = object([("k", 1.0), ("k", 2.0)]);
        assert_eq!(doc.get("k").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn u64_conversion_is_exact_or_nothing() {
        assert_eq!(Value::Number(5.0).as_u64(), Some(5));
        assert_eq!(Value::Number(0.0).as_u64(), Some(0));
        assert_eq!(Value::Number(2.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
        assert_eq!(
            Value::Number(9.007_199_254_740_992e15).as_u64(),
            Some(1 << 53)
        );
        assert_eq!(Value::Number(1e16).as_u64(), None);
        assert_eq!(Value::Bool(true).as_u64(), None);
    }

    #[test]
    fn trait_round_trips_for_primitives() {
        assert_eq!(f64::from_json(&2.5f64.to_json()).unwrap(), 2.5);
        assert_eq!(u64::from_json(&7u64.to_json()).unwrap(), 7);
        assert!(bool::from_json(&true.to_json()).unwrap());
        assert_eq!(String::from_json(&"x".to_string().to_json()).unwrap(), "x");
        let v: Vec<f64> = vec![1.0, 2.0];
        assert_eq!(Vec::<f64>::from_json(&v.to_json()).unwrap(), v);
        assert!(f64::from_json(&Value::Null).is_err());
        assert!(u64::from_json(&Value::Number(0.5)).is_err());
        assert!(Vec::<f64>::from_json(&Value::Bool(true)).is_err());
    }

    #[test]
    fn option_members_decode_absent_and_null_as_none() {
        let doc = parse(r#"{"id": null, "n": 4, "s": "x"}"#).unwrap();
        assert_eq!(doc.member::<Option<String>>("missing").unwrap(), None);
        assert_eq!(doc.member::<Option<String>>("id").unwrap(), None);
        assert_eq!(doc.member::<Option<u64>>("n").unwrap(), Some(4));
        assert_eq!(Option::<f64>::from_json(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<f64>::from_json(&Value::Number(1.5)).unwrap(),
            Some(1.5)
        );
        // A required member stays required; an optional one of the wrong
        // type is a schema error at the member's key.
        assert_eq!(
            doc.member::<String>("missing").unwrap_err(),
            JsonError::schema("missing", "missing required field")
        );
        assert_eq!(
            doc.member::<Option<u64>>("s").unwrap_err(),
            JsonError::schema("s", "expected a non-negative integer ≤ 2^53")
        );
        assert_eq!(
            doc.member::<Option<bool>>("n").unwrap_err(),
            JsonError::schema("n", "expected true or false")
        );
    }

    #[test]
    fn option_encodes_none_as_null() {
        assert_eq!(None::<f64>.to_json(), Value::Null);
        assert_eq!(Some("x".to_string()).to_json(), Value::from("x"));
        let members = object([("id", None::<String>.to_json())]);
        assert_eq!(members.to_json_string().unwrap(), r#"{"id":null}"#);
    }

    #[test]
    fn member_errors_nest_under_the_key() {
        let nested = JsonError::schema("volume", "expected an integer").at_member("point");
        assert_eq!(
            nested,
            JsonError::schema("point.volume", "expected an integer")
        );
        for leaf in ["", "number", "string", "bool", "array", "point"] {
            assert_eq!(
                JsonError::schema(leaf, "m").at_member("point"),
                JsonError::schema("point", "m")
            );
        }
        assert_eq!(
            JsonError::NonFinite.at_member("point"),
            JsonError::NonFinite
        );
        assert_eq!(usize::from_json(&Value::Number(24.0)).unwrap(), 24);
        assert_eq!(24usize.to_json(), Value::Number(24.0));
        assert!(usize::from_json(&Value::Number(-1.0)).is_err());
    }

    #[test]
    fn static_keys_carry_quotes_and_colon() {
        let key = key!("design_kg");
        assert_eq!(key.quoted(), "\"design_kg\":");
        assert_eq!(key.name(), "design_kg");
        assert_eq!(key!("").name(), "");
    }

    #[test]
    #[should_panic(expected = "a static key must need no escaping")]
    fn static_keys_that_need_escaping_are_refused() {
        let _ = Key::new("\"say \\\"hi\\\"\":");
    }

    #[test]
    fn error_display_names_the_problem() {
        assert!(JsonError::schema("point.volume", "expected an integer")
            .to_string()
            .contains("point.volume"));
        assert!(JsonError::DepthLimit { limit: 4 }.to_string().contains('4'));
        assert!(JsonError::SizeLimit { limit: 9 }.to_string().contains('9'));
        assert!(JsonError::NonFinite.to_string().contains("NaN"));
        assert!(JsonError::Syntax {
            offset: 3,
            message: "bad".into()
        }
        .to_string()
        .contains("byte 3"));
    }
}
