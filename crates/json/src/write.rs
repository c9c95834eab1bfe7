//! The byte writer: JSON straight into a `Vec<u8>`.
//!
//! Numbers are written byte for byte as Rust's `f64` `Display` writes them:
//! the shortest digits that round-trip, so `text.parse::<f64>()` recovers
//! the exact bits that were written — the property the serving tests
//! golden-match on. Integral values below 2⁵³ in magnitude take an integer
//! fast path; every other finite value goes through the in-crate Ryū
//! (`ryu.rs`), laid out positionally like `Display`, with no exponent and
//! no `core::fmt`. Non-finite numbers are a hard error: JSON has no lexeme
//! for them, and the usual fallback (emitting `null`) silently breaks
//! round-tripping.

use crate::{JsonError, JsonSink, Key, ToJson, Value};

/// Where the next token goes relative to the ones already written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// First element of a container (or of the document).
    First,
    /// After an element: the next one needs a comma.
    Next,
    /// After an object key: the member's value follows directly.
    Value,
}

/// A [`JsonSink`] that appends compact (or indented) JSON text to a byte
/// buffer, with no intermediate [`Value`] tree.
///
/// Static keys ([`Key`]) are copied in one piece; strings are escaped by
/// copying runs of bytes that need no escape. Values written one after
/// another at the top level are comma-separated, so a writer can also emit
/// the elements of an array whose brackets are written elsewhere (the
/// streamed grid rows).
///
/// A NaN or infinite number is recorded and [`JsonWriter::finish`] fails
/// with [`JsonError::NonFinite`], truncating the buffer back to where the
/// writer started.
///
/// ```
/// use gf_json::{key, JsonSink, JsonWriter};
///
/// let mut out = Vec::new();
/// let mut writer = JsonWriter::new(&mut out);
/// writer.begin_object();
/// writer.key(key!("design_kg"));
/// writer.number(1250.0);
/// writer.key(key!("note"));
/// writer.string("say \"hi\"");
/// writer.end_object();
/// writer.finish()?;
/// assert_eq!(out, br#"{"design_kg":1250,"note":"say \"hi\""}"#);
/// # Ok::<(), gf_json::JsonError>(())
/// ```
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut Vec<u8>,
    start: usize,
    slot: Slot,
    depth: usize,
    pretty: bool,
    non_finite: bool,
}

impl<'a> JsonWriter<'a> {
    /// A compact writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> JsonWriter<'a> {
        JsonWriter {
            start: out.len(),
            out,
            slot: Slot::First,
            depth: 0,
            pretty: false,
            non_finite: false,
        }
    }

    /// A writer indenting by two spaces per level, with `": "` after keys.
    fn pretty(out: &'a mut Vec<u8>) -> JsonWriter<'a> {
        JsonWriter {
            pretty: true,
            ..JsonWriter::new(out)
        }
    }

    /// Ends the document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::NonFinite`] when a NaN or infinite number was
    /// written; the buffer is then truncated to its length at
    /// [`JsonWriter::new`].
    pub fn finish(self) -> Result<(), JsonError> {
        if self.non_finite {
            self.out.truncate(self.start);
            return Err(JsonError::NonFinite);
        }
        Ok(())
    }

    /// Writes the separator (and, when pretty, the line break and indent)
    /// that precedes an element or a key.
    fn prefix(&mut self) {
        match self.slot {
            Slot::Value => {}
            Slot::Next => {
                self.out.push(b',');
                self.newline();
            }
            Slot::First => {
                if self.depth > 0 {
                    self.newline();
                }
            }
        }
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            for _ in 0..self.depth {
                self.out.extend_from_slice(b"  ");
            }
        }
    }

    fn open(&mut self, bracket: u8) {
        self.prefix();
        self.out.push(bracket);
        self.depth += 1;
        self.slot = Slot::First;
    }

    fn close(&mut self, bracket: u8) {
        self.depth = self.depth.saturating_sub(1);
        if self.slot == Slot::Next {
            self.newline();
        }
        self.out.push(bracket);
        self.slot = Slot::Next;
    }

    fn scalar(&mut self, bytes: &[u8]) {
        self.prefix();
        self.out.extend_from_slice(bytes);
        self.slot = Slot::Next;
    }

    fn colon(&mut self) {
        if self.pretty {
            self.out.push(b' ');
        }
        self.slot = Slot::Value;
    }
}

impl JsonSink for JsonWriter<'_> {
    fn null(&mut self) {
        self.scalar(b"null");
    }

    fn bool(&mut self, value: bool) {
        self.scalar(if value { b"true" } else { b"false" });
    }

    fn number(&mut self, value: f64) {
        self.prefix();
        if !write_number(self.out, value) {
            self.non_finite = true;
        }
        self.slot = Slot::Next;
    }

    fn string(&mut self, value: &str) {
        self.prefix();
        write_string(self.out, value);
        self.slot = Slot::Next;
    }

    fn begin_object(&mut self) {
        self.open(b'{');
    }

    fn key(&mut self, key: Key) {
        self.prefix();
        self.out.extend_from_slice(key.quoted().as_bytes());
        self.colon();
    }

    fn key_str(&mut self, key: &str) {
        self.prefix();
        write_string(self.out, key);
        self.out.push(b':');
        self.colon();
    }

    fn end_object(&mut self) {
        self.close(b'}');
    }

    fn begin_array(&mut self) {
        self.open(b'[');
    }

    fn end_array(&mut self) {
        self.close(b']');
    }
}

/// Serializes `value`, compactly or with two-space indentation and a
/// trailing newline.
pub(crate) fn to_string(value: &Value, pretty: bool) -> Result<String, JsonError> {
    let mut out = Vec::new();
    let mut writer = if pretty {
        JsonWriter::pretty(&mut out)
    } else {
        JsonWriter::new(&mut out)
    };
    value.encode(&mut writer);
    writer.finish()?;
    if pretty {
        out.push(b'\n');
    }
    Ok(String::from_utf8(out).expect("the writer emits UTF-8: escaped &str input and ASCII"))
}

/// Integers up to this magnitude are exact in `f64`, so they print as
/// plain digits (2⁵³).
const EXACT_INTEGER: f64 = 9_007_199_254_740_992.0;

/// Appends the shortest round-trip form of `n` — the digits Rust's `f64`
/// `Display` prints — or returns `false` for NaN and ±∞, writing nothing.
fn write_number(out: &mut Vec<u8>, n: f64) -> bool {
    if n.fract() == 0.0 && n.abs() < EXACT_INTEGER {
        if n.is_sign_negative() {
            out.push(b'-');
        }
        let mut digits = [0u8; 17];
        let len = write_digits(&mut digits, n.abs() as u64);
        out.extend_from_slice(&digits[..len]);
    } else if n.is_finite() {
        crate::ryu::write_shortest(out, n);
    } else {
        return false;
    }
    true
}

/// `"00" "01" … "99"`: two decimal digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Writes the decimal digits of `n < 10^17` to the front of `buf` and
/// returns how many there are. The low eight digits are split off first
/// so that the remaining divisions are 32-bit and mostly independent.
pub(crate) fn write_digits(buf: &mut [u8; 17], n: u64) -> usize {
    let len = n.checked_ilog10().map_or(1, |log| log as usize + 1);
    let mut end = len;
    let mut put_pair = |end: usize, pair: u32| {
        let pair = pair as usize * 2;
        buf[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    };
    let mut rest = n;
    if rest >= 100_000_000 {
        let low = (rest % 100_000_000) as u32;
        rest /= 100_000_000;
        let (high4, low4) = (low / 10_000, low % 10_000);
        put_pair(end, low4 % 100);
        put_pair(end - 2, low4 / 100);
        put_pair(end - 4, high4 % 100);
        put_pair(end - 6, high4 / 100);
        end -= 8;
    }
    let mut rest = rest as u32;
    while rest >= 10_000 {
        let low4 = rest % 10_000;
        rest /= 10_000;
        put_pair(end, low4 % 100);
        put_pair(end - 2, low4 / 100);
        end -= 4;
    }
    if rest >= 100 {
        put_pair(end, rest % 100);
        rest /= 100;
        end -= 2;
    }
    if rest >= 10 {
        put_pair(end, rest);
    } else {
        buf[end - 1] = b'0' + rest as u8;
    }
    len
}

/// Appends `s` as a quoted JSON string. Runs of bytes that need no escape
/// (everything but `"`, `\` and U+0000–U+001F; non-ASCII passes through)
/// are copied in one piece.
fn write_string(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        let short: &[u8] = match byte {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            0x08 => b"\\b",
            0x0c => b"\\f",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => &[],
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        if short.is_empty() {
            out.extend_from_slice(b"\\u00");
            out.push(HEX[usize::from(byte >> 4)]);
            out.push(HEX[usize::from(byte & 0xf)]);
        } else {
            out.extend_from_slice(short);
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{array, object, parse};

    #[test]
    fn compact_output_matches_expectations() {
        let doc = object([
            ("a", Value::Number(1.0)),
            ("b", array([Value::Null, Value::Bool(false)])),
            ("c", Value::from("x\"y")),
        ]);
        assert_eq!(
            doc.to_json_string().unwrap(),
            r#"{"a":1,"b":[null,false],"c":"x\"y"}"#
        );
        assert_eq!(Value::Object(vec![]).to_json_string().unwrap(), "{}");
        assert_eq!(Value::Array(vec![]).to_json_string().unwrap(), "[]");
    }

    #[test]
    fn pretty_output_is_indented_and_parseable() {
        let doc = object([("k", array([1.0, 2.0])), ("m", array::<f64>([]))]);
        let pretty = doc.to_json_string_pretty().unwrap();
        assert_eq!(
            pretty,
            "{\n  \"k\": [\n    1,\n    2\n  ],\n  \"m\": []\n}\n"
        );
        assert_eq!(parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn strings_escape_controls_and_round_trip() {
        let original =
            Value::String("tab\t nl\n quote\" back\\ bell\u{7} nul\u{0} é→\u{1f600}".into());
        let text = original.to_json_string().unwrap();
        assert!(text.contains("\\u0007") && text.contains("\\u0000"));
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                Value::Number(bad).to_json_string().unwrap_err(),
                JsonError::NonFinite
            );
            assert_eq!(
                array([bad]).to_json_string_pretty().unwrap_err(),
                JsonError::NonFinite
            );
        }
        // A failed write leaves the buffer as it found it.
        let mut out = b"kept".to_vec();
        let mut writer = JsonWriter::new(&mut out);
        array([1.0, f64::NAN, 2.0]).encode(&mut writer);
        assert_eq!(writer.finish(), Err(JsonError::NonFinite));
        assert_eq!(out, b"kept");
    }

    #[test]
    fn numbers_round_trip_bit_for_bit() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            1e-9,
            1.000000001,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324, // smallest subnormal
            1234567890123456.7,
        ] {
            let text = Value::Number(n).to_json_string().unwrap();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), n.to_bits(), "{n} -> {text}");
        }
    }

    #[test]
    fn top_level_values_are_comma_separated() {
        let mut out = Vec::new();
        let mut writer = JsonWriter::new(&mut out);
        array([1.0]).encode(&mut writer);
        array([2.5, 3.0]).encode(&mut writer);
        writer.finish().unwrap();
        assert_eq!(out, b"[1],[2.5,3]");
    }
}
