//! The byte writer checked against independent oracles.
//!
//! Numbers are compared with `format!("{}", x)` — the standard library's
//! shortest round-trip `f64` `Display`, not the code under test — on edge
//! values, on integers around the 2⁵³ fast-path bound, and on a million
//! seeded bit patterns. The sweeps below add every power of ten with its
//! neighbours, every power of two, the subnormals, the integers just above
//! 2⁵³ and exact rounding ties, and check each against a second oracle as
//! well: `str::parse::<f64>` must recover the written bits. Strings are
//! compared with a char-by-char reference escaper that states the escaping
//! rules on its own.

use gf_json::{JsonError, JsonSink, JsonWriter, ToJson, Value};
use gf_support::SplitMix64;

/// Seeded finite bit patterns checked against `Display`.
const RANDOM_PATTERNS: usize = 1_000_000;

/// The writer's bytes for one number.
fn written(out: &mut Vec<u8>, x: f64) -> &str {
    out.clear();
    let mut writer = JsonWriter::new(out);
    writer.number(x);
    writer.finish().expect("finite numbers write");
    std::str::from_utf8(out).expect("numbers are ASCII")
}

#[test]
fn numbers_match_std_display_on_edge_values() {
    const TWO_53: f64 = 9_007_199_254_740_992.0;
    let mut out = Vec::new();
    let mut edges = vec![
        0.0,
        1.0,
        TWO_53 - 1.0,
        TWO_53,
        TWO_53 + 2.0,
        1e15,
        1e16,
        1e21,
        1e-7,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        0.5,
        123_456.789,
        4_503_599_627_370_495.5, // 2^52 - 0.5: from 2^52 up, every f64 is an integer
    ];
    edges.extend(edges.clone().into_iter().map(|x| -x));
    for x in edges {
        assert_eq!(written(&mut out, x), format!("{x}"), "{x:e}");
    }
    assert_eq!(written(&mut out, -0.0), "-0");
}

#[test]
fn numbers_match_std_display_on_seeded_bit_patterns() {
    let mut rng = SplitMix64::new(0x0BAC_1E57_0000_F64D);
    let mut out = Vec::new();
    let mut checked = 0;
    while checked < RANDOM_PATTERNS {
        let x = f64::from_bits(rng.next_u64());
        if !x.is_finite() {
            continue;
        }
        assert_eq!(
            written(&mut out, x),
            format!("{x}"),
            "bits {:#018x}",
            x.to_bits()
        );
        checked += 1;
    }
    // Random bit patterns are almost never integral; cover the integer
    // fast path and its bound separately.
    for _ in 0..100_000 {
        let magnitude = rng.gen_range_u64(0, 1 << 54) as f64;
        let x = if rng.gen_bool() {
            -magnitude
        } else {
            magnitude
        };
        assert_eq!(written(&mut out, x), format!("{x}"), "{x}");
    }
}

/// Checks `x` and `-x` against `Display` and against parsing the written
/// text back.
fn check_both_oracles(out: &mut Vec<u8>, x: f64) {
    for x in [x, -x] {
        let text = written(out, x);
        assert_eq!(text, format!("{x}"), "bits {:#018x}", x.to_bits());
        let back: f64 = text.parse().expect("written numbers parse");
        assert_eq!(back.to_bits(), x.to_bits(), "{text} parsed back");
    }
}

#[test]
fn powers_of_ten_and_their_neighbours_match_both_oracles() {
    let mut out = Vec::new();
    for k in -323..=308 {
        let power: f64 = format!("1e{k}").parse().unwrap();
        for x in [power.next_down(), power, power.next_up()] {
            check_both_oracles(&mut out, x);
        }
    }
}

#[test]
fn powers_of_two_match_both_oracles() {
    let mut out = Vec::new();
    // Subnormal 2^-1074 … 2^-1023, then normal 2^-1022 … 2^1023.
    for bit in 0..52 {
        check_both_oracles(&mut out, f64::from_bits(1 << bit));
    }
    for biased in 1..=2046u64 {
        check_both_oracles(&mut out, f64::from_bits(biased << 52));
    }
}

#[test]
fn subnormals_match_both_oracles() {
    const SUBNORMALS: u64 = 1 << 52;
    let mut out = Vec::new();
    for mantissa in (1..4096).chain(SUBNORMALS - 4096..SUBNORMALS) {
        check_both_oracles(&mut out, f64::from_bits(mantissa));
    }
    // A strided sweep with an odd stride, so every digit pattern of the
    // mantissa's low bits comes up.
    let stride = (SUBNORMALS / 200_000) | 1;
    for mantissa in (1..SUBNORMALS).step_by(stride as usize) {
        check_both_oracles(&mut out, f64::from_bits(mantissa));
    }
}

#[test]
fn integers_above_two_to_the_53_match_both_oracles() {
    const TWO_53: f64 = 9_007_199_254_740_992.0;
    let mut out = Vec::new();
    // The first integers past the fast path, every one representable.
    let mut x = TWO_53;
    for _ in 0..10_000 {
        check_both_oracles(&mut out, x);
        x = x.next_up();
    }
    // Around each power of ten from 10^16 on, where the trailing zeros
    // are padding and the shortest digits end early.
    for k in 16..=308 {
        let power: f64 = format!("1e{k}").parse().unwrap();
        let (mut up, mut down) = (power, power);
        for _ in 0..64 {
            check_both_oracles(&mut out, up);
            check_both_oracles(&mut out, down);
            up = up.next_up();
            down = down.next_down();
        }
    }
}

#[test]
fn exact_rounding_ties_match_both_oracles() {
    // Between 2^47 and 2^52 a double has one to five fractional bits, so
    // its exact value can sit halfway between the two shortest candidates
    // (1023697023567767.25 prints as …767.3). `Display` rounds such a tie
    // up, away from zero.
    let mut rng = SplitMix64::new(0x71E5_F64D);
    let mut out = Vec::new();
    for _ in 0..200_000 {
        let exponent = 47 + rng.gen_range_u64(0, 4);
        let mantissa = rng.next_u64() & ((1 << 52) - 1);
        check_both_oracles(&mut out, f64::from_bits((1023 + exponent) << 52 | mantissa));
    }
}

#[test]
fn non_finite_numbers_fail_the_write() {
    for bad in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut out = Vec::new();
        let mut writer = JsonWriter::new(&mut out);
        writer.number(bad);
        assert_eq!(writer.finish(), Err(JsonError::NonFinite), "{bad}");
        assert!(out.is_empty());
        assert_eq!(bad.write_json(&mut out), Err(JsonError::NonFinite));
    }
}

/// The escaping rules, one char at a time: `"` and `\` get a backslash,
/// the five C escapes have their short forms, every other char below
/// U+0020 is `\u00xx` in lowercase hex, and everything else (non-ASCII
/// included) is copied.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000c}' => out.push_str("\\f"),
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

fn written_string(s: &str) -> String {
    let mut out = Vec::new();
    let mut writer = JsonWriter::new(&mut out);
    writer.string(s);
    writer.finish().expect("strings always write");
    String::from_utf8(out).expect("escaped output is UTF-8")
}

#[test]
fn strings_escape_like_the_reference_rules() {
    let mut cases: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
    cases.extend(
        [
            "",
            "\"",
            "\\",
            "plain ascii",
            "\u{7f} del stays",
            "é→ü ∑ 日本語 \u{1f600}",
            "run \"quoted\" then \\ and\ttab\u{1}\u{1f} end",
            "\u{0}\u{0}",
            "trailing\n",
        ]
        .map(str::to_string),
    );
    let every_control: String = (0u8..0x20).map(char::from).collect();
    cases.push(format!("a{every_control}\"\\é{every_control}z"));
    for case in &cases {
        assert_eq!(written_string(case), reference_escape(case), "{case:?}");
    }
    // Keys known only at run time escape the same way.
    for case in &cases {
        let value = Value::Object(vec![(case.clone(), Value::Null)]);
        let expected = format!("{{{}:null}}", reference_escape(case));
        assert_eq!(value.to_json_string().unwrap(), expected, "{case:?}");
    }
}
