//! Typed wire format of the estimation service.
//!
//! This module is the single place where model types meet JSON: the
//! [`gf_json::ToJson`] / [`gf_json::FromJson`] impls for the core result
//! types, and the typed request/response structs `greenfpga-serve` exposes
//! over HTTP. Putting them in the core crate (rather than the server) means
//! every consumer — the server, the CLI's `--json` output, the load
//! generator and the integration tests — shares one schema, so a response a
//! test decodes is *structurally guaranteed* to match what the server
//! encoded.
//!
//! Numbers are serialized with round-tripping `f64` formatting (see
//! [`gf_json`]), so decoding a response reconstructs carbon breakdowns
//! **bit-identical** to the values the engine produced.
//!
//! ## Request schema
//!
//! Every request names a scenario — a domain plus optional knob overrides
//! (Table 1 knobs, keyed by [`Knob::id`]) — and the workload operating
//! point(s):
//!
//! ```json
//! {
//!   "domain": "dnn",
//!   "knobs": {"duty_cycle": 0.3, "usage_grid_intensity": 450.0},
//!   "point": {"applications": 5, "lifetime_years": 2.0, "volume": 1000000}
//! }
//! ```
//!
//! ## One declaration per wire type
//!
//! Each record is declared once, in a `wire_record!` block that generates
//! both its encoder and its decoder. A request or response struct is
//! declared there together with its members, in wire order; each member
//! line names the wire key, the rule, the field and its type:
//!
//! ```text
//! wire_record! {
//!     /// `POST /v1/evaluate`: one operating point in one scenario.
//!     #[derive(Debug, Clone, PartialEq)]
//!     pub struct EvaluateRequest {
//!         /// The scenario to evaluate in.
//!         "..": flat scenario: ScenarioSpec,
//!         /// The operating point.
//!         "point": or point: OperatingPoint = OperatingPoint::paper_default(),
//!     }
//! }
//! ```
//!
//! * `"key": req field: T` — always written; decoding fails when it is
//!   absent (an `Option` field reads absence and `null` as `None`);
//! * `"key": or field: T = default` — always written; absent or `null`
//!   decodes to the default;
//! * `"key": omit field: T = default` — like `or`, but left out of the
//!   encoding while it equals the default;
//! * `"lo" "hi": rule field: (T, T)` — a pair spread over two members;
//! * `"..": flat field: T` — the field's own members spliced in (the flat
//!   scenario members of every request);
//! * `as Codec` after the type — a member type with no `ToJson`/`FromJson`
//!   of its own (kilograms, knob maps, `[low, high]` ranges).
//!
//! Types declared in other modules get an `impl Type { ... }` block with
//! the same member lines minus the types, plus derived members written
//! from a method and ignored on decode (`"ratio" => fpga_to_asic_ratio`).
//! A record may name a `check` that validates the decoded value. The six
//! string enums are declared by `wire_enum!`, and the query kinds by the
//! `query_kinds!` table at the end of the module: one row per kind gives
//! its variant, wire id (also its `/v1/<id>` route), HTTP method, request
//! type and response type.
//!
//! So adding a field is one member line in its record's declaration, and
//! adding a query kind is one row in the table plus its engine arm. Types
//! whose wire shape is irregular ([`ScenarioRef`], [`SeriesRef`],
//! [`Objective`], [`Constraint`], [`ApiError`]) stay hand-written.
//!
//! ## One encoder, two outputs
//!
//! Every encoder — generated or hand-written — walks its members once into
//! a [`gf_json::JsonSink`]. [`gf_json::ToJson::to_json`] runs the walk
//! into a [`Value`] builder; [`gf_json::ToJson::write_json`] and
//! [`Outcome::write_result`] run it into a [`gf_json::JsonWriter`], which
//! is how the server answers: straight to bytes, no [`Value`] tree, and
//! the same bytes as [`Outcome::result_json`] then
//! [`Value::to_json_string`].
//!
//! ## The frozen corpus
//!
//! `tests/fixtures/wire/` holds the request, response and error bytes of
//! every kind, and the `wire_corpus` integration test byte-compares the
//! codec and the engine against it. A change that moves a wire byte fails
//! that test. When the change is intended, re-freeze the corpus with
//! `cargo test -p gf-tests --test wire_corpus -- --ignored regenerate` and
//! give the reason for every changed entry in `CHANGES.md`.

use gf_json::{key, FromJson, JsonError, JsonSink, JsonWriter, ToJson, ToJsonMembers, Value};

use crate::optimize::{
    CertificateProbe, Constraint, Objective, OptPlatform, SearchKnob, SolverKind,
};
use crate::scenario::{CarbonIntensitySeries, CatalogEntry, ReplayOutcome, Verdict};
use crate::{
    ApiError, ApiErrorCode, CfpBreakdown, Crossover, CrossoverDirection, Domain, EstimatorParams,
    FrontierResult, GridBlock, GridStream, GridSweep, Knob, OperatingPoint, PlatformComparison,
    PlatformKind, SensitivityEntry, SweepAxis, SweepPoint, SweepSeries, TornadoAnalysis,
    UncertaintyReport,
};
use gf_units::Carbon;

/// Version of the `Query`/`Outcome` JSON envelope (the `"v"` member).
pub const API_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Member codecs
// ---------------------------------------------------------------------------

/// How one record member's Rust value maps to JSON. [`Plain`] defers to
/// the type's own [`ToJson`]/[`FromJson`]; the other codecs serve member
/// types that have none.
trait Codec<T> {
    /// Walks the member's value into `sink`.
    fn encode<S: JsonSink>(value: &T, sink: &mut S);
    /// Decodes member `key` (`None` when absent), reporting schema errors
    /// at the member's path.
    fn decode(member: Option<&Value>, key: &str) -> Result<T, JsonError>;
}

/// The member type's own `ToJson`/`FromJson`.
struct Plain;

impl<T: ToJson + FromJson> Codec<T> for Plain {
    fn encode<S: JsonSink>(value: &T, sink: &mut S) {
        value.encode(sink);
    }

    fn decode(member: Option<&Value>, key: &str) -> Result<T, JsonError> {
        T::from_member(member).map_err(|e| e.at_member(key))
    }
}

/// A [`Carbon`] amount as a number of kilograms.
struct Kg;

impl Codec<Carbon> for Kg {
    fn encode<S: JsonSink>(value: &Carbon, sink: &mut S) {
        sink.number(value.as_kg());
    }

    fn decode(member: Option<&Value>, key: &str) -> Result<Carbon, JsonError> {
        <Plain as Codec<f64>>::decode(member, key).map(Carbon::from_kg)
    }
}

/// Knob overrides as a `{"<knob id>": value}` object, in application
/// order.
struct KnobMap;

impl Codec<Vec<(Knob, f64)>> for KnobMap {
    fn encode<S: JsonSink>(knobs: &Vec<(Knob, f64)>, sink: &mut S) {
        sink.begin_object();
        for &(knob, value) in knobs {
            sink.key_str(knob.id());
            sink.number(value);
        }
        sink.end_object();
    }

    fn decode(member: Option<&Value>, key: &str) -> Result<Vec<(Knob, f64)>, JsonError> {
        let members = object_member(member, key, "expected an object of knob values")?;
        let mut knobs = Vec::with_capacity(members.len());
        for (id, member) in members {
            let at = || format!("{key}.{id}");
            let knob = Knob::parse_id(id).ok_or_else(|| JsonError::schema(at(), "unknown knob"))?;
            if knobs.iter().any(|&(seen, _)| seen == knob) {
                return Err(JsonError::schema(
                    at(),
                    format!("knob '{id}' overridden more than once"),
                ));
            }
            let value = member
                .as_f64()
                .ok_or_else(|| JsonError::schema(at(), "expected a number"))?;
            knobs.push((knob, value));
        }
        Ok(knobs)
    }
}

/// Searched-axis values as a `{"<axis id>": value}` object.
struct AxisMap;

impl Codec<Vec<(SweepAxis, f64)>> for AxisMap {
    fn encode<S: JsonSink>(values: &Vec<(SweepAxis, f64)>, sink: &mut S) {
        sink.begin_object();
        for &(axis, value) in values {
            sink.key_str(axis.wire_id());
            sink.number(value);
        }
        sink.end_object();
    }

    fn decode(member: Option<&Value>, key: &str) -> Result<Vec<(SweepAxis, f64)>, JsonError> {
        object_member(member, key, "expected an object of knob values")?
            .iter()
            .map(|(id, value)| {
                let axis = SweepAxis::from_json(&Value::String(id.clone()))
                    .map_err(|e| e.at_member(key))?;
                let value = value
                    .as_f64()
                    .ok_or_else(|| JsonError::schema(key, "expected a numeric knob value"))?;
                Ok((axis, value))
            })
            .collect()
    }
}

/// A `[low, high]` pair.
struct Range;

impl Codec<(f64, f64)> for Range {
    fn encode<S: JsonSink>(&(low, high): &(f64, f64), sink: &mut S) {
        sink.begin_array();
        sink.number(low);
        sink.number(high);
        sink.end_array();
    }

    fn decode(member: Option<&Value>, key: &str) -> Result<(f64, f64), JsonError> {
        decode_pair(member, key, Value::as_f64, "expected two numbers")
    }
}

impl Codec<(u64, u64)> for Range {
    fn encode<S: JsonSink>(&(low, high): &(u64, u64), sink: &mut S) {
        Range::encode(&(low as f64, high as f64), sink);
    }

    fn decode(member: Option<&Value>, key: &str) -> Result<(u64, u64), JsonError> {
        decode_pair(
            member,
            key,
            Value::as_u64,
            "expected two non-negative integers",
        )
    }
}

fn decode_pair<T>(
    member: Option<&Value>,
    key: &str,
    item: fn(&Value) -> Option<T>,
    message: &str,
) -> Result<(T, T), JsonError> {
    match member.and_then(Value::as_array) {
        Some([low, high]) => item(low)
            .zip(item(high))
            .ok_or_else(|| JsonError::schema(key, message)),
        _ => Err(JsonError::schema(key, "expected [low, high]")),
    }
}

/// The members of an object-valued member, or a schema error at `key`.
fn object_member<'v>(
    member: Option<&'v Value>,
    key: &str,
    message: &str,
) -> Result<&'v [(String, Value)], JsonError> {
    match member {
        None => Err(JsonError::schema(key, "missing required field")),
        Some(value) => value
            .as_object()
            .ok_or_else(|| JsonError::schema(key, message)),
    }
}

/// Reads a required object member.
fn field<'v>(value: &'v Value, key: &'static str) -> Result<&'v Value, JsonError> {
    value
        .get(key)
        .ok_or_else(|| JsonError::schema(key, "missing required field"))
}

/// Decodes member `key` through codec `C`, falling back when it is absent
/// or `null`.
fn member_or<T, C: Codec<T>>(value: &Value, key: &str, fallback: T) -> Result<T, JsonError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(fallback),
        member => C::decode(member, key),
    }
}

/// Walks a record as an object: its members between braces.
fn encode_object<T: ToJsonMembers, S: JsonSink>(record: &T, sink: &mut S) {
    sink.begin_object();
    record.encode_members(sink);
    sink.end_object();
}

/// `true` when an `omit` member differs from its default and is written.
fn differs<T: PartialEq>(value: &T, default: &T) -> bool {
    value != default
}

/// Fails with `message` at `at` unless `value` is an object.
fn require_object(value: &Value, at: &str, message: &str) -> Result<(), JsonError> {
    match value {
        Value::Object(_) => Ok(()),
        _ => Err(JsonError::schema(at, message)),
    }
}

/// Decodes a `wire_enum!` string through its `parse_id`. Enums declared
/// with a noun name it in their errors; the others list their ids. Errors
/// carry no path of their own, so they report at the member the enum was
/// read from.
fn decode_enum<T>(
    value: &Value,
    noun: Option<&str>,
    ids: &[&str],
    parse: fn(&str) -> Option<T>,
) -> Result<T, JsonError> {
    let Some(noun) = noun else {
        return value.as_str().and_then(parse).ok_or_else(|| {
            let quoted: Vec<String> = ids.iter().map(|id| format!("\"{id}\"")).collect();
            let (last, rest) = quoted.split_last().expect("wire enums have variants");
            JsonError::schema("", format!("expected {} or {last}", rest.join(", ")))
        });
    };
    let id = value.as_str().ok_or_else(|| {
        let article = if noun.starts_with(['a', 'e', 'i', 'o', 'u']) {
            "an"
        } else {
            "a"
        };
        JsonError::schema("", format!("expected {article} {noun} string"))
    })?;
    parse(id).ok_or_else(|| JsonError::schema("", format!("unknown {noun} '{id}'")))
}

// ---------------------------------------------------------------------------
// Declaration macros
// ---------------------------------------------------------------------------

/// The codec of a member: [`Plain`] unless one is named.
macro_rules! wire_codec {
    () => {
        Plain
    };
    ($codec:ident) => {
        $codec
    };
}

/// Encodes or decodes one stored member by its rule (see the module docs).
macro_rules! wire_member {
    ($op:ident $target:ident, $rule:ident ($key:literal), $($rest:tt)*) => {
        wire_member!($op $target, $rule $key, $($rest)*)
    };
    (encode $sink:ident, flat $key:tt, $v:expr, $c:ty) => {
        $v.encode_members($sink)
    };
    (encode $sink:ident, $rule:ident ($lo:literal, $hi:literal), $v:expr, $c:ty $(, $d:expr)?) => {
        wire_member!(encode $sink, $rule $lo, $v.0, $c $(, ($d).0)?);
        wire_member!(encode $sink, $rule $hi, $v.1, $c $(, ($d).1)?);
    };
    (encode $sink:ident, omit $key:literal, $v:expr, $c:ty, $d:expr) => {
        if differs(&$v, &$d) {
            wire_member!(encode $sink, or $key, $v, $c, $d);
        }
    };
    (encode $sink:ident, $rule:ident $key:literal, $v:expr, $c:ty $(, $d:expr)?) => {{
        $sink.key(key!($key));
        <$c as Codec<_>>::encode(&$v, $sink);
    }};
    (decode $value:ident, flat $key:tt, $c:ty) => {
        FromJson::from_json($value)
    };
    (decode $value:ident, $rule:ident ($lo:literal, $hi:literal), $c:ty $(, $d:expr)?) => {
        wire_member!(decode $value, $rule $lo, $c $(, ($d).0)?)
            .and_then(|lo| wire_member!(decode $value, $rule $hi, $c $(, ($d).1)?).map(|hi| (lo, hi)))
    };
    (decode $value:ident, req $key:literal, $c:ty) => {
        <$c as Codec<_>>::decode($value.get($key), $key)
    };
    (decode $value:ident, $rule:ident $key:literal, $c:ty, $d:expr) => {
        member_or::<_, $c>($value, $key, $d)
    };
}

/// Declares records and their wire members once (grammar in the module
/// docs). The `pub struct` form declares the struct itself, each field
/// with its type; the `impl` form adds the wire members of a type declared
/// elsewhere and may list derived members. Both generate one member walk
/// (`ToJsonMembers`, from which `ToJson` derives) and `FromJson`; the
/// struct form forwards to the `impl` form.
macro_rules! wire_record {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident $(check $check:path)? {
            $(
                $(#[$doc:meta])*
                $key:literal $($key2:literal)?
                    : $rule:ident $field:ident : $ty:ty $(as $codec:ident)? $(= $default:expr)?
            ),* $(,)?
        }
    )+) => {$(
        $(#[$meta])*
        pub struct $name {
            $( $(#[$doc])* pub $field: $ty, )*
        }

        wire_record! {
            impl $name $(check $check)? {
                $( ($key $(, $key2)?): $rule $field $(as $codec)? $(= $default)? ),*
            }
        }
    )+};
    ($(
        impl $name:ident $(check $check:path)? {
            $(
                $keys:tt
                $( : $rule:ident $field:ident $(as $codec:ident)? $(= $default:expr)? )?
                $( => $($derived:ident).+ $(as $dcodec:ident)? )?
            ),* $(,)?
        }
    )+) => {$(
        impl ToJsonMembers for $name {
            #[allow(unused_variables)] // a record with no members writes none
            fn encode_members<S: JsonSink>(&self, sink: &mut S) {
                $(
                    $( wire_member!(
                        encode sink, $rule $keys, self.$field, wire_codec!($($codec)?)
                        $(, $default)?
                    ); )?
                    $( wire_member!(
                        encode sink, req $keys, self.$($derived).+(), wire_codec!($($dcodec)?)
                    ); )?
                )*
            }
        }

        impl ToJson for $name {
            fn encode<S: JsonSink>(&self, sink: &mut S) {
                encode_object(self, sink);
            }
        }

        impl FromJson for $name {
            fn from_json(value: &Value) -> Result<$name, JsonError> {
                $($(
                    let $field =
                        wire_member!(decode value, $rule $keys, wire_codec!($($codec)?) $(, $default)?)?;
                )?)*
                let record = $name { $($($field,)?)* };
                $( $check(&record, value)?; )?
                Ok(record)
            }
        }
    )+};
}

/// Declares string enums once: each variant's canonical wire id and its
/// accepted aliases. Generates `wire_id`, `parse_id`, the `WIRE_IDS` table
/// and the `ToJson`/`FromJson` impls. An enum `named` by a noun matches
/// case-insensitively. The CLI parses its enum options through the same
/// `parse_id`, so the command line accepts exactly the wire's ids.
macro_rules! wire_enum {
    ($(
        $name:ident $(named $noun:literal)? {
            $( $variant:ident = $id:literal $(| $alias:literal)* ),* $(,)?
        }
    )*) => {$(
        impl $name {
            /// Every accepted wire id — canonical ids and aliases — with the
            /// variant it names.
            pub const WIRE_IDS: &'static [(&'static str, $name)] =
                &[$( ($id, $name::$variant) $(, ($alias, $name::$variant))* ),*];

            /// The canonical wire id.
            pub(crate) fn wire_id(self) -> &'static str {
                match self {
                    $( $name::$variant => $id, )*
                }
            }

            /// Resolves a wire id or alias (any letter case when the enum
            /// is named by a noun).
            pub fn parse_id(id: &str) -> Option<$name> {
                let exact = |id: &str| match id {
                    $( $id $(| $alias)* => Some($name::$variant), )*
                    _ => None,
                };
                let noun: &[&str] = &[$($noun)?];
                if noun.is_empty() {
                    exact(id)
                } else {
                    exact(&id.to_ascii_lowercase())
                }
            }
        }

        impl ToJson for $name {
            fn encode<S: JsonSink>(&self, sink: &mut S) {
                sink.string(self.wire_id());
            }
        }

        impl FromJson for $name {
            fn from_json(value: &Value) -> Result<$name, JsonError> {
                let noun: &[&str] = &[$($noun)?];
                decode_enum(value, noun.first().copied(), &[$($id),*], $name::parse_id)
            }
        }
    )*};
}

wire_enum! {
    Domain named "domain" {
        Dnn = "dnn",
        ImageProcessing = "imgproc" | "image" | "imageprocessing" | "image_processing",
        Crypto = "crypto" | "cryptography",
    }
    SweepAxis named "axis" {
        Applications = "apps" | "applications",
        LifetimeYears = "lifetime",
        VolumeUnits = "volume",
    }
    PlatformKind { Fpga = "FPGA", Asic = "ASIC" }
    CrossoverDirection { AsicToFpga = "A2F", FpgaToAsic = "F2A" }
    OptPlatform { Fpga = "fpga", Asic = "asic" }
    SolverKind { Analytic = "analytic", Search = "search" }
}

impl ToJson for Knob {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.string(self.id());
    }
}

impl FromJson for Knob {
    fn from_json(value: &Value) -> Result<Knob, JsonError> {
        let id = String::from_json(value)?;
        Knob::parse_id(&id).ok_or_else(|| JsonError::schema("", format!("unknown knob '{id}'")))
    }
}

// ---------------------------------------------------------------------------
// Model results
// ---------------------------------------------------------------------------

wire_record! {
    impl Crossover {
        "at": req at,
        "direction": req direction,
    }
    impl OperatingPoint check point_is_object {
        "applications": or applications = OperatingPoint::paper_default().applications,
        "lifetime_years": or lifetime_years = OperatingPoint::paper_default().lifetime_years,
        "volume": or volume = OperatingPoint::paper_default().volume,
    }
    impl CfpBreakdown {
        "design_kg": req design as Kg,
        "manufacturing_kg": req manufacturing as Kg,
        "packaging_kg": req packaging as Kg,
        "eol_kg": req eol as Kg,
        "operation_kg": req operation as Kg,
        "app_dev_kg": req app_dev as Kg,
        "total_kg" => total as Kg,
    }
    impl PlatformComparison {
        "domain": req domain,
        "fpga": req fpga,
        "asic": req asic,
        "ratio" => fpga_to_asic_ratio,
        "winner" => winner,
    }
    impl SweepPoint {
        "x": req x,
        "fpga": req fpga,
        "asic": req asic,
        "ratio" => ratio,
    }
    impl SweepSeries {
        "domain": req domain,
        "axis": req axis,
        "points": req points,
        "crossovers" => crossovers,
    }
    impl SensitivityEntry {
        "knob": req knob,
        "ratio_at_low": req ratio_at_low,
        "ratio_at_high": req ratio_at_high,
        "ratio_at_baseline": req ratio_at_baseline,
        "swing" => swing,
        "flips_winner" => flips_winner,
    }
    impl TornadoAnalysis {
        "domain": req domain,
        "point": req point,
        "entries": req entries,
    }
    impl GridSweep check grid_is_rectangular {
        "domain": req domain,
        "x_axis": req x_axis,
        "x_values": req x_values,
        "y_axis": req y_axis,
        "y_values": req y_values,
        "ratios": req ratios,
        "fpga_winning_fraction" => fpga_winning_fraction,
    }
    impl Verdict {
        "mean_excess": req mean_excess,
        "worst_excess": req worst_excess,
        "loss_fraction": req loss_fraction,
        "embodied_share": req embodied_share,
        "score": req score,
    }
    impl ReplayOutcome {
        "steps": req steps,
        "fpga_operational_kg": req fpga_operational as Kg,
        "asic_operational_kg": req asic_operational as Kg,
        "fpga_total_kg": req fpga_total as Kg,
        "asic_total_kg": req asic_total as Kg,
        "mean_ratio": req mean_ratio,
        "worst_ratio": req worst_ratio,
        "final_ratio": req final_ratio,
        "fpga_win_fraction": req fpga_win_fraction,
        "verdict": req verdict,
    }
    impl SearchKnob {
        "axis": req axis,
        "min": req min,
        "max": req max,
        "integer": omit integer = false,
    }
    impl CertificateProbe {
        "axis": req axis,
        "at": req at,
        "objective": req objective,
        "delta": req delta,
    }
}

fn point_is_object(_: &OperatingPoint, value: &Value) -> Result<(), JsonError> {
    require_object(value, "point", "expected an operating-point object")
}

fn grid_is_rectangular(grid: &GridSweep, _: &Value) -> Result<(), JsonError> {
    if grid.ratios.len() != grid.y_values.len()
        || grid
            .ratios
            .iter()
            .any(|row| row.len() != grid.x_values.len())
    {
        return Err(JsonError::schema(
            "ratios",
            "expected one row per y value and one column per x value",
        ));
    }
    Ok(())
}

/// Appends the opening fragment of a streamed [`GridSweep`] body to `out`:
/// every member up to and including `"ratios":[`. It is followed by
/// [`grid_stream_rows`] for each block and then [`grid_stream_tail`]; the
/// fragments concatenate to exactly the buffered body.
///
/// # Errors
///
/// Returns [`JsonError::NonFinite`] for a non-finite coordinate; `out` is
/// then left as it was.
pub fn grid_stream_head(stream: &GridStream, out: &mut Vec<u8>) -> Result<(), JsonError> {
    const RATIOS: &[u8] = b"\"ratios\":[";
    let start = out.len();
    // The buffered encoding of the grid with no rows yet ends in
    // `"ratios":[],"fpga_winning_fraction":0}`; the head is that body cut
    // after the ratios' opening bracket.
    GridSweep {
        domain: stream.domain(),
        x_axis: stream.x_axis(),
        x_values: stream.x_values().to_vec(),
        y_axis: stream.y_axis(),
        y_values: stream.y_values().to_vec(),
        ratios: Vec::new(),
    }
    .write_json(out)?;
    let cut = out[start..]
        .windows(RATIOS.len())
        .rposition(|window| window == RATIOS)
        .expect("a grid body has ratios");
    out.truncate(start + cut + RATIOS.len());
    Ok(())
}

/// Appends one block's rows of a streamed [`GridSweep`] body to `out`,
/// comma-separated, with a leading comma after the grid's first row.
///
/// # Errors
///
/// Returns [`JsonError::NonFinite`] for a non-finite ratio; `out` is then
/// left as it was.
pub fn grid_stream_rows(block: &GridBlock<'_>, out: &mut Vec<u8>) -> Result<(), JsonError> {
    let start = out.len();
    if block.start_row() > 0 {
        out.push(b',');
    }
    let mut writer = JsonWriter::new(out);
    for row in 0..block.rows() {
        writer.begin_array();
        for ratio in block.row(row) {
            writer.number(ratio);
        }
        writer.end_array();
    }
    writer.finish().inspect_err(|_| out.truncate(start))
}

/// Appends the closing fragment of a streamed [`GridSweep`] body to `out`,
/// once every block was delivered: `],"fpga_winning_fraction":<fraction>}`.
///
/// # Errors
///
/// Returns [`JsonError::NonFinite`] for a non-finite fraction; `out` is
/// then left as it was.
pub fn grid_stream_tail(stream: &GridStream, out: &mut Vec<u8>) -> Result<(), JsonError> {
    let start = out.len();
    out.extend_from_slice(b"],\"fpga_winning_fraction\":");
    stream
        .fpga_winning_fraction()
        .write_json(out)
        .inspect_err(|_| out.truncate(start))?;
    out.push(b'}');
    Ok(())
}

// ---------------------------------------------------------------------------
// Scenarios, replay and optimization
// ---------------------------------------------------------------------------

wire_record! {
    /// A scenario addressed by a request: a domain template plus Table 1 knob
    /// overrides. Two requests with the same spec compile to the same
    /// [`crate::CompiledScenario`] — the key the server's scenario cache uses.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScenarioSpec {
        /// The application domain.
        "domain": req domain: Domain,
        /// Knob overrides applied on top of
        /// [`EstimatorParams::paper_defaults`], in application order.
        "knobs": or knobs: Vec<(Knob, f64)> as KnobMap = Vec::new(),
    }
}

impl ScenarioSpec {
    /// A baseline (no-override) spec for a domain.
    pub fn baseline(domain: Domain) -> Self {
        ScenarioSpec {
            domain,
            knobs: Vec::new(),
        }
    }

    /// Resolves the spec to a parameter set: paper defaults with every
    /// override applied (clamped to its knob's range, like
    /// [`Knob::apply_mut`] always does).
    pub fn params(&self) -> EstimatorParams {
        let mut params = EstimatorParams::paper_defaults();
        for &(knob, value) in &self.knobs {
            knob.apply_mut(&mut params, value);
        }
        params
    }
}

/// A scenario reference: either an inline [`ScenarioSpec`] (exactly what
/// every pre-catalog request carries) or a named catalog entry with
/// optional knob overrides applied on top of the cataloged overrides.
///
/// On the wire the two forms share one flat object: a string `"id"`
/// member selects the catalog form, otherwise the object is decoded as
/// an inline spec (`"domain"` + `"knobs"`).
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioRef {
    /// An inline spec.
    Inline(ScenarioSpec),
    /// A named entry of [`crate::scenario::catalog`], plus overrides
    /// appended after the cataloged knob list.
    Catalog {
        /// The catalog id.
        id: String,
        /// Knob overrides appended after the cataloged overrides.
        knobs: Vec<(Knob, f64)>,
    },
}

impl ScenarioRef {
    /// The catalog id this reference names, if any.
    pub fn catalog_id(&self) -> Option<&str> {
        match self {
            ScenarioRef::Inline(_) => None,
            ScenarioRef::Catalog { id, .. } => Some(id),
        }
    }
}

impl From<ScenarioSpec> for ScenarioRef {
    fn from(spec: ScenarioSpec) -> ScenarioRef {
        ScenarioRef::Inline(spec)
    }
}

impl ToJsonMembers for ScenarioRef {
    fn encode_members<S: JsonSink>(&self, sink: &mut S) {
        match self {
            ScenarioRef::Inline(spec) => spec.encode_members(sink),
            ScenarioRef::Catalog { id, knobs } => {
                sink.member(key!("id"), id);
                sink.key(key!("knobs"));
                KnobMap::encode(knobs, sink);
            }
        }
    }
}

impl FromJson for ScenarioRef {
    fn from_json(value: &Value) -> Result<ScenarioRef, JsonError> {
        match value.get("id") {
            None | Some(Value::Null) => Ok(ScenarioRef::Inline(ScenarioSpec::from_json(value)?)),
            Some(member) => Ok(ScenarioRef::Catalog {
                id: member
                    .as_str()
                    .ok_or_else(|| JsonError::schema("id", "expected a catalog id string"))?
                    .to_string(),
                knobs: member_or::<_, KnobMap>(value, "knobs", Vec::new())?,
            }),
        }
    }
}

wire_record! {
    /// `POST /v1/scenario`: one catalog or inline scenario, evaluated and
    /// scored.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScenarioRunRequest {
        /// The scenario to run.
        "..": flat scenario: ScenarioRef,
        /// Optional operating-point override; absent means the catalog
        /// entry's point (or [`OperatingPoint::paper_default`] for inline
        /// specs).
        "point": omit point: Option<OperatingPoint> = None,
    }

    /// `POST /v1/scenario` response: the comparison plus its scored verdict.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScenarioRunResponse {
        /// The resolved catalog id (`None` for inline specs).
        "id": req id: Option<String>,
        /// The point the scenario was evaluated at.
        "point": req point: OperatingPoint,
        /// The comparison the engine produced.
        "comparison": req comparison: PlatformComparison,
        /// The scored verdict over the outcome.
        "verdict": req verdict: Verdict,
    }
}

/// A carbon-intensity series reference: a named region preset or inline
/// samples.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesRef {
    /// One of [`CarbonIntensitySeries::REGIONS`].
    Region(String),
    /// User-supplied samples (validated at decode time).
    Inline(CarbonIntensitySeries),
}

impl ToJson for SeriesRef {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        match self {
            SeriesRef::Region(name) => sink.string(name),
            SeriesRef::Inline(series) => {
                sink.begin_object();
                sink.key(key!("points"));
                sink.begin_array();
                for &point in series.points() {
                    sink.number(point);
                }
                sink.end_array();
                sink.member(key!("step_hours"), &series.step_hours());
                sink.end_object();
            }
        }
    }
}

impl FromJson for SeriesRef {
    fn from_json(value: &Value) -> Result<SeriesRef, JsonError> {
        match value {
            Value::String(name) => Ok(SeriesRef::Region(name.clone())),
            Value::Object(_) => {
                let points: Vec<f64> = value.member("points")?;
                let step_hours = value.member::<Option<f64>>("step_hours")?.unwrap_or(1.0);
                let series = CarbonIntensitySeries::new(points, step_hours)
                    .map_err(|e| JsonError::schema("series", e.to_string()))?;
                Ok(SeriesRef::Inline(series))
            }
            _ => Err(JsonError::schema(
                "series",
                "expected a region name or a {points, step_hours} object",
            )),
        }
    }
}

wire_record! {
    /// `POST /v1/replay`: a scenario replayed step by step against a
    /// time-varying grid carbon intensity.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ReplayRequest {
        /// The scenario to replay.
        "..": flat scenario: ScenarioRef,
        /// Optional operating-point override (same defaulting as
        /// [`ScenarioRunRequest::point`]).
        "point": omit point: Option<OperatingPoint> = None,
        /// The intensity series to replay against (defaults to the
        /// `global_flat` region preset).
        "series": or series: SeriesRef = SeriesRef::Region(Self::DEFAULT_REGION.to_string()),
        /// Whether step lookup interpolates between bounding samples.
        "interpolate": or interpolate: bool = false,
        /// How many times the series plays end-to-end in the replay
        /// ([`CarbonIntensitySeries::replay_years`]); must not exceed the
        /// device lifetime in whole years. Omitted from the wire when 1.
        "years": omit years: u64 = 1,
    }
}

impl ReplayRequest {
    /// The region preset used when a request names no series.
    pub const DEFAULT_REGION: &'static str = "global_flat";
}

wire_record! {
    /// `POST /v1/replay` response: the replay summary and scored verdict.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ReplayResponse {
        /// The resolved catalog id (`None` for inline specs).
        "id": req id: Option<String>,
        /// The replayed domain.
        "domain": req domain: Domain,
        /// The point the scenario was replayed at.
        "point": req point: OperatingPoint,
        /// The replay summary (cumulative totals, trajectory statistics,
        /// verdict).
        "replay": req replay: ReplayOutcome,
    }
}

/// Encodes a `"platform"` member, omitted when it is the FPGA default.
fn encode_platform<S: JsonSink>(platform: OptPlatform, sink: &mut S) {
    if platform != OptPlatform::Fpga {
        sink.member(key!("platform"), &platform);
    }
}

/// Decodes an optional `"platform"` member, defaulting to the FPGA.
fn decode_platform(value: &Value) -> Result<OptPlatform, JsonError> {
    member_or::<_, Plain>(value, "platform", OptPlatform::Fpga)
}

impl ToJson for Objective {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        let (goal, platform, budget_kg) = match *self {
            Objective::MinTotal(platform) => ("min_total", Some(platform), None),
            Objective::MinOperational(platform) => ("min_operational", Some(platform), None),
            Objective::MinEmbodied(platform) => ("min_embodied", Some(platform), None),
            Objective::MaxFpgaMargin => ("max_margin", None, None),
            Objective::MinRatio => ("min_ratio", None, None),
            Objective::MeetBudget {
                platform,
                budget_kg,
            } => ("budget", Some(platform), Some(budget_kg)),
        };
        sink.begin_object();
        sink.member(key!("goal"), goal);
        if let Some(platform) = platform {
            encode_platform(platform, sink);
        }
        if let Some(budget_kg) = budget_kg {
            sink.member(key!("budget_kg"), &budget_kg);
        }
        sink.end_object();
    }
}

impl FromJson for Objective {
    fn from_json(value: &Value) -> Result<Objective, JsonError> {
        let goal = field(value, "goal")?
            .as_str()
            .ok_or_else(|| JsonError::schema("goal", "expected a goal string"))?;
        match goal {
            "min_total" => Ok(Objective::MinTotal(decode_platform(value)?)),
            "min_operational" => Ok(Objective::MinOperational(decode_platform(value)?)),
            "min_embodied" => Ok(Objective::MinEmbodied(decode_platform(value)?)),
            "max_margin" => Ok(Objective::MaxFpgaMargin),
            "min_ratio" => Ok(Objective::MinRatio),
            "budget" => Ok(Objective::MeetBudget {
                platform: decode_platform(value)?,
                budget_kg: value.member("budget_kg")?,
            }),
            other => Err(JsonError::schema(
                "goal",
                format!(
                    "unknown goal '{other}' (expected min_total, min_operational, \
                     min_embodied, max_margin, min_ratio or budget)"
                ),
            )),
        }
    }
}

impl ToJson for Constraint {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.begin_object();
        match *self {
            Constraint::FpgaWins => sink.member(key!("kind"), "fpga_wins"),
            Constraint::MaxTotalKg { platform, limit_kg } => {
                sink.member(key!("kind"), "max_total_kg");
                encode_platform(platform, sink);
                sink.member(key!("limit_kg"), &limit_kg);
            }
        }
        sink.end_object();
    }
}

impl FromJson for Constraint {
    fn from_json(value: &Value) -> Result<Constraint, JsonError> {
        let kind = field(value, "kind")?
            .as_str()
            .ok_or_else(|| JsonError::schema("kind", "expected a constraint kind string"))?;
        match kind {
            "fpga_wins" => Ok(Constraint::FpgaWins),
            "max_total_kg" => Ok(Constraint::MaxTotalKg {
                platform: decode_platform(value)?,
                limit_kg: value.member("limit_kg")?,
            }),
            other => Err(JsonError::schema(
                "kind",
                format!("unknown constraint kind '{other}' (expected fpga_wins or max_total_kg)"),
            )),
        }
    }
}

wire_record! {
    /// `POST /v1/optimize`: an inverse query — minimize an objective (or fill
    /// a carbon budget) over a box of 1–3 search knobs.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OptimizeRequest {
        /// The scenario to optimize over.
        "..": flat scenario: ScenarioRef,
        /// Optional operating-point override supplying the non-searched axes
        /// (same defaulting as [`ScenarioRunRequest::point`]).
        "point": omit point: Option<OperatingPoint> = None,
        /// What to minimize or satisfy.
        "objective": req objective: Objective,
        /// The searched axes and their bounds (the `"search"` wire member).
        "search": req search: Vec<SearchKnob>,
        /// Feasibility constraints (omitted from the wire when empty).
        "constraints": omit constraints: Vec<Constraint> = Vec::new(),
        /// Relative solve tolerance for the search tier (omitted when
        /// [`OptimizeRequest::DEFAULT_TOLERANCE`]).
        "tolerance": omit tolerance: f64 = Self::DEFAULT_TOLERANCE,
        /// Kernel-evaluation budget for the search tier (omitted when
        /// [`OptimizeRequest::DEFAULT_MAX_EVALS`]).
        "max_evals": omit max_evals: u64 = Self::DEFAULT_MAX_EVALS,
    }
}

impl OptimizeRequest {
    /// Relative tolerance used when a request names none.
    pub const DEFAULT_TOLERANCE: f64 = 1e-6;
    /// Evaluation budget used when a request names none.
    pub const DEFAULT_MAX_EVALS: u64 = 10_000;
}

wire_record! {
    /// `POST /v1/optimize` response: the argmin, its verdict, and the solve's
    /// evidence trail.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OptimizeResponse {
        /// The resolved catalog id (`None` for inline specs).
        "id": req id: Option<String>,
        /// The optimized domain.
        "domain": req domain: Domain,
        /// The full operating point at the optimum.
        "point": req point: OperatingPoint,
        /// The argmin values of the searched knobs, in request order.
        "argmin": req argmin: Vec<(SweepAxis, f64)> as AxisMap,
        /// The achieved objective scalar (kernel-evaluated at the argmin).
        "objective": req objective: f64,
        /// The scored verdict at the optimum.
        "verdict": req verdict: Verdict,
        /// Kernel evaluations spent (including certificate probes).
        "evaluations": req evaluations: u64,
        /// Which solver tier answered.
        "solver": req solver: SolverKind,
        /// Per-knob one-sided local-optimality probes.
        "certificate": req certificate: Vec<CertificateProbe>,
    }
}

/// `GET /v1/catalog`: the scenario catalog listing. The request carries
/// no parameters — the type exists so the catalog rides the same
/// [`Query`]/[`Outcome`] envelope as every other kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CatalogRequest;

wire_record! {
    /// One catalog entry as listed on the wire — [`CatalogEntry`] with owned
    /// strings so responses decode without referencing the process's static
    /// catalog.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CatalogEntryInfo {
        /// The concrete scenario the id resolves to.
        "..": flat scenario: ScenarioSpec,
        /// Stable wire id.
        "id": req id: String,
        /// One-line human title.
        "title": req title: String,
        /// What the scenario stresses.
        "description": req description: String,
        /// The operating point the scenario defaults to.
        "point": req point: OperatingPoint,
    }
}

impl From<&CatalogEntry> for CatalogEntryInfo {
    fn from(entry: &CatalogEntry) -> CatalogEntryInfo {
        CatalogEntryInfo {
            id: entry.id.to_string(),
            title: entry.title.to_string(),
            description: entry.description.to_string(),
            scenario: entry.scenario.clone(),
            point: entry.point,
        }
    }
}

wire_record! {
    /// `GET /v1/catalog` response: every named scenario, in catalog order.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CatalogResponse {
        /// The catalog entries.
        "entries": req entries: Vec<CatalogEntryInfo>,
    }
}

wire_record! {
    impl CatalogRequest check catalog_is_object {}
}

fn catalog_is_object(_: &CatalogRequest, value: &Value) -> Result<(), JsonError> {
    require_object(value, "catalog", "expected an object")
}

// ---------------------------------------------------------------------------
// Evaluation, sweeps and lattices
// ---------------------------------------------------------------------------

wire_record! {
    /// `POST /v1/evaluate`: one operating point in one scenario.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EvaluateRequest {
        /// The scenario to evaluate in.
        "..": flat scenario: ScenarioSpec,
        /// The operating point (defaults to [`OperatingPoint::paper_default`]).
        "point": or point: OperatingPoint = OperatingPoint::paper_default(),
    }

    /// `POST /v1/evaluate` response: the full comparison at the point.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EvaluateResponse {
        /// The comparison the engine produced.
        "..": flat comparison: PlatformComparison,
    }

    /// `POST /v1/batch`: many operating points in one scenario, evaluated
    /// through the zero-allocation SoA kernel.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BatchEvalRequest {
        /// The scenario every point is evaluated in.
        "..": flat scenario: ScenarioSpec,
        /// The operating points, evaluated in order.
        "points": req points: Vec<OperatingPoint>,
    }
}

/// `POST /v1/batch` response: one comparison per requested point, in
/// request order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEvalResponse {
    /// The comparisons, in request order.
    pub comparisons: Vec<PlatformComparison>,
}

wire_record! {
    impl BatchEvalResponse {
        "count" => comparisons.len,
        "results": req comparisons,
    }
}

wire_record! {
    /// `POST /v1/crossover`: the three crossover searches of the paper's
    /// Figs. 4–6 around a base operating point.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CrossoverRequest {
        /// The scenario to search in.
        "..": flat scenario: ScenarioSpec,
        /// The base operating point supplying the held parameters.
        "point": or base: OperatingPoint = OperatingPoint::paper_default(),
        /// Upper bound of the application-count search (Fig. 4).
        "max_applications": or max_applications: u64 = Self::DEFAULT_MAX_APPLICATIONS,
        /// Lifetime search range in years (Fig. 5).
        "lifetime_range": or lifetime_range: (f64, f64) as Range = Self::DEFAULT_LIFETIME_RANGE,
        /// Volume search range in devices (Fig. 6).
        "volume_range": or volume_range: (u64, u64) as Range = Self::DEFAULT_VOLUME_RANGE,
    }
}

impl CrossoverRequest {
    const DEFAULT_MAX_APPLICATIONS: u64 = 20;
    const DEFAULT_LIFETIME_RANGE: (f64, f64) = (0.05, 5.0);
    const DEFAULT_VOLUME_RANGE: (u64, u64) = (1_000, 50_000_000);

    /// The CLI's default search windows: 20 applications, 0.05–5 years,
    /// 1 K–50 M devices.
    pub fn with_default_ranges(scenario: ScenarioSpec, base: OperatingPoint) -> Self {
        CrossoverRequest {
            scenario,
            base,
            max_applications: Self::DEFAULT_MAX_APPLICATIONS,
            lifetime_range: Self::DEFAULT_LIFETIME_RANGE,
            volume_range: Self::DEFAULT_VOLUME_RANGE,
        }
    }
}

wire_record! {
    /// `POST /v1/crossover` response: one entry per searched axis; `None`
    /// where the preferred platform never flips inside the window.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CrossoverResponse {
        /// The domain searched.
        "domain": req domain: Domain,
        /// The base operating point the held parameters came from.
        "point": req base: OperatingPoint,
        /// Smallest winning application count (Fig. 4), if any.
        "applications": req applications: Option<u64>,
        /// Lifetime crossover (Fig. 5), if any.
        "lifetime": req lifetime: Option<Crossover>,
        /// Volume crossover (Fig. 6), if any.
        "volume": req volume: Option<Crossover>,
    }
}

/// Linearly spaced axis values (endpoints included) — the lattice geometry
/// shared by [`FrontierRequest`], [`GridRequest`], [`SweepRequest`] and
/// the CLI.
fn linear_axis_values((from, to): (f64, f64), steps: usize) -> Vec<f64> {
    (0..steps)
        .map(|i| from + (to - from) * i as f64 / (steps as f64 - 1.0))
        .collect()
}

// Lattice defaults shared by `FrontierRequest` and `GridRequest`.
const LATTICE_X_AXIS: SweepAxis = SweepAxis::Applications;
const LATTICE_X_RANGE: (f64, f64) = (1.0, 12.0);
const LATTICE_Y_AXIS: SweepAxis = SweepAxis::LifetimeYears;
const LATTICE_Y_RANGE: (f64, f64) = (0.25, 3.0);
const LATTICE_STEPS: usize = 24;

/// Validates a decoded 2-D lattice: resolution, distinct axes and finite,
/// increasing ranges.
fn check_lattice(
    x_axis: SweepAxis,
    x_range: (f64, f64),
    y_axis: SweepAxis,
    y_range: (f64, f64),
    steps: usize,
) -> Result<(), JsonError> {
    if !(2..=1024).contains(&steps) {
        return Err(JsonError::schema("steps", "expected 2 ≤ steps ≤ 1024"));
    }
    if x_axis == y_axis {
        return Err(JsonError::schema("y_axis", "x_axis and y_axis must differ"));
    }
    let range_invalid =
        |(from, to): (f64, f64)| !(from.is_finite() && to.is_finite()) || to <= from;
    if range_invalid(x_range) || range_invalid(y_range) {
        return Err(JsonError::schema(
            "x_from",
            "ranges must be finite with to > from",
        ));
    }
    Ok(())
}

wire_record! {
    /// `POST /v1/frontier`: an adaptive winner map over a 2-D lattice.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FrontierRequest check frontier_lattice {
        /// The scenario to trace in.
        "..": flat scenario: ScenarioSpec,
        /// The base operating point supplying the held parameter.
        "point": or base: OperatingPoint = OperatingPoint::paper_default(),
        /// Axis swept along the columns.
        "x_axis": or x_axis: SweepAxis = LATTICE_X_AXIS,
        /// Column range (inclusive on both ends).
        "x_from" "x_to": or x_range: (f64, f64) = LATTICE_X_RANGE,
        /// Axis swept along the rows.
        "y_axis": or y_axis: SweepAxis = LATTICE_Y_AXIS,
        /// Row range (inclusive on both ends).
        "y_from" "y_to": or y_range: (f64, f64) = LATTICE_Y_RANGE,
        /// Lattice resolution per axis.
        "steps": or steps: usize = LATTICE_STEPS,
    }
}

impl FrontierRequest {
    /// The lattice coordinates this request describes (linear spacing,
    /// endpoints included) — shared by the server handler and clients that
    /// want to reproduce the lattice locally.
    pub fn lattice(&self) -> (Vec<f64>, Vec<f64>) {
        (
            linear_axis_values(self.x_range, self.steps),
            linear_axis_values(self.y_range, self.steps),
        )
    }
}

wire_record! {
    /// `POST /v1/grid`: a dense FPGA:ASIC ratio heatmap over a 2-D lattice
    /// (the paper's Fig. 8), every cell evaluated through the SoA batch
    /// kernel. Same geometry and defaults as [`FrontierRequest`]; use the
    /// frontier when only the winner of each cell matters.
    #[derive(Debug, Clone, PartialEq)]
    pub struct GridRequest check grid_lattice {
        /// The scenario to evaluate in.
        "..": flat scenario: ScenarioSpec,
        /// The base operating point supplying the held parameter.
        "point": or base: OperatingPoint = OperatingPoint::paper_default(),
        /// Axis swept along the columns.
        "x_axis": or x_axis: SweepAxis = LATTICE_X_AXIS,
        /// Column range (inclusive on both ends).
        "x_from" "x_to": or x_range: (f64, f64) = LATTICE_X_RANGE,
        /// Axis swept along the rows.
        "y_axis": or y_axis: SweepAxis = LATTICE_Y_AXIS,
        /// Row range (inclusive on both ends).
        "y_from" "y_to": or y_range: (f64, f64) = LATTICE_Y_RANGE,
        /// Lattice resolution per axis.
        "steps": or steps: usize = LATTICE_STEPS,
        /// When `true`, a serving transport delivers the grid as streamed
        /// row-blocks (HTTP chunked transfer-encoding) instead of one buffered
        /// body. The decoded payload is byte-identical either way; this only
        /// bounds transport memory. Defaults to `false` and is omitted from
        /// the encoding when `false`, so buffered requests round-trip to the
        /// pre-streaming wire form.
        "stream": omit stream: bool = false,
    }
}

impl GridRequest {
    /// The lattice coordinates this request describes — identical
    /// semantics to [`FrontierRequest::lattice`].
    pub fn lattice(&self) -> (Vec<f64>, Vec<f64>) {
        (
            linear_axis_values(self.x_range, self.steps),
            linear_axis_values(self.y_range, self.steps),
        )
    }
}

fn frontier_lattice(r: &FrontierRequest, _: &Value) -> Result<(), JsonError> {
    check_lattice(r.x_axis, r.x_range, r.y_axis, r.y_range, r.steps)
}

fn grid_lattice(r: &GridRequest, _: &Value) -> Result<(), JsonError> {
    check_lattice(r.x_axis, r.x_range, r.y_axis, r.y_range, r.steps)
}

wire_record! {
    /// `POST /v1/sweep`: one workload axis swept over a linear range, the
    /// other two held at `base` (the paper's Figs. 4–6).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SweepRequest check sweep_range {
        /// The scenario to sweep in.
        "..": flat scenario: ScenarioSpec,
        /// The operating point supplying the two held parameters.
        "point": or base: OperatingPoint = OperatingPoint::paper_default(),
        /// The swept axis.
        "axis": req axis: SweepAxis,
        /// Sweep range (inclusive on both ends; `to > from`).
        "from" "to": req range: (f64, f64),
        /// Number of samples (2–100 000).
        "steps": or steps: usize = 10,
    }
}

impl SweepRequest {
    /// The most samples one request may ask for.
    pub const MAX_STEPS: usize = 100_000;

    /// The sampled axis values (linear spacing, endpoints included).
    pub fn values(&self) -> Vec<f64> {
        linear_axis_values(self.range, self.steps)
    }
}

fn sweep_range(request: &SweepRequest, _: &Value) -> Result<(), JsonError> {
    if !(2..=SweepRequest::MAX_STEPS).contains(&request.steps) {
        return Err(JsonError::schema(
            "steps",
            format!("expected 2 ≤ steps ≤ {}", SweepRequest::MAX_STEPS),
        ));
    }
    let (from, to) = request.range;
    if !(from.is_finite() && to.is_finite()) || to <= from {
        return Err(JsonError::schema(
            "from",
            "sweep range must be finite with to > from",
        ));
    }
    Ok(())
}

wire_record! {
    /// `POST /v1/frontier` response: the wire form of a
    /// [`crate::FrontierResult`] — the dense winner mask plus the refiner's
    /// evaluation accounting (the per-cell ratios of evaluated cells stay
    /// engine-side).
    #[derive(Debug, Clone, PartialEq)]
    pub struct FrontierResponse check frontier_is_rectangular {
        /// Domain the frontier was traced in.
        "domain": req domain: Domain,
        /// Axis swept along the columns.
        "x_axis": req x_axis: SweepAxis,
        /// Column coordinate values.
        "x_values": req x_values: Vec<f64>,
        /// Axis swept along the rows.
        "y_axis": req y_axis: SweepAxis,
        /// Row coordinate values.
        "y_values": req y_values: Vec<f64>,
        /// `fpga_wins[row][col]` is `true` where the FPGA has the lower total.
        "fpga_wins": req fpga_wins: Vec<Vec<bool>>,
        /// Fraction of cells the FPGA wins.
        "fpga_winning_fraction": req fpga_winning_fraction: f64,
        /// Model evaluations the refiner performed.
        "evaluations": req evaluations: u64,
        /// `evaluations` over the dense cell count.
        "evaluated_fraction": req evaluated_fraction: f64,
    }
}

impl From<&FrontierResult> for FrontierResponse {
    fn from(result: &FrontierResult) -> FrontierResponse {
        FrontierResponse {
            domain: result.domain,
            x_axis: result.x_axis,
            x_values: result.x_values.clone(),
            y_axis: result.y_axis,
            y_values: result.y_values.clone(),
            fpga_wins: result.winner_mask(),
            fpga_winning_fraction: result.fpga_winning_fraction(),
            evaluations: result.evaluations() as u64,
            evaluated_fraction: result.evaluated_fraction(),
        }
    }
}

fn frontier_is_rectangular(response: &FrontierResponse, _: &Value) -> Result<(), JsonError> {
    if response.fpga_wins.len() != response.y_values.len()
        || response
            .fpga_wins
            .iter()
            .any(|row| row.len() != response.x_values.len())
    {
        return Err(JsonError::schema(
            "fpga_wins",
            "expected one row per y value and one column per x value",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Comparisons, sensitivity, uncertainty and the industry testcases
// ---------------------------------------------------------------------------

wire_record! {
    /// `POST /v1/compare`: one operating point evaluated side by side in
    /// several scenarios (e.g. all three domains at their baselines).
    #[derive(Debug, Clone, PartialEq)]
    pub struct CompareRequest check compare_count {
        /// The scenarios to evaluate, in response order (1–16).
        "scenarios": req scenarios: Vec<ScenarioSpec>,
        /// The operating point shared by every scenario.
        "point": or point: OperatingPoint = OperatingPoint::paper_default(),
    }
}

impl CompareRequest {
    /// The most scenarios one request may carry.
    pub const MAX_SCENARIOS: usize = 16;
}

fn compare_count(request: &CompareRequest, _: &Value) -> Result<(), JsonError> {
    if !(1..=CompareRequest::MAX_SCENARIOS).contains(&request.scenarios.len()) {
        return Err(JsonError::schema(
            "scenarios",
            format!("expected 1 to {} scenarios", CompareRequest::MAX_SCENARIOS),
        ));
    }
    Ok(())
}

/// `POST /v1/compare` response: one comparison per requested scenario, in
/// request order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareResponse {
    /// The comparisons, in request order.
    pub comparisons: Vec<PlatformComparison>,
}

wire_record! {
    /// `POST /v1/tornado`: one-at-a-time sensitivity analysis over every
    /// Table 1 knob around the scenario's parameters (the paper's Fig. 12).
    #[derive(Debug, Clone, PartialEq)]
    pub struct TornadoRequest {
        /// The scenario whose parameters anchor the analysis.
        "..": flat scenario: ScenarioSpec,
        /// The operating point the ratio is probed at.
        "point": or point: OperatingPoint = OperatingPoint::paper_default(),
    }
}

wire_record! {
    impl CompareResponse {
        "count" => comparisons.len,
        "results": req comparisons,
    }
}

wire_record! {
    /// `POST /v1/montecarlo`: Monte-Carlo uncertainty analysis over the
    /// Table 1 knob ranges (the paper's Fig. 13). Deterministic for a given
    /// `(samples, seed)` regardless of thread count.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MonteCarloRequest check monte_carlo_samples {
        /// The scenario whose parameters anchor the study.
        "..": flat scenario: ScenarioSpec,
        /// The (fixed) workload operating point.
        "point": or point: OperatingPoint = OperatingPoint::paper_default(),
        /// Number of parameter samples to draw (1–1 048 576).
        "samples": or samples: usize = Self::DEFAULT_SAMPLES,
        /// RNG seed. Must stay below 2⁵³ so it survives the JSON number
        /// round-trip exactly.
        "seed": or seed: u64 = Self::DEFAULT_SEED,
    }
}

impl MonteCarloRequest {
    /// Default sample count (matches the CLI default).
    pub const DEFAULT_SAMPLES: usize = 512;
    /// Default wire seed. Smaller than [`crate::MonteCarlo::new`]'s default
    /// because JSON numbers only represent integers below 2⁵³ exactly.
    pub const DEFAULT_SEED: u64 = 0x9E37_79B9;
    /// The most samples one request may ask for.
    pub const MAX_SAMPLES: usize = 1 << 20;
    /// Exclusive upper bound on seeds (2⁵³): every integer below it has
    /// an exact JSON representation, while 2⁵³ itself is ambiguous (it is
    /// also what 2⁵³+1 rounds to). The engine and the CLI both reject
    /// seeds at or above this bound so local and served runs cannot
    /// silently diverge.
    pub const MAX_SEED: u64 = 1 << 53;

    /// A request with the default sample count and seed.
    pub fn with_defaults(scenario: ScenarioSpec, point: OperatingPoint) -> Self {
        MonteCarloRequest {
            scenario,
            point,
            samples: MonteCarloRequest::DEFAULT_SAMPLES,
            seed: MonteCarloRequest::DEFAULT_SEED,
        }
    }
}

fn monte_carlo_samples(request: &MonteCarloRequest, _: &Value) -> Result<(), JsonError> {
    if !(1..=MonteCarloRequest::MAX_SAMPLES).contains(&request.samples) {
        return Err(JsonError::schema(
            "samples",
            format!("expected 1 ≤ samples ≤ {}", MonteCarloRequest::MAX_SAMPLES),
        ));
    }
    Ok(())
}

wire_record! {
    /// `POST /v1/montecarlo` response: the summary statistics of the sampled
    /// FPGA:ASIC ratio distribution (the full sample vector stays server-side).
    #[derive(Debug, Clone, PartialEq)]
    pub struct MonteCarloResponse {
        /// Domain the study was run in.
        "domain": req domain: Domain,
        /// The (fixed) workload operating point.
        "point": req point: OperatingPoint,
        /// Number of samples drawn.
        "samples": req samples: u64,
        /// 5th percentile of the ratio distribution.
        "ratio_p5": req ratio_p5: f64,
        /// Median ratio.
        "ratio_median": req ratio_median: f64,
        /// 95th percentile of the ratio distribution.
        "ratio_p95": req ratio_p95: f64,
        /// Mean ratio.
        "ratio_mean": req ratio_mean: f64,
        /// Fraction of samples where the FPGA had the lower footprint.
        "fpga_win_probability": req fpga_win_probability: f64,
        /// The platform winning the majority of samples.
        "majority_winner": req majority_winner: PlatformKind,
    }
}

impl From<&UncertaintyReport> for MonteCarloResponse {
    fn from(report: &UncertaintyReport) -> MonteCarloResponse {
        MonteCarloResponse {
            domain: report.domain,
            point: report.point,
            samples: report.ratios.len() as u64,
            ratio_p5: report.quantile(0.05),
            ratio_median: report.median(),
            ratio_p95: report.quantile(0.95),
            ratio_mean: report.mean(),
            fpga_win_probability: report.fpga_win_probability(),
            majority_winner: report.majority_winner(),
        }
    }
}

wire_record! {
    /// `POST /v1/industry`: the Table 3 industry testcases (Figs. 10–11) under
    /// a configurable deployment scenario.
    #[derive(Debug, Clone, PartialEq)]
    pub struct IndustryRequest check industry_bounds {
        /// Table 1 knob overrides applied on top of the paper defaults.
        "knobs": or knobs: Vec<(Knob, f64)> as KnobMap = Vec::new(),
        /// Total service life in years.
        "service_years": or service_years: f64 = Self::default().service_years,
        /// Applications an FPGA serves over the service life.
        "fpga_applications": or fpga_applications: u64 = Self::default().fpga_applications,
        /// Deployment volume in devices.
        "volume": or volume: u64 = Self::default().volume,
    }
}

impl Default for IndustryRequest {
    /// The paper's setup: 6 years, 3 FPGA applications, 1 M units, no
    /// overrides.
    fn default() -> Self {
        IndustryRequest {
            knobs: Vec::new(),
            service_years: 6.0,
            fpga_applications: 3,
            volume: 1_000_000,
        }
    }
}

fn industry_bounds(request: &IndustryRequest, value: &Value) -> Result<(), JsonError> {
    require_object(value, "industry", "expected a request object")?;
    if !request.service_years.is_finite() || request.service_years <= 0.0 {
        return Err(JsonError::schema(
            "service_years",
            "expected a positive number of years",
        ));
    }
    if request.fpga_applications == 0 {
        return Err(JsonError::schema(
            "fpga_applications",
            "expected at least one application",
        ));
    }
    if request.volume == 0 {
        return Err(JsonError::schema("volume", "expected at least one device"));
    }
    Ok(())
}

wire_record! {
    /// One device's footprint in a [`IndustryResponse`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct IndustryDeviceReport {
        /// Device name (Table 3).
        "device": req device: String,
        /// Which platform the device is.
        "platform": req platform: PlatformKind,
        /// Its lifecycle footprint under the requested scenario.
        "cfp": req cfp: CfpBreakdown,
    }

    /// `POST /v1/industry` response: every Table 3 device's footprint, FPGAs
    /// first.
    #[derive(Debug, Clone, PartialEq)]
    pub struct IndustryResponse {
        /// Per-device footprints.
        "devices": req devices: Vec<IndustryDeviceReport>,
    }
}

// ---------------------------------------------------------------------------
// Serving observability
// ---------------------------------------------------------------------------

wire_record! {
    /// One latency histogram of `GET /v1/metrics`: `bounds_us[i]` is the
    /// inclusive upper bound (microseconds) of bucket `i`, and `counts` has one
    /// extra trailing bucket for everything above the last bound (JSON has no
    /// lexeme for infinity, so the overflow bound is implicit).
    #[derive(Debug, Clone, PartialEq)]
    pub struct LatencyHistogram check histogram_buckets {
        /// Inclusive bucket upper bounds in microseconds, ascending.
        "bounds_us": req bounds_us: Vec<f64>,
        /// Observation counts; `counts.len() == bounds_us.len() + 1` (the last
        /// bucket is the overflow bucket).
        "counts": req counts: Vec<u64>,
    }
}

fn histogram_buckets(histogram: &LatencyHistogram, _: &Value) -> Result<(), JsonError> {
    if histogram.counts.len() != histogram.bounds_us.len() + 1 {
        return Err(JsonError::schema(
            "counts",
            "expected one count per bound plus the overflow bucket",
        ));
    }
    Ok(())
}

wire_record! {
    /// One route's counters in `GET /v1/metrics`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RouteMetrics {
        /// Stable route label, e.g. `"POST /v1/evaluate"`.
        "route": req route: String,
        /// Requests answered on this route (any status).
        "requests": req requests: u64,
        /// Requests answered with a non-2xx status. Kept as the sum of
        /// `errors_4xx + errors_5xx` for consumers that predate the split.
        "errors": req errors: u64,
        /// Requests answered with a 4xx status (client faults).
        "errors_4xx": or errors_4xx: u64 = 0,
        /// Requests answered with a 5xx (or other non-2xx, non-4xx) status —
        /// server faults.
        "errors_5xx": or errors_5xx: u64 = 0,
        /// Request-body bytes received on this route.
        "bytes_in": or bytes_in: u64 = 0,
        /// Response-body bytes sent on this route.
        "bytes_out": or bytes_out: u64 = 0,
        /// Handler latency distribution.
        "latency": req latency: LatencyHistogram,
    }

    /// One scenario-cache shard's counters in `GET /v1/metrics`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CacheShardMetrics {
        /// Compiled scenarios currently cached in the shard.
        "entries": req entries: u64,
        /// Lifetime lookup hits.
        "hits": req hits: u64,
        /// Lifetime lookup misses (compilations).
        "misses": req misses: u64,
    }

    /// `GET /v1/metrics` response: the serving core's observability snapshot —
    /// per-route request/error counters and latency histograms, per-shard
    /// scenario-cache statistics, and the connection governor's gauges.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MetricsResponse {
        /// Requests answered over the server's lifetime (any route, any status).
        "requests_served": req requests_served: u64,
        /// Connections currently accepted and not yet finished.
        "connections_live": req connections_live: u64,
        /// The governor's hard cap on live connections.
        "connections_max": req connections_max: u64,
        /// Connections rejected with `503` by admission control.
        "connections_rejected": req connections_rejected: u64,
        /// Per-route counters, in stable route order.
        "routes": req routes: Vec<RouteMetrics>,
        /// Per-shard scenario-cache statistics, in shard order.
        "cache_shards": req cache_shards: Vec<CacheShardMetrics>,
    }

    /// One span in `GET /v1/trace`: a named, timed slice of work with the
    /// request id that correlates it to an `x-request-id` response header.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TraceSpan {
        /// Span class, e.g. `"parse"`, `"execute"`, `"cache_hit"`.
        "name": req name: String,
        /// Unique span id, 16 lowercase hex digits.
        "span_id": req span_id: String,
        /// Owning request id, 16 lowercase hex digits (all zeros when the
        /// span is not request-scoped).
        "request_id": req request_id: String,
        /// Start, in nanoseconds since the process trace epoch.
        "start_ns": req start_ns: u64,
        /// Duration in nanoseconds (`0` for instant events).
        "duration_ns": req duration_ns: u64,
        /// Span-class-specific detail (cache shard index, byte count, ...).
        "aux": or aux: u64 = 0,
        /// Recording thread's trace-ring id.
        "thread": or thread: u64 = 0,
    }

    /// `GET /v1/trace` response: the most recent spans from every thread's
    /// trace ring, newest first.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TraceResponse {
        /// Recent spans, newest first.
        "spans": req spans: Vec<TraceSpan>,
        /// Whether tracing is currently recording.
        "enabled": or enabled: bool = true,
    }
}

/// The error body's one member, `"error"`; a server may append more
/// (its request id) after it.
impl ToJsonMembers for ApiError {
    fn encode_members<S: JsonSink>(&self, sink: &mut S) {
        sink.key(key!("error"));
        sink.begin_object();
        sink.member(key!("code"), self.code.id());
        sink.member(key!("message"), &self.message);
        sink.member(key!("retryable"), &self.retryable);
        sink.end_object();
    }
}

impl ToJson for ApiError {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        encode_object(self, sink);
    }
}

impl FromJson for ApiError {
    fn from_json(value: &Value) -> Result<ApiError, JsonError> {
        let error = field(value, "error")?;
        let id: String = error.member("code")?;
        let code = ApiErrorCode::parse_id(&id)
            .ok_or_else(|| JsonError::schema("error.code", format!("unknown code '{id}'")))?;
        Ok(ApiError {
            code,
            message: error.member("message")?,
            retryable: error
                .member::<Option<bool>>("retryable")?
                .unwrap_or(code.default_retryable()),
        })
    }
}

// ---------------------------------------------------------------------------
// Query kinds and the versioned envelope
// ---------------------------------------------------------------------------

/// Declares the query kinds once, one row each: variant, wire id, HTTP
/// method, request type and response type. Generates [`QueryKind`],
/// [`Query`], [`Outcome`] and their dispatch.
macro_rules! query_kinds {
    ($( $(#[doc = $doc:literal])* $variant:ident = $id:literal $method:literal, $request:ty => $response:ty; )*) => {
        /// The kind discriminator of [`Query`]/[`Outcome`] — one entry per
        /// workload the engine serves. The kind's [`QueryKind::id`] doubles
        /// as the envelope's `"kind"` member, and [`QueryKind::path`] as the
        /// HTTP route (`POST /v1/<id>`), so the route table, the envelope
        /// dispatch and the metrics labels all derive from this one
        /// enumeration.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum QueryKind {
            $( $(#[doc = $doc])* $variant, )*
        }

        impl QueryKind {
            /// Every kind, in documentation and route-table order.
            pub const ALL: [QueryKind; [$($id),*].len()] = [$(QueryKind::$variant),*];

            /// The stable identifier used by the envelope's `"kind"` member.
            pub fn id(self) -> &'static str {
                match self {
                    $( QueryKind::$variant => $id, )*
                }
            }

            /// The HTTP route serving this kind (see [`QueryKind::method`]).
            pub fn path(self) -> &'static str {
                match self {
                    $( QueryKind::$variant => concat!("/v1/", $id), )*
                }
            }

            /// The HTTP method serving this kind: `GET` for the
            /// parameter-less catalog listing, `POST` for every kind that
            /// carries a request body.
            pub fn method(self) -> &'static str {
                match self {
                    $( QueryKind::$variant => $method, )*
                }
            }

            /// Decodes this kind's request payload (the flat request object a
            /// `POST /v1/<kind>` body carries — no envelope members required).
            ///
            /// # Errors
            ///
            /// Returns the schema error of the offending member.
            pub fn decode_request(self, value: &Value) -> Result<Query, JsonError> {
                Ok(match self {
                    $( QueryKind::$variant => Query::$variant(<$request>::from_json(value)?), )*
                })
            }

            /// Decodes this kind's response payload (the bare result object a
            /// `POST /v1/<kind>` route answers with).
            ///
            /// # Errors
            ///
            /// Returns the schema error of the offending member.
            pub fn decode_result(self, value: &Value) -> Result<Outcome, JsonError> {
                Ok(match self {
                    $( QueryKind::$variant => Outcome::$variant(<$response>::from_json(value)?), )*
                })
            }
        }

        /// One request against the unified engine surface — every workload
        /// the library, the HTTP server and the CLI can answer, as one
        /// versioned type.
        ///
        /// The JSON form is a flat envelope: the request payload with `"v"`
        /// (the [`API_VERSION`]) and `"kind"` (the [`QueryKind::id`])
        /// prepended:
        ///
        /// ```json
        /// {"v": 1, "kind": "sweep", "domain": "dnn", "axis": "apps",
        ///  "from": 1, "to": 12, "steps": 12}
        /// ```
        #[derive(Debug, Clone, PartialEq)]
        pub enum Query {
            $( $(#[doc = $doc])* $variant($request), )*
        }

        impl Query {
            /// This query's kind discriminator.
            pub fn kind(&self) -> QueryKind {
                match self {
                    $( Query::$variant(_) => QueryKind::$variant, )*
                }
            }

            /// The flat request payload (what a `POST /v1/<kind>` body
            /// carries, without the envelope members).
            pub fn request_body(&self) -> Value {
                match self {
                    $( Query::$variant(request) => request.to_json(), )*
                }
            }
        }

        /// The request payload's members, spliced into the envelope.
        impl ToJsonMembers for Query {
            fn encode_members<S: JsonSink>(&self, sink: &mut S) {
                match self {
                    $( Query::$variant(request) => request.encode_members(sink), )*
                }
            }
        }

        /// The result of running a [`Query`] — one variant per query kind,
        /// in the same order. The JSON form is
        /// `{"v": 1, "kind": "<id>", "result": ...}` where `result` is
        /// exactly the body the matching HTTP route answers with.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Outcome {
            $( #[doc = concat!("Result of [`Query::", stringify!($variant), "`].")] $variant($response), )*
        }

        impl Outcome {
            /// This outcome's kind discriminator.
            pub fn kind(&self) -> QueryKind {
                match self {
                    $( Outcome::$variant(_) => QueryKind::$variant, )*
                }
            }

            /// The bare result payload — exactly the body the matching
            /// `POST /v1/<kind>` route answers with.
            pub fn result_json(&self) -> Value {
                ResultOf(self).to_json()
            }

            /// Appends the bare result payload's compact bytes to `out`
            /// with no [`Value`] tree: the body the matching route answers
            /// with, and the same bytes as
            /// `self.result_json().to_json_string()`.
            ///
            /// # Errors
            ///
            /// Returns [`JsonError::NonFinite`] for a NaN or infinite number
            /// in the result; `out` is then left as it was.
            pub fn write_result(&self, out: &mut Vec<u8>) -> Result<(), JsonError> {
                ResultOf(self).write_json(out)
            }

            fn encode_result<S: JsonSink>(&self, sink: &mut S) {
                match self {
                    $( Outcome::$variant(response) => response.encode(sink), )*
                }
            }
        }
    };
}

query_kinds! {
    /// One operating point in one scenario.
    Evaluate = "evaluate" "POST", EvaluateRequest => EvaluateResponse;
    /// Many operating points in one scenario (SoA batch kernel).
    Batch = "batch" "POST", BatchEvalRequest => BatchEvalResponse;
    /// One point evaluated side by side in several scenarios.
    Compare = "compare" "POST", CompareRequest => CompareResponse;
    /// The three crossover searches (closed-form solver).
    Crossover = "crossover" "POST", CrossoverRequest => CrossoverResponse;
    /// Adaptive winner map over a 2-D lattice (quadtree refiner).
    Frontier = "frontier" "POST", FrontierRequest => FrontierResponse;
    /// One axis swept over a linear range.
    Sweep = "sweep" "POST", SweepRequest => SweepSeries;
    /// Dense ratio heatmap over a 2-D lattice.
    Grid = "grid" "POST", GridRequest => GridSweep;
    /// One-at-a-time sensitivity analysis over the Table 1 knobs.
    Tornado = "tornado" "POST", TornadoRequest => TornadoAnalysis;
    /// Monte-Carlo uncertainty analysis over the Table 1 ranges.
    MonteCarlo = "montecarlo" "POST", MonteCarloRequest => MonteCarloResponse;
    /// The Table 3 industry testcases.
    Industry = "industry" "POST", IndustryRequest => IndustryResponse;
    /// One named-catalog (or inline) scenario, evaluated and scored.
    Scenario = "scenario" "POST", ScenarioRunRequest => ScenarioRunResponse;
    /// A scenario replayed against a time-varying carbon intensity.
    Replay = "replay" "POST", ReplayRequest => ReplayResponse;
    /// An inverse query: minimize an objective (or fill a carbon budget)
    /// over a box of search knobs.
    Optimize = "optimize" "POST", OptimizeRequest => OptimizeResponse;
    /// The scenario-catalog listing (the one `GET` kind).
    Catalog = "catalog" "GET", CatalogRequest => CatalogResponse;
}

impl QueryKind {
    /// Parses an envelope identifier back to its kind.
    pub fn parse_id(id: &str) -> Option<QueryKind> {
        QueryKind::ALL.into_iter().find(|kind| kind.id() == id)
    }

    /// The kind served at an HTTP path, if any.
    pub fn from_path(path: &str) -> Option<QueryKind> {
        QueryKind::ALL.into_iter().find(|kind| kind.path() == path)
    }
}

impl std::fmt::Display for QueryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// An outcome's bare result payload.
struct ResultOf<'a>(&'a Outcome);

impl ToJson for ResultOf<'_> {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        self.0.encode_result(sink);
    }
}

/// Writes the `"v"`/`"kind"` envelope members.
fn encode_envelope<S: JsonSink>(kind: QueryKind, sink: &mut S) {
    sink.member(key!("v"), &API_VERSION);
    sink.member(key!("kind"), kind.id());
}

/// Reads and validates the `"v"`/`"kind"` envelope members.
fn decode_envelope(value: &Value) -> Result<QueryKind, JsonError> {
    let version = value.member::<Option<u64>>("v")?.unwrap_or(API_VERSION);
    if version != API_VERSION {
        return Err(JsonError::schema(
            "v",
            format!("unsupported API version {version} (this build speaks {API_VERSION})"),
        ));
    }
    let id: String = value.member("kind")?;
    QueryKind::parse_id(&id)
        .ok_or_else(|| JsonError::schema("kind", format!("unknown query kind '{id}'")))
}

impl ToJson for Query {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.begin_object();
        encode_envelope(self.kind(), sink);
        self.encode_members(sink);
        sink.end_object();
    }
}

impl FromJson for Query {
    fn from_json(value: &Value) -> Result<Query, JsonError> {
        decode_envelope(value)?.decode_request(value)
    }
}

impl ToJson for Outcome {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.begin_object();
        encode_envelope(self.kind(), sink);
        sink.key(key!("result"));
        self.encode_result(sink);
        sink.end_object();
    }
}

impl FromJson for Outcome {
    fn from_json(value: &Value) -> Result<Outcome, JsonError> {
        let kind = decode_envelope(value)?;
        kind.decode_result(field(value, "result")?)
            .map_err(|e| e.at_member("result"))
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use gf_json::parse;

    #[test]
    fn domain_and_axis_ids_round_trip() {
        for domain in Domain::ALL {
            assert_eq!(Domain::from_json(&domain.to_json()).unwrap(), domain);
            assert_eq!(Domain::parse_id(domain.id()), Some(domain));
        }
        for axis in [
            SweepAxis::Applications,
            SweepAxis::LifetimeYears,
            SweepAxis::VolumeUnits,
        ] {
            assert_eq!(SweepAxis::from_json(&axis.to_json()).unwrap(), axis);
        }
        assert!(Domain::from_json(&Value::String("gpu".into())).is_err());
        assert!(SweepAxis::from_json(&Value::String("watts".into())).is_err());
    }

    #[test]
    fn knob_ids_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for knob in Knob::ALL {
            assert_eq!(Knob::parse_id(knob.id()), Some(knob));
            assert!(seen.insert(knob.id()), "duplicate id {}", knob.id());
        }
        assert_eq!(Knob::parse_id("warp_drive"), None);
    }

    #[test]
    fn comparison_round_trips_bit_for_bit() {
        let comparison = crate::Estimator::default()
            .compare_uniform(Domain::Dnn, 5, 2.0, 1_000_000)
            .unwrap();
        let text = comparison.to_json().to_json_string().unwrap();
        let back = PlatformComparison::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, comparison);
        assert_eq!(
            back.fpga.total().as_kg().to_bits(),
            comparison.fpga.total().as_kg().to_bits()
        );
    }

    #[test]
    fn evaluate_request_decodes_with_defaults() {
        let request =
            EvaluateRequest::from_json(&parse(r#"{"domain": "crypto"}"#).unwrap()).unwrap();
        assert_eq!(request.scenario.domain, Domain::Crypto);
        assert!(request.scenario.knobs.is_empty());
        assert_eq!(request.point, OperatingPoint::paper_default());

        let request = EvaluateRequest::from_json(
            &parse(
                r#"{"domain": "dnn", "knobs": {"duty_cycle": 0.5},
                    "point": {"applications": 3, "lifetime_years": 1.5, "volume": 1000}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(request.scenario.knobs, vec![(Knob::DutyCycle, 0.5)]);
        assert_eq!(request.point.applications, 3);
        // Round trip through to_json.
        let again = EvaluateRequest::from_json(
            &parse(&request.to_json().to_json_string().unwrap()).unwrap(),
        )
        .unwrap();
        assert_eq!(again, request);
    }

    #[test]
    fn bad_requests_report_the_offending_field() {
        let missing = EvaluateRequest::from_json(&parse("{}").unwrap()).unwrap_err();
        assert!(missing.to_string().contains("domain"), "{missing}");
        let unknown_knob = EvaluateRequest::from_json(
            &parse(r#"{"domain": "dnn", "knobs": {"warp": 1}}"#).unwrap(),
        )
        .unwrap_err();
        assert!(unknown_knob.to_string().contains("knobs.warp"));
        let bad_point = EvaluateRequest::from_json(
            &parse(r#"{"domain": "dnn", "point": {"volume": -3}}"#).unwrap(),
        )
        .unwrap_err();
        assert!(bad_point.to_string().contains("point"), "{bad_point}");
        let bad_points =
            BatchEvalRequest::from_json(&parse(r#"{"domain": "dnn", "points": 7}"#).unwrap())
                .unwrap_err();
        assert!(bad_points.to_string().contains("points"));
        // Enum decoders report the member they were read from.
        for (error, at) in [
            (
                FrontierRequest::from_json(&parse(r#"{"domain":"dnn","x_axis":"bogus"}"#).unwrap()),
                "x_axis: unknown axis 'bogus'",
            ),
            (
                FrontierRequest::from_json(&parse(r#"{"domain":"dnn","y_axis":3}"#).unwrap()),
                "y_axis: expected an axis string",
            ),
        ] {
            assert_eq!(
                error.unwrap_err().to_string(),
                format!("JSON schema error at {at}")
            );
        }
        let report = parse(r#"{"device":"chip","platform":"GPU"}"#).unwrap();
        assert_eq!(
            IndustryDeviceReport::from_json(&report)
                .unwrap_err()
                .to_string(),
            r#"JSON schema error at platform: expected "FPGA" or "ASIC""#
        );
        let report = parse(r#"{"domain":"dnn","point":{},"samples":1,"ratio_p5":1,"ratio_median":1,"ratio_p95":1,"ratio_mean":1,"fpga_win_probability":1,"majority_winner":"fpga"}"#).unwrap();
        assert_eq!(
            MonteCarloResponse::from_json(&report)
                .unwrap_err()
                .to_string(),
            r#"JSON schema error at majority_winner: expected "FPGA" or "ASIC""#
        );
    }

    #[test]
    fn none_members_are_kept_as_null_or_omitted_by_their_record() {
        let catalog = |point| ScenarioRunRequest {
            scenario: ScenarioRef::Catalog {
                id: "dnn_baseline".to_string(),
                knobs: Vec::new(),
            },
            point,
        };
        let omitted = catalog(None).to_json().to_json_string().unwrap();
        assert_eq!(omitted, r#"{"id":"dnn_baseline","knobs":{}}"#);
        let kept = catalog(Some(OperatingPoint::paper_default()))
            .to_json()
            .to_json_string()
            .unwrap();
        assert!(kept.contains(r#""point":{"applications":5"#), "{kept}");
        let null_point = parse(r#"{"id":"dnn_baseline","point":null}"#).unwrap();
        assert_eq!(
            ScenarioRunRequest::from_json(&null_point).unwrap(),
            catalog(None)
        );

        let response = CrossoverResponse {
            domain: Domain::Crypto,
            base: OperatingPoint::paper_default(),
            applications: None,
            lifetime: None,
            volume: None,
        };
        let text = response.to_json().to_json_string().unwrap();
        assert!(
            text.ends_with(r#""applications":null,"lifetime":null,"volume":null}"#),
            "{text}"
        );
        let absent = parse(r#"{"domain":"crypto","point":{}}"#).unwrap();
        assert_eq!(CrossoverResponse::from_json(&absent).unwrap(), response);
        let wrong = parse(r#"{"domain":"crypto","point":{},"applications":"many"}"#).unwrap();
        assert!(CrossoverResponse::from_json(&wrong)
            .unwrap_err()
            .to_string()
            .contains("at applications:"));
    }

    #[test]
    fn scenario_params_apply_knobs_in_order() {
        let spec = ScenarioSpec {
            domain: Domain::Dnn,
            knobs: vec![(Knob::DutyCycle, 0.1), (Knob::DutyCycle, 0.5)],
        };
        let params = spec.params();
        assert!((params.deployment().duty_cycle.value() - 0.5).abs() < 1e-12);
        assert_eq!(
            ScenarioSpec::baseline(Domain::Dnn).params(),
            EstimatorParams::paper_defaults()
        );
    }

    #[test]
    fn crossover_request_ranges_default_and_decode() {
        let request =
            CrossoverRequest::from_json(&parse(r#"{"domain": "imgproc"}"#).unwrap()).unwrap();
        assert_eq!(request.max_applications, 20);
        assert_eq!(request.lifetime_range, (0.05, 5.0));
        assert_eq!(request.volume_range, (1_000, 50_000_000));
        let request = CrossoverRequest::from_json(
            &parse(
                r#"{"domain": "dnn", "max_applications": 8,
                    "lifetime_range": [0.5, 2.5], "volume_range": [10, 1000]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(request.max_applications, 8);
        assert_eq!(request.lifetime_range, (0.5, 2.5));
        assert_eq!(request.volume_range, (10, 1_000));
        assert!(CrossoverRequest::from_json(
            &parse(r#"{"domain": "dnn", "lifetime_range": [1]}"#).unwrap()
        )
        .is_err());
        // Response round-trip.
        let response = CrossoverResponse {
            domain: Domain::Dnn,
            base: OperatingPoint::paper_default(),
            applications: Some(4),
            lifetime: Some(Crossover {
                at: 1.625,
                direction: CrossoverDirection::FpgaToAsic,
            }),
            volume: None,
        };
        let text = response.to_json().to_json_string().unwrap();
        assert_eq!(
            CrossoverResponse::from_json(&parse(&text).unwrap()).unwrap(),
            response
        );
    }

    #[test]
    fn frontier_request_validates_geometry() {
        let request = FrontierRequest::from_json(
            &parse(r#"{"domain": "dnn", "steps": 8, "x_to": 32}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(request.steps, 8);
        assert_eq!(request.x_range, (1.0, 32.0));
        let (xs, ys) = request.lattice();
        assert_eq!(xs.len(), 8);
        assert_eq!(ys.len(), 8);
        assert!((xs[0] - 1.0).abs() < 1e-12 && (xs[7] - 32.0).abs() < 1e-12);
        for bad in [
            r#"{"domain": "dnn", "steps": 1}"#,
            r#"{"domain": "dnn", "steps": 4096}"#,
            r#"{"domain": "dnn", "y_axis": "apps"}"#,
            r#"{"domain": "dnn", "x_from": 5, "x_to": 2}"#,
        ] {
            assert!(
                FrontierRequest::from_json(&parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn metrics_response_round_trips() {
        let response = MetricsResponse {
            requests_served: 1234,
            connections_live: 7,
            connections_max: 256,
            connections_rejected: 3,
            routes: vec![RouteMetrics {
                route: "POST /v1/evaluate".to_string(),
                requests: 1200,
                errors: 4,
                errors_4xx: 3,
                errors_5xx: 1,
                bytes_in: 96_000,
                bytes_out: 480_000,
                latency: LatencyHistogram {
                    bounds_us: vec![50.0, 100.0, 1000.0],
                    counts: vec![800, 300, 99, 1],
                },
            }],
            cache_shards: vec![
                CacheShardMetrics {
                    entries: 2,
                    hits: 1100,
                    misses: 2,
                },
                CacheShardMetrics {
                    entries: 0,
                    hits: 0,
                    misses: 0,
                },
            ],
        };
        let text = response.to_json().to_json_string().unwrap();
        let back = MetricsResponse::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, response);
        // A histogram whose counts don't cover the overflow bucket is a
        // schema violation, not a silent truncation.
        let bad = r#"{"bounds_us": [50.0], "counts": [1]}"#;
        assert!(LatencyHistogram::from_json(&parse(bad).unwrap()).is_err());
        // Pre-split metrics documents (no 4xx/5xx fields) still decode,
        // with the split classes defaulting to zero.
        let legacy = r#"{"route": "other", "requests": 2, "errors": 1,
            "latency": {"bounds_us": [], "counts": [2]}}"#;
        let decoded = RouteMetrics::from_json(&parse(legacy).unwrap()).unwrap();
        assert_eq!(decoded.errors, 1);
        assert_eq!(decoded.errors_4xx, 0);
        assert_eq!(decoded.errors_5xx, 0);
    }

    #[test]
    fn trace_response_round_trips() {
        let response = TraceResponse {
            spans: vec![
                TraceSpan {
                    name: "execute".to_string(),
                    span_id: "00000000000000ab".to_string(),
                    request_id: "00000000000000cd".to_string(),
                    start_ns: 1_000,
                    duration_ns: 250,
                    aux: 4,
                    thread: 0,
                },
                TraceSpan {
                    name: "cache_hit".to_string(),
                    span_id: "00000000000000ef".to_string(),
                    request_id: "0000000000000000".to_string(),
                    start_ns: 900,
                    duration_ns: 0,
                    aux: 2,
                    thread: 1,
                },
            ],
            enabled: true,
        };
        let text = response.to_json().to_json_string().unwrap();
        let back = TraceResponse::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, response);
    }

    #[test]
    fn batch_response_round_trips() {
        let estimator = crate::Estimator::default();
        let comparisons: Vec<PlatformComparison> = [1u64, 3, 9]
            .iter()
            .map(|&apps| {
                estimator
                    .compare_uniform(Domain::Crypto, apps, 1.5, 20_000)
                    .unwrap()
            })
            .collect();
        let response = BatchEvalResponse {
            comparisons: comparisons.clone(),
        };
        let text = response.to_json().to_json_string().unwrap();
        let back = BatchEvalResponse::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back.comparisons, comparisons);
    }
}
