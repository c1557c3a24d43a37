//! Minimal JSON support: a [`Value`] tree, a compact and a pretty
//! serializer, a recursive-descent parser, and the [`ToJson`]/[`FromJson`]
//! trait pair that replaces `serde`'s derive machinery throughout the
//! workspace (see the `impl_json_struct!`, `impl_json_enum!` and
//! `impl_json_newtype!` macros at the crate root).
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Objects preserve insertion order; maps and sets are
//!    serialized in sorted key order. Serializing the same value twice
//!    yields byte-identical output, so exported artifacts are replayable.
//! 2. **Round-trip fidelity.** `parse(to_string(v)) == v` for every value
//!    the workspace produces, including 128-bit content hashes (`u128`
//!    does not fit in an `f64`, so integers are kept exact).
//! 3. **No dependencies.** `std` only.
//!
//! The enum encoding matches serde's externally-tagged default: a unit
//! variant is a string, a payload variant is a single-key object.
//!
//! # Examples
//!
//! ```
//! use seacma_util::json::{self, Value};
//!
//! let v = Value::Obj(vec![
//!     ("name".to_string(), Value::Str("seacma".to_string())),
//!     ("campaigns".to_string(), Value::UInt(108)),
//!     ("rate".to_string(), Value::Float(0.5)),
//! ]);
//! let text = json::to_string(&v);
//! assert_eq!(text, r#"{"name":"seacma","campaigns":108,"rate":0.5}"#);
//! assert_eq!(json::parse(&text).unwrap(), v);
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasher;

/// A JSON document.
///
/// Numbers are split into three variants so that 128-bit hashes survive a
/// round trip: [`Value::UInt`] holds every non-negative integer,
/// [`Value::Int`] holds strictly negative integers, and [`Value::Float`]
/// holds anything written with a fraction or exponent. Constructors and the
/// parser maintain that normalization, so the derived `PartialEq` is
/// structural *and* numeric for integers.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A strictly negative integer.
    Int(i128),
    /// A non-negative integer (covers `u128` content hashes exactly).
    UInt(u128),
    /// A float — anything with a `.` or exponent in source form.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Pairs keep insertion order; [`to_string`] writes them
    /// as-is, which is what makes exports byte-stable.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a `u64`, if it is a non-negative integer that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// This value as an `f64` (integers are widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::UInt(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The pair list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// Error produced by the parser or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the source text, when parsing; `None` for
    /// conversion errors.
    pub offset: Option<usize>,
}

impl JsonError {
    /// A conversion (non-parse) error.
    pub fn msg(message: impl Into<String>) -> Self {
        JsonError { message: message.into(), offset: None }
    }

    /// Error for a struct field absent from the source object.
    pub fn missing_field(field: &str) -> Self {
        JsonError::msg(format!("missing field `{field}`"))
    }

    /// Error for a value of the wrong JSON type.
    pub fn expected(what: &str, got: &Value) -> Self {
        JsonError::msg(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(off) => write!(f, "{} at byte {off}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Floats print via Rust's shortest round-trippable `Display`, with a
/// trailing `.0` forced onto integral values so the parser reads them back
/// as floats (matching serde_json). Non-finite values have no JSON form and
/// become `null`, like JavaScript's `JSON.stringify`.
fn float_into(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    out.push_str(&format!("{x}"));
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(x) => float_into(*x, out),
        Value::Str(s) => escape_into(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, out: &mut String, depth: usize) {
    const INDENT: &str = "  ";
    match v {
        Value::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                for _ in 0..=depth {
                    out.push_str(INDENT);
                }
                write_pretty(item, out, depth + 1);
            }
            out.push('\n');
            for _ in 0..depth {
                out.push_str(INDENT);
            }
            out.push(']');
        }
        Value::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                for _ in 0..=depth {
                    out.push_str(INDENT);
                }
                escape_into(k, out);
                out.push_str(": ");
                write_pretty(item, out, depth + 1);
            }
            out.push('\n');
            for _ in 0..depth {
                out.push_str(INDENT);
            }
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

/// Serializes to the compact single-line form.
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    write_compact(&v.to_json(), &mut out);
    out
}

/// Serializes to the pretty two-space-indented form.
pub fn to_string_pretty<T: ToJson + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    write_pretty(&v.to_json(), &mut out, 0);
    out
}

/// Pretty form as bytes (drop-in for `serde_json::to_vec_pretty`).
pub fn to_vec_pretty<T: ToJson + ?Sized>(v: &T) -> Vec<u8> {
    to_string_pretty(v).into_bytes()
}

/// Writes the compact form to an `io::Write`.
pub fn to_writer<W: std::io::Write, T: ToJson + ?Sized>(
    mut w: W,
    v: &T,
) -> std::io::Result<()> {
    w.write_all(to_string(v).as_bytes())
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses a JSON document into a [`Value`].
pub fn parse(src: &str) -> Result<Value, JsonError> {
    let mut p = Parser { src, bytes: src.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Parses and converts in one step (drop-in for `serde_json::from_str`).
pub fn from_str<T: FromJson>(src: &str) -> Result<T, JsonError> {
    T::from_json(&parse(src)?)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: Some(self.pos) }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.eat("null").map(|_| Value::Null),
            Some(b't') => self.eat("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.pos += 1; // '['
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.pos += 1; // '{'
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        // Unescaped text is copied a run at a time. A run ends at an ASCII
        // `"` or `\`, so both of its ends fall on char boundaries of `src`.
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.src[run..self.pos]);
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
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: must be followed by \uDCxx.
                                self.eat("\\u")
                                    .map_err(|_| self.err("lone leading surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000
                                    + ((hi - 0xD800) << 10)
                                    + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            run = self.pos; // hex4 advanced pos already
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                    run = self.pos;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Reads exactly four hex digits at `pos` and advances past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = self.src.get(self.pos..end).ok_or_else(|| self.err("non-ascii in \\u escape"))?;
        let n = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(n)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if float {
            return text
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid number"));
        }
        if let Some(neg) = text.strip_prefix('-') {
            // "-0" normalizes to UInt(0) to keep integer equality numeric.
            match neg.parse::<i128>() {
                Ok(0) => Ok(Value::UInt(0)),
                Ok(n) => Ok(Value::Int(-n)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err("invalid number")),
            }
        } else {
            match text.parse::<u128>() {
                Ok(n) => Ok(Value::UInt(n)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err("invalid number")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ToJson / FromJson
// ---------------------------------------------------------------------------

/// Conversion into a JSON [`Value`] — the workspace's `Serialize`.
///
/// Implement via `impl_json_struct!` / `impl_json_enum!` /
/// `impl_json_newtype!` rather than by hand where possible.
pub trait ToJson {
    /// Converts `self` into a JSON value tree.
    fn to_json(&self) -> Value;
}

/// Conversion out of a JSON [`Value`] — the workspace's `Deserialize`.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, erroring on shape or type mismatches.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::expected("bool", v))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string).ok_or_else(|| JsonError::expected("string", v))
    }
}

macro_rules! unsigned_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::UInt(u128::from(*self))
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                match v {
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| JsonError::msg(concat!("integer out of range for ", stringify!($t)))),
                    other => Err(JsonError::expected("unsigned integer", other)),
                }
            }
        }
    )*};
}
unsigned_json!(u8, u16, u32, u64, u128);

impl ToJson for usize {
    fn to_json(&self) -> Value {
        Value::UInt(*self as u128)
    }
}

impl FromJson for usize {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::UInt(n) => usize::try_from(*n)
                .map_err(|_| JsonError::msg("integer out of range for usize")),
            other => Err(JsonError::expected("unsigned integer", other)),
        }
    }
}

macro_rules! signed_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                let n = *self as i128;
                if n < 0 { Value::Int(n) } else { Value::UInt(n as u128) }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let wide: i128 = match v {
                    Value::UInt(n) => i128::try_from(*n)
                        .map_err(|_| JsonError::msg("integer out of range"))?,
                    Value::Int(n) => *n,
                    other => return Err(JsonError::expected("integer", other)),
                };
                <$t>::try_from(wide)
                    .map_err(|_| JsonError::msg(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}
signed_json!(i8, i16, i32, i64, isize);

impl ToJson for i128 {
    fn to_json(&self) -> Value {
        if *self < 0 {
            Value::Int(*self)
        } else {
            Value::UInt(*self as u128)
        }
    }
}

impl FromJson for i128 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::UInt(n) => {
                i128::try_from(*n).map_err(|_| JsonError::msg("integer out of range for i128"))
            }
            Value::Int(n) => Ok(*n),
            other => Err(JsonError::expected("integer", other)),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::expected("number", v))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(f64::from_json(v)? as f32)
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        T::from_json(v).map(Box::new)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(x) => x.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::expected("array", v))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::expected("2-element array", v)),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => Err(JsonError::expected("3-element array", v)),
        }
    }
}

/// Types usable as JSON object keys (serde's map-key role). Keys render to
/// strings; maps serialize in sorted key order for determinism.
pub trait JsonKey: Ord {
    /// Renders the key.
    fn to_key(&self) -> String;
    /// Parses a rendered key back.
    fn from_key(k: &str) -> Result<Self, JsonError>
    where
        Self: Sized;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(k: &str) -> Result<Self, JsonError> {
        Ok(k.to_string())
    }
}

macro_rules! int_json_key {
    ($($t:ty),*) => {$(
        impl JsonKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(k: &str) -> Result<Self, JsonError> {
                k.parse().map_err(|_| JsonError::msg(
                    concat!("invalid ", stringify!($t), " object key")))
            }
        }
    )*};
}
int_json_key!(u16, u32, u64, usize, i64);

fn map_to_json<'a, K: JsonKey + 'a, V: ToJson + 'a>(
    iter: impl Iterator<Item = (&'a K, &'a V)>,
) -> Value {
    let mut pairs: Vec<(&K, &V)> = iter.collect();
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_key(), v.to_json())).collect())
}

impl<K: JsonKey, V: ToJson, S: BuildHasher> ToJson for HashMap<K, V, S> {
    fn to_json(&self) -> Value {
        map_to_json(self.iter())
    }
}

impl<K: JsonKey + std::hash::Hash + Eq, V: FromJson, S: BuildHasher + Default> FromJson
    for HashMap<K, V, S>
{
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or_else(|| JsonError::expected("object", v))?
            .iter()
            .map(|(k, item)| Ok((K::from_key(k)?, V::from_json(item)?)))
            .collect()
    }
}

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Value {
        map_to_json(self.iter())
    }
}

impl<K: JsonKey, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or_else(|| JsonError::expected("object", v))?
            .iter()
            .map(|(k, item)| Ok((K::from_key(k)?, V::from_json(item)?)))
            .collect()
    }
}

impl<T: ToJson + Ord, S: BuildHasher> ToJson for HashSet<T, S> {
    fn to_json(&self) -> Value {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        Value::Arr(items.into_iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + std::hash::Hash + Eq, S: BuildHasher + Default> FromJson for HashSet<T, S> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::expected("array", v))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for BTreeSet<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::expected("array", v))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let s = to_string(v);
        assert_eq!(&parse(&s).unwrap(), v, "compact roundtrip of {s}");
        let p = to_string_pretty(v);
        assert_eq!(&parse(&p).unwrap(), v, "pretty roundtrip of {p}");
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::UInt(0));
        roundtrip(&Value::UInt(u128::MAX));
        roundtrip(&Value::Int(-42));
        roundtrip(&Value::Int(i128::MIN + 1));
        roundtrip(&Value::Float(0.1));
        roundtrip(&Value::Float(-1.5e300));
        roundtrip(&Value::Float(3.0));
        roundtrip(&Value::Str(String::new()));
        roundtrip(&Value::Str("a\"b\\c\nd\te\u{8}\u{c}\u{1}é‰🦀".to_string()));
    }

    #[test]
    fn integral_floats_stay_floats() {
        assert_eq!(to_string(&Value::Float(3.0)), "3.0");
        assert_eq!(parse("3.0").unwrap(), Value::Float(3.0));
        assert_eq!(parse("3").unwrap(), Value::UInt(3));
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(to_string(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Float(f64::INFINITY)), "null");
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(&Value::Arr(vec![]));
        roundtrip(&Value::Obj(vec![]));
        roundtrip(&Value::Obj(vec![
            ("z".into(), Value::Arr(vec![Value::Null, Value::UInt(1)])),
            ("a".into(), Value::Obj(vec![("nested".into(), Value::Bool(false))])),
            ("weird key \"\n".into(), Value::Str("v".into())),
        ]));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(to_string(&v), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""Aé""#).unwrap(), Value::Str("Aé".into()));
        // Surrogate pair for 🦀 (U+1F980).
        assert_eq!(parse(r#""🦀""#).unwrap(), Value::Str("🦀".into()));
        assert!(parse(r#""\ud83e""#).is_err());
    }

    #[test]
    fn parse_errors_carry_offsets() {
        assert!(parse("").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1] trailing").is_err());
        assert!(parse("nul").is_err());
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err(), "depth limit");
    }

    #[test]
    fn hostile_input_is_an_error_or_a_value_never_a_panic() {
        crate::forall!(512, |rng| {
            // Random bytes, half of them JSON punctuation, made lossy UTF-8.
            let bytes = rng.vec_of(0, 48, |r| match r.bool(0.5) {
                true => *r.pick(b"{}[]\",:\\/u0189abcdefABCDEF.-+e ntrul"),
                false => r.u8(),
            });
            if let Ok(v) = parse(&String::from_utf8_lossy(&bytes)) {
                to_string(&v);
            }
            // Values nested one short of, at and one past the depth limit
            // (`k` containers around a scalar is `k + 1` levels).
            let k = MAX_DEPTH - 2 + rng.below(3) as usize;
            let (open, close) = *rng.pick(&[("[", "]"), ("{\"k\":", "}")]);
            let doc = format!("{}0{}", open.repeat(k), close.repeat(k));
            assert_eq!(parse(&doc).is_ok(), k < MAX_DEPTH, "nesting {k}");
            // Surrogate escapes: a pair parses; lone, reversed and
            // truncated ones are errors.
            let hi = 0xD800 + rng.below(0x400) as u32;
            let lo = 0xDC00 + rng.below(0x400) as u32;
            let pair = format!("\\u{hi:04x}\\u{lo:04X}");
            let want = char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00));
            assert_eq!(parse(&format!("\"{pair}\"")), Ok(Value::Str(want.unwrap().into())));
            let cut = &pair[..rng.range(1, pair.len())];
            for bad in [format!("\\u{hi:04x}x"), format!("\\u{lo:04x}\\u{hi:04x}"), cut.into()] {
                assert!(parse(&format!("\"{bad}\"")).is_err(), "{bad}");
            }
            // Unescaped multi-byte runs between escapes come back intact.
            let chars = ['a', 'é', '€', '🦀', '"', '\\', '\n'];
            let text: String = (0..rng.range(0, 12)).map(|_| *rng.pick(&chars)).collect();
            assert_eq!(parse(&to_string(&Value::Str(text.clone()))), Ok(Value::Str(text)));
        });
    }

    #[test]
    fn u128_hashes_survive() {
        let sha = u128::MAX - 7;
        let s = to_string(&sha);
        assert_eq!(from_str::<u128>(&s).unwrap(), sha);
    }

    #[test]
    fn maps_serialize_sorted() {
        let mut m: HashMap<usize, &str> = HashMap::new();
        m.insert(10, "ten");
        m.insert(2, "two");
        m.insert(1, "one");
        assert_eq!(to_string(&m), r#"{"1":"one","2":"two","10":"ten"}"#);
        let back: HashMap<usize, String> = from_str(&to_string(&m)).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[&10], "ten");
    }

    #[test]
    fn builtin_conversions() {
        assert_eq!(from_str::<Vec<u32>>("[1,2,3]").unwrap(), vec![1, 2, 3]);
        assert_eq!(from_str::<Option<String>>("null").unwrap(), None);
        assert_eq!(from_str::<(String, u64)>(r#"["a",9]"#).unwrap(), ("a".into(), 9));
        assert_eq!(from_str::<i64>("-12").unwrap(), -12);
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert_eq!(from_str::<f64>("2").unwrap(), 2.0);
    }

    #[test]
    fn get_and_accessors() {
        let v = parse(r#"{"landing_url":"http://x/","n":3,"ok":true}"#).unwrap();
        assert!(v.get("landing_url").is_some());
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert!(v.get("missing").is_none());
    }
}
