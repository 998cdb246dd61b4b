//! Minimal JSON support for the workspace.
//!
//! The build must be hermetic: the CI environment resolves no external
//! registry, so the workspace carries its own small JSON value type,
//! parser and printer instead of depending on `serde`/`serde_json`.
//! Object keys keep insertion order, which makes every export
//! byte-deterministic for a given input — the same property the rest of
//! the simulator guarantees for traces.
//!
//! The dialect is full JSON minus two deliberate omissions: no `\uXXXX`
//! surrogate-pair validation beyond basic decoding, and numbers are
//! `f64` (every quantity we persist — timestamps in nanoseconds, counts,
//! accuracies — fits in 53 bits of mantissa).
//!
//! The control plane's documents — policies, machine specs, splitters,
//! registry exports — get their wire form from one codec, the [`Wire`]
//! trait, so the format is decided here and nowhere else: scalars and
//! [`Nanos`], [`Direction`] (`"Out"` / `"In"`), [`Histogram`], arrays,
//! `[a, b]` pairs, objects read through [`fields`] (every key the type
//! declares, no other; an absent optional field is `None`), and enums
//! tagged externally the way serde would ([`wire_enum!`](crate::wire_enum)):
//! a unit variant is its name, any other `{"Name": body}`.
//!
//! ```
//! use netsim::json::{Json, Wire};
//! use netsim::{Direction, Nanos};
//! let pair = (Direction::In, Nanos(1_500));
//! assert_eq!(pair.to_json().to_string_compact(), r#"["In",1500]"#);
//! assert_eq!(Wire::from_json(&Json::parse(r#"["In",1500]"#).unwrap()), Ok(pair));
//! ```

use crate::capture::Direction;
use crate::stats::Histogram;
use crate::time::Nanos;
use std::fmt;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`]: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// A decoding error (it has no byte offset: the text parsed).
    pub fn new(message: impl Into<String>) -> JsonError {
        JsonError {
            offset: 0,
            message: message.into(),
        }
    }

    /// Prefix the message with where in the document it happened.
    fn within(self, at: &str) -> JsonError {
        JsonError::new(format!("{at}: {}", self.message))
    }
}

impl Json {
    // -- constructors ------------------------------------------------

    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a key to an object (panics on non-objects — construction
    /// is always static code, never data-driven).
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(entries) => entries.push((key.to_string(), value.into())),
            _ => panic!("Json::set on non-object"),
        }
        self
    }

    /// [`Json::set`] for an optional field: `None` writes no key, which
    /// is what [`Fields::opt`] reads back as `None`.
    pub fn set_opt(self, key: &str, value: Option<Json>) -> Json {
        match value {
            Some(v) => self.set(key, v),
            None => self,
        }
    }

    // -- accessors ---------------------------------------------------

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `get` that reports which key was missing — for deserializers.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key).ok_or_else(|| JsonError {
            offset: 0,
            message: format!("missing field `{key}`"),
        })
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        // 2^64: every whole number below it fits; `as` would saturate
        // anything larger (`1e300`) to `u64::MAX` instead of refusing it.
        const LIMIT: f64 = 18_446_744_073_709_551_616.0;
        match self {
            Json::Num(x) if *x >= 0.0 && *x < LIMIT && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// [`Json::as_u64`] narrowed to `u32`: a value past `u32::MAX` is
    /// `None`, never a silent wrap.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|x| u32::try_from(x).ok())
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Typed field extraction for readers of this workspace's reports;
    /// control-plane documents decode through [`Wire`] instead.
    pub fn req_u64(&self, key: &str) -> Result<u64, JsonError> {
        self.field(key)?
            .as_u64()
            .ok_or_else(|| type_err(key, "u64"))
    }

    pub fn req_f64(&self, key: &str) -> Result<f64, JsonError> {
        self.field(key)?
            .as_f64()
            .ok_or_else(|| type_err(key, "number"))
    }

    pub fn req_bool(&self, key: &str) -> Result<bool, JsonError> {
        self.field(key)?
            .as_bool()
            .ok_or_else(|| type_err(key, "bool"))
    }

    pub fn req_str(&self, key: &str) -> Result<&str, JsonError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| type_err(key, "string"))
    }

    pub fn req_arr(&self, key: &str) -> Result<&[Json], JsonError> {
        self.field(key)?
            .as_arr()
            .ok_or_else(|| type_err(key, "array"))
    }

    // -- printing ----------------------------------------------------

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !entries.is_empty() {
                    newline(out, indent, depth);
                }
                out.push('}');
            }
        }
    }

    // -- parsing -----------------------------------------------------

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

fn type_err(key: &str, expected: &str) -> JsonError {
    JsonError {
        offset: 0,
        message: format!("field `{key}` is not a {expected}"),
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_num(out: &mut String, x: f64) {
    if x.fract() == 0.0 && x.abs() < 9.0e15 {
        // Integers print without a trailing `.0`, like serde_json.
        out.push_str(&format!("{}", x as i64));
    } else {
        out.push_str(&format!("{x}"));
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                s.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

// -- conversions -----------------------------------------------------

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
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
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

// -- the wire codec --------------------------------------------------

/// A type with exactly one JSON wire form, written by `to_json` and read
/// back by `from_json`: `T::from_json(&x.to_json()) == Ok(x)`.
pub trait Wire: Sized {
    fn to_json(&self) -> Json;

    /// Decode, refusing what `to_json` would never write: a wrong type,
    /// an unknown tag, a missing or an unknown field.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

fn expected(what: &str) -> JsonError {
    JsonError::new(format!("expected {what}"))
}

impl Wire for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: &Json) -> Result<f64, JsonError> {
        v.as_f64().ok_or_else(|| expected("a number"))
    }
}

impl Wire for u64 {
    fn to_json(&self) -> Json {
        Json::from(*self)
    }
    fn from_json(v: &Json) -> Result<u64, JsonError> {
        v.as_u64().ok_or_else(|| expected("a u64"))
    }
}

/// Past `u32::MAX` is an error, never a wrap: `2^32 + k` would otherwise
/// decode as `k` and pass validation.
impl Wire for u32 {
    fn to_json(&self) -> Json {
        Json::from(*self)
    }
    fn from_json(v: &Json) -> Result<u32, JsonError> {
        v.as_u32().ok_or_else(|| expected("a u32"))
    }
}

impl Wire for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(v: &Json) -> Result<bool, JsonError> {
        v.as_bool().ok_or_else(|| expected("a bool"))
    }
}

impl Wire for String {
    fn to_json(&self) -> Json {
        Json::from(self.as_str())
    }
    fn from_json(v: &Json) -> Result<String, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| expected("a string"))
    }
}

/// Whole nanoseconds.
impl Wire for Nanos {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
    fn from_json(v: &Json) -> Result<Nanos, JsonError> {
        u64::from_json(v).map(Nanos)
    }
}

crate::wire_enum!(Direction { Out, In });

/// `{lo, hi, counts, total}`, the §4.1 policy-sharing form. Decoding
/// checks shape only: whether the bins back up `total` is the
/// validator's question.
impl Wire for Histogram {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("lo", self.lo)
            .set("hi", self.hi)
            .set("counts", self.counts.to_json())
            .set("total", self.total)
    }
    fn from_json(v: &Json) -> Result<Histogram, JsonError> {
        fields(v, |f| {
            Ok(Histogram {
                lo: f.req("lo")?,
                hi: f.req("hi")?,
                counts: f.req("counts")?,
                total: f.req("total")?,
            })
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: &Json) -> Result<Vec<T>, JsonError> {
        let items = v.as_arr().ok_or_else(|| expected("an array"))?;
        let item = |(i, x)| T::from_json(x).map_err(|e| e.within(&format!("item {i}")));
        items.iter().enumerate().map(item).collect()
    }
}

/// A two-element array.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
    fn from_json(v: &Json) -> Result<(A, B), JsonError> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(expected("a two-element array")),
        }
    }
}

/// Decode the object `v` with `read`, which takes each field the type
/// declares from a [`Fields`]. Whatever key `read` did not take — a typo
/// such as `limt` for `limit`, or a key given twice — fails the decode.
pub fn fields<T>(
    v: &Json,
    read: impl FnOnce(&mut Fields<'_>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let Json::Obj(entries) = v else {
        return Err(expected("an object"));
    };
    let mut f = Fields {
        entries,
        taken: vec![false; entries.len()],
    };
    let out = read(&mut f)?;
    match f.entries.iter().zip(&f.taken).find(|(_, &taken)| !taken) {
        Some(((key, _), _)) => Err(JsonError::new(format!("unknown field `{key}`"))),
        None => Ok(out),
    }
}

/// An object's fields, taken one key at a time by a [`fields`] reader.
pub struct Fields<'a> {
    entries: &'a [(String, Json)],
    taken: Vec<bool>,
}

impl Fields<'_> {
    /// A required field.
    pub fn req<T: Wire>(&mut self, key: &str) -> Result<T, JsonError> {
        self.opt(key)?
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// An optional field: absent is `None` (what [`Json::set_opt`]
    /// writes for it); present, it must decode.
    pub fn opt<T: Wire>(&mut self, key: &str) -> Result<Option<T>, JsonError> {
        let Some(i) = self.entries.iter().position(|(k, _)| k == key) else {
            return Ok(None);
        };
        self.taken[i] = true;
        T::from_json(&self.entries[i].1)
            .map(Some)
            .map_err(|e| e.within(&format!("field `{key}`")))
    }
}

/// Split an externally tagged enum `what` into its variant's name and
/// body: a string is a unit variant (no body), a one-key object any
/// other.
pub fn variant<'a>(v: &'a Json, what: &str) -> Result<(&'a str, Option<&'a Json>), JsonError> {
    match v {
        Json::Str(name) => Ok((name, None)),
        Json::Obj(entries) if entries.len() == 1 => Ok((&entries[0].0, Some(&entries[0].1))),
        _ => Err(expected(&format!("a {what} variant"))),
    }
}

/// Implement [`Wire`] for an enum in the externally tagged form a serde
/// derive writes: a unit variant is its name, a struct variant
/// `{"Name": {fields}}` (read through [`fields`]), a one-field tuple
/// variant `{"Name": inner}`. Name every variant, with its fields in
/// wire order or its tuple binding; a name or shape the list does not
/// have decodes to an error.
///
/// ```
/// use netsim::json::{Json, Wire};
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Disc { r: f64 },
///     Id(u32),
/// }
/// netsim::wire_enum!(Shape { Dot, Disc { r }, Id(id) });
/// let disc = Shape::Disc { r: 1.5 };
/// assert_eq!(disc.to_json().to_string_compact(), r#"{"Disc":{"r":1.5}}"#);
/// assert_eq!(Shape::from_json(&Json::from("Dot")), Ok(Shape::Dot));
/// assert!(Shape::from_json(&Json::from("Disc")).is_err());
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $($var:ident $({ $($field:ident),+ })? $(($inner:ident))?),+ $(,)? }) => {
        impl $crate::json::Wire for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $($ty::$var $({ $($field),+ })? $(($inner))? => {
                        $crate::wire_enum!(@encode $var $({ $($field),+ })? $(($inner))?)
                    })+
                }
            }

            fn from_json(v: &$crate::json::Json) -> Result<$ty, $crate::json::JsonError> {
                let (name, body) = $crate::json::variant(v, stringify!($ty))?;
                let decoded = match name {
                    $(n if n == stringify!($var) => {
                        $crate::wire_enum!(@decode $ty::$var, body $({ $($field),+ })? $(($inner))?)
                    })+
                    _ => None,
                };
                decoded.unwrap_or_else(|| {
                    let what = stringify!($ty);
                    Err($crate::json::JsonError::new(format!("unknown {what} variant `{name}`")))
                })
            }
        }
    };
    (@encode $var:ident) => {
        $crate::json::Json::from(stringify!($var))
    };
    (@encode $var:ident { $($field:ident),+ }) => {
        $crate::json::Json::obj().set(
            stringify!($var),
            $crate::json::Json::obj()$(.set(stringify!($field), $crate::json::Wire::to_json($field)))+,
        )
    };
    (@encode $var:ident ($inner:ident)) => {
        $crate::json::Json::obj().set(stringify!($var), $crate::json::Wire::to_json($inner))
    };
    (@decode $ty:ident::$var:ident, $body:ident) => {
        $body.is_none().then_some(Ok($ty::$var))
    };
    (@decode $ty:ident::$var:ident, $body:ident { $($field:ident),+ }) => {
        $body.map(|b| {
            $crate::json::fields(b, |f| Ok($ty::$var { $($field: f.req(stringify!($field))?),+ }))
        })
    };
    (@decode $ty:ident::$var:ident, $body:ident ($inner:ident)) => {
        $body.map(|b| $crate::json::Wire::from_json(b).map($ty::$var))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-17", "3.25", "\"hi\""] {
            let v = Json::parse(text).expect(text);
            assert_eq!(v.to_string_compact(), text, "round trip {text}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#" {"a": [1, 2, {"b": null}], "c": "x\ny"} "#).expect("parse");
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(v.get("c").and_then(|c| c.as_str()), Some("x\ny"));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj().set("z", 1u64).set("a", 2u64).set("m", 3u64);
        assert_eq!(v.to_string_compact(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn pretty_print_round_trips() {
        let v = Json::obj()
            .set("xs", vec![1u64, 2, 3])
            .set("name", "trace \"q\"")
            .set("ok", true);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).expect("reparse"), v);
    }

    #[test]
    fn rejects_garbage() {
        for text in ["", "[1,", "{\"a\"}", "nul", "1 2", "\"unterminated"] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let s = "tab\there \"quotes\" back\\slash\nnewline \u{1}ctl";
        let v = Json::Str(s.to_string());
        let back = Json::parse(&v.to_string_compact()).expect("parse");
        assert_eq!(back.as_str(), Some(s));
    }

    #[test]
    fn unicode_escape_decodes() {
        let v = Json::parse(r#""éA""#).expect("parse");
        assert_eq!(v.as_str(), Some("éA"));
    }

    #[test]
    fn numbers_with_exponents() {
        let v = Json::parse("[1e3, -2.5E-2, 0.125]").expect("parse");
        let xs: Vec<f64> = v
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(xs, vec![1000.0, -0.025, 0.125]);
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        // Past u64 is refused, not saturated to u64::MAX; the largest f64
        // below 2^64 still fits.
        let v = Json::parse("[1e300, 18446744073709551616, 18446744073709549568]").unwrap();
        let xs = v.as_arr().unwrap();
        assert_eq!(xs[0].as_u64(), None);
        assert_eq!(xs[1].as_u64(), None, "2^64 itself does not fit");
        assert_eq!(xs[2].as_u64(), Some(18_446_744_073_709_549_568));
    }

    #[test]
    fn u32_accessors_reject_out_of_range_instead_of_wrapping() {
        let v = Json::parse(r#"{"max":4294967295,"wrap":4294967298,"frac":1.5}"#).unwrap();
        let field = |key: &str| v.get(key).map(u32::from_json);
        assert_eq!(field("max"), Some(Ok(u32::MAX)));
        assert!(field("frac").unwrap().is_err());
        assert_eq!(v.get("wrap").unwrap().as_u32(), None);
        // Read as an object field, the error names the field and the type.
        let err = fields(&v, |f| f.req::<u32>("wrap")).unwrap_err();
        assert_eq!(err.message, "field `wrap`: expected a u32");
        assert!(fields(&v, |f| f.req::<u32>("absent")).is_err());
    }

    #[test]
    fn fields_take_declared_keys_only_and_read_absent_as_none() {
        let read = |text: &str| {
            let v = Json::parse(text).unwrap();
            fields(&v, |f| Ok((f.req::<u64>("n")?, f.opt::<Direction>("dir")?)))
        };
        assert_eq!(read(r#"{"n":1}"#), Ok((1, None)));
        assert_eq!(read(r#"{"dir":"In","n":2}"#), Ok((2, Some(Direction::In))));
        for (text, message) in [
            (r#"{"n":1,"dri":"In"}"#, "unknown field `dri`"),
            (r#"{"n":1,"n":2}"#, "unknown field `n`"),
            (r#"{"dir":"In"}"#, "missing field `n`"),
            (r#"{"n":1,"dir":null}"#, "field `dir`: expected a Direction"),
            ("[1]", "expected an object"),
        ] {
            let err = read(text).unwrap_err();
            assert!(err.message.starts_with(message), "{text}: {err}");
        }
    }

    #[test]
    fn wire_forms_round_trip_and_locate_errors() {
        let mut h = Histogram::new(0.5, 10.0, 3);
        h.push(2.0);
        let v = (vec![(Nanos(7), true)], (h, String::from("x\"y")));
        let text = v.to_json().to_string_compact();
        let want = r#"[[[7,true]],[{"lo":0.5,"hi":10,"counts":[1,0,0],"total":1},"x\"y"]]"#;
        assert_eq!(text, want);
        assert_eq!(Wire::from_json(&Json::parse(&text).unwrap()), Ok(v));
        let err = Vec::<u32>::from_json(&Json::parse("[1,2,-3]").unwrap()).unwrap_err();
        assert_eq!(err.message, "item 2: expected a u32");
        assert!(<(u32, u32)>::from_json(&Json::parse("[1,2,3]").unwrap()).is_err());

        let state = Json::obj().set("State", 3u32);
        assert_eq!(state.to_string_compact(), r#"{"State":3}"#);
        assert_eq!(
            variant(&state, "Target"),
            Ok(("State", Some(&Json::from(3u32))))
        );
        assert_eq!(variant(&Json::from("End"), "Target"), Ok(("End", None)));
        let two = Json::obj().set("State", 1u32).set("End", 2u32);
        assert_eq!(
            variant(&two, "Target").unwrap_err().message,
            "expected a Target variant"
        );
    }
}
