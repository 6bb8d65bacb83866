//! A minimal JSON value, writer and reader.
//!
//! The build environment has no `serde`, so reports are assembled as
//! explicit [`Json`] trees and rendered by hand. Object members keep
//! insertion order, which is what makes the `RunReport` golden file
//! stable across runs and platforms. [`Json::parse`] reads documents
//! back — the baseline differ and the trace-file tests consume the
//! same files the writers produce.
//!
//! The schemas themselves are declared once with `json_record!`: a
//! struct definition whose field list drives both the writer and the
//! reader through [`JsonField`], so a member's name is written exactly
//! once, in the struct.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    Uint(u64),
    /// A finite float (NaN/infinity render as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a member to an object; panics on non-objects (a
    /// programming error in report assembly, not a data condition).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(members) => members.push((key.to_owned(), value.into())),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Builder-style [`Json::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Member lookup on objects, `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer ([`Json::Int`]s that fit
    /// convert), `None` elsewhere.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(n) => Some(*n),
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a signed integer (unsigned values that fit
    /// convert), `None` elsewhere.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Uint(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers convert), `None` elsewhere.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::Uint(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, `None` elsewhere.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, `None` elsewhere.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, `None` on non-arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members in document order, `None` on non-objects.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Parses a JSON document into a [`Json`] tree. Numbers without a
    /// fraction or exponent become [`Json::Uint`]/[`Json::Int`], so a
    /// written report reparses into the kinds it was built from.
    ///
    /// # Errors
    ///
    /// [`JsonParseError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// The compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// The pretty rendering: two-space indent, one member per line.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) if x.is_finite() => {
                // `{:?}` keeps a decimal point or exponent, so the
                // value reparses as a float rather than an integer.
                let _ = write!(out, "{x:?}");
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_items(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(members) => {
                write_items(out, indent, depth, '{', '}', members.len(), |out, i| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }
}

/// Shared array/object layout: compact when `indent` is `None`, one
/// item per line otherwise.
fn write_items(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error from [`Json::parse`]: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description of the defect.
    pub message: String,
    /// Byte offset into the document where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

/// Recursive-descent reader over the document bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_owned(),
            offset: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
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
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let joined =
                                    0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(joined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            // hex4 left pos on the char after the four
                            // digits; skip the +1 below.
                            continue;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (the document came from a
                    // &str, so boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        c if c < 0x80 => 1,
                        c if c >= 0xf0 => 4,
                        c if c >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    /// Four hex digits starting at `pos`; leaves `pos` after them.
    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code =
            u32::from_str_radix(digits, 16).map_err(|_| self.err("bad \\u escape digits"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if is_float {
            return text
                .parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("bad number"));
        }
        if let Some(negative) = text.strip_prefix('-') {
            return negative
                .parse::<u64>()
                .ok()
                .and_then(|_| text.parse::<i64>().ok())
                .map(Json::Int)
                .ok_or_else(|| self.err("integer out of range"));
        }
        text.parse::<u64>()
            .map(Json::Uint)
            .map_err(|_| self.err("integer out of range"))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Uint(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Uint(u64::from(v))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Uint(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::Int(i64::from(v))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Reads and validates the `schema_version` member every versioned
/// document in this crate starts with. Accepts versions in
/// `min..=max`; the common single-version case passes `min == max`.
///
/// # Errors
///
/// `missing schema_version` when the member is absent or not a
/// number, and `unsupported schema_version <v> (this build reads …)`
/// when it is out of range — the exact wording the CLI shows when
/// pointed at the wrong file.
pub fn expect_schema_version(json: &Json, min: u32, max: u32) -> Result<u64, String> {
    let version = json
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing schema_version".to_owned())?;
    if !(u64::from(min)..=u64::from(max)).contains(&version) {
        let reads = if min == max {
            format!("{max}")
        } else {
            format!("{min}..={max}")
        };
        return Err(format!(
            "unsupported schema_version {version} (this build reads {reads})"
        ));
    }
    Ok(version)
}

/// A value that is one member of a `json_record!` schema. A member
/// that is absent, or present with the wrong kind, reads as
/// [`JsonField::absent`], so documents from older writers still load.
pub trait JsonField: Sized {
    /// The value as JSON.
    fn to_json(&self) -> Json;

    /// Reads a present member: `Ok(None)` when it has the wrong kind,
    /// an error naming the value when it cannot be read at all (an
    /// enum string outside the enum).
    fn read(json: &Json) -> Result<Option<Self>, String>;

    /// The value of an absent member (an error for the enums).
    fn absent() -> Result<Self, String>;
}

/// Reads member `key` of `json`, falling back to [`JsonField::absent`].
pub(crate) fn read_member<T: JsonField>(json: &Json, key: &str) -> Result<T, String> {
    match json.get(key).map(T::read).transpose()?.flatten() {
        Some(value) => Ok(value),
        None => T::absent(),
    }
}

macro_rules! leaf {
    ($($ty:ty => $read:expr, $absent:expr;)*) => {$(
        impl JsonField for $ty {
            fn to_json(&self) -> Json {
                Json::from(self.clone())
            }

            fn read(json: &Json) -> Result<Option<Self>, String> {
                Ok($read(json))
            }

            fn absent() -> Result<Self, String> {
                Ok($absent)
            }
        }
    )*};
}

leaf! {
    u32 => |j: &Json| j.as_u64().map(|n| n as u32), 0;
    u64 => Json::as_u64, 0;
    usize => |j: &Json| j.as_u64().map(|n| n as usize), 0;
    i64 => Json::as_i64, 0;
    f64 => Json::as_f64, 0.0;
    bool => Json::as_bool, false;
    String => |j: &Json| j.as_str().map(str::to_owned), String::new();
    // A free-form member: any value is kept; absent reads as `{}`.
    Json => |j: &Json| Some(j.clone()), Json::obj();
}

/// `null` and absent both read as `None`.
impl<T: JsonField> JsonField for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }

    fn read(json: &Json) -> Result<Option<Self>, String> {
        match json {
            Json::Null => Ok(Some(None)),
            _ => T::read(json).map(Some),
        }
    }

    fn absent() -> Result<Self, String> {
        Ok(None)
    }
}

/// Items of the wrong kind are skipped.
impl<T: JsonField> JsonField for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }

    fn read(json: &Json) -> Result<Option<Self>, String> {
        let item = |item| T::read(item).transpose();
        json.as_arr()
            .map(|items| items.iter().filter_map(item).collect())
            .transpose()
    }

    fn absent() -> Result<Self, String> {
        Ok(Vec::new())
    }
}

/// An object keyed by name; entries of the wrong kind are skipped.
impl<T: JsonField> JsonField for BTreeMap<String, T> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }

    fn read(json: &Json) -> Result<Option<Self>, String> {
        let entry = |(key, value): &(String, Json)| {
            Some(T::read(value).transpose()?.map(|v| (key.clone(), v)))
        };
        json.as_obj()
            .map(|members| members.iter().filter_map(entry).collect())
            .transpose()
    }

    fn absent() -> Result<Self, String> {
        Ok(BTreeMap::new())
    }
}

/// Declares schema records: each struct exactly as written (doc
/// comments, derives, fields), plus a private writer and reader,
/// `write_members` and `read_members`, keyed by each field's name in
/// declaration order.
///
/// A plain record also implements [`JsonField`] as an object: anything
/// else reads as absent, and an absent record reads with every member
/// absent.
///
/// A struct prefixed with `document(version: V, oldest: O, noun: "…")`
/// is a top-level schema with its own codec:
///
/// * `to_json` writes `schema_version` (`V`), then `kind` when the
///   document has one, then the members;
/// * `to_json_string` is that tree pretty-printed, newline-terminated;
/// * `from_json` rejects a non-object as `<noun> is not a JSON object`,
///   reads schema versions `O..=V` only ([`expect_schema_version`]),
///   checks `kind`, then reads the members;
/// * its [`JsonField`] impl embeds the document in another one with its
///   own `schema_version`, and reads it back through `from_json`.
///
/// Two optional facts follow the noun: `kind: K` fixes a `kind` member
/// (a document without it reads as `document kind is not "K"`), and
/// `then: f` passes what `read_members` returns through `f(Self) ->
/// Self` (a summary recomputed from the members it summarises).
macro_rules! json_record {
    () => {};
    (@document $name:ident (
        version: $version:expr, oldest: $oldest:expr, noun: $noun:literal
        $(, kind: $kind:expr)? $(, then: $then:expr)? $(,)?
    )) => {
        impl $name {
            /// The document as a JSON tree: `schema_version`, the fixed
            /// `kind` if it has one, then its members.
            pub fn to_json(&self) -> $crate::json::Json {
                let mut json = $crate::json::Json::obj().with("schema_version", $version);
                $(json.set("kind", $kind);)?
                self.write_members(&mut json);
                json
            }

            /// The pretty-printed JSON document, newline-terminated.
            pub fn to_json_string(&self) -> String {
                self.to_json().render_pretty()
            }

            #[doc = concat!("Reads the ", $noun, " back from its `to_json` shape.")]
            ///
            /// # Errors
            ///
            /// A message naming the problem: a non-object document, a
            /// missing or unsupported `schema_version`, a wrong `kind`,
            /// or a member that cannot be read.
            pub fn from_json(json: &$crate::json::Json) -> Result<Self, String> {
                json.as_obj().ok_or(concat!($noun, " is not a JSON object"))?;
                $crate::json::expect_schema_version(json, $oldest, $version)?;
                $(if json.get("kind").and_then($crate::json::Json::as_str) != Some($kind) {
                    return Err(format!("document kind is not {:?}", $kind));
                })?
                Self::read_members(json)$(.map($then))?
            }
        }

        impl $crate::json::JsonField for $name {
            fn to_json(&self) -> $crate::json::Json {
                $name::to_json(self)
            }

            fn read(json: &$crate::json::Json) -> Result<Option<Self>, String> {
                $name::from_json(json).map(Some)
            }

            fn absent() -> Result<Self, String> {
                Self::read_members(&$crate::json::Json::obj())
            }
        }
    };
    (@struct $(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $name {
            fn write_members(&self, out: &mut $crate::json::Json) {
                $(out.set(stringify!($field), $crate::json::JsonField::to_json(&self.$field));)*
            }

            fn read_members(json: &$crate::json::Json) -> Result<Self, String> {
                Ok($name {
                    $($field: $crate::json::read_member(json, stringify!($field))?,)*
                })
            }
        }
    };
    (document $facts:tt $(#[$meta:meta])* $vis:vis struct $name:ident $body:tt $($rest:tt)*) => {
        $crate::json::json_record!(@struct $(#[$meta])* $vis struct $name $body);
        $crate::json::json_record!(@document $name $facts);
        $crate::json::json_record!($($rest)*);
    };
    ($(#[$meta:meta])* $vis:vis struct $name:ident $body:tt $($rest:tt)*) => {
        $crate::json::json_record!(@struct $(#[$meta])* $vis struct $name $body);

        impl $crate::json::JsonField for $name {
            fn to_json(&self) -> $crate::json::Json {
                let mut out = $crate::json::Json::obj();
                self.write_members(&mut out);
                out
            }

            fn read(json: &$crate::json::Json) -> Result<Option<Self>, String> {
                match json.as_obj() {
                    Some(_) => Self::read_members(json).map(Some),
                    None => Ok(None),
                }
            }

            fn absent() -> Result<Self, String> {
                Self::read_members(&$crate::json::Json::obj())
            }
        }

        $crate::json::json_record!($($rest)*);
    };
}
pub(crate) use json_record;

/// Declares a string enum: the enum as written, each variant followed
/// by `= "its JSON string"`, plus `as_str`, `parse` and a [`JsonField`]
/// impl. An unknown or absent string is an error naming the string
/// and the enum, as `$what`.
macro_rules! json_enum {
    ($(#[$meta:meta])* $vis:vis enum $name:ident($what:literal) {
        $($(#[$vmeta:meta])* $variant:ident = $text:literal),* $(,)?
    }) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// The value as its JSON string.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $($name::$variant => $text,)*
                }
            }

            /// Parses a JSON string; `None` for strings outside the enum.
            pub fn parse(s: &str) -> Option<$name> {
                match s {
                    $($text => Some($name::$variant),)*
                    _ => None,
                }
            }
        }

        impl $crate::json::JsonField for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::from(self.as_str())
            }

            fn read(json: &$crate::json::Json) -> Result<Option<Self>, String> {
                let s = json.as_str().unwrap_or_default();
                match $name::parse(s) {
                    Some(value) => Ok(Some(value)),
                    None => Err(format!(concat!("unknown ", $what, " {:?}"), s)),
                }
            }

            fn absent() -> Result<Self, String> {
                Err(concat!("unknown ", $what, " \"\"").to_owned())
            }
        }
    };
}
pub(crate) use json_enum;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let j = Json::obj()
            .with("a", 1u64)
            .with("b", Json::Arr(vec![Json::Bool(true), Json::Null]))
            .with("c", "x\"y");
        assert_eq!(j.render(), r#"{"a":1,"b":[true,null],"c":"x\"y"}"#);
    }

    #[test]
    fn pretty_rendering_is_line_per_member() {
        let j = Json::obj().with("n", 2u64).with("arr", Json::Arr(vec![Json::Uint(1)]));
        assert_eq!(j.render_pretty(), "{\n  \"n\": 2,\n  \"arr\": [\n    1\n  ]\n}\n");
    }

    #[test]
    fn escaping_and_floats() {
        let escaped = Json::Str("a\nb\t\u{1}".into()).render();
        assert_eq!(escaped, "\"a\\nb\\t\\u0001\"");
        assert_eq!(Json::Float(0.5).render(), "0.5");
        assert_eq!(Json::Float(1.0).render(), "1.0", "floats keep a decimal point");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Int(-3).render(), "-3");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::obj().render_pretty(), "{}\n");
        assert_eq!(Json::Arr(vec![]).render(), "[]");
    }

    #[test]
    fn get_looks_up_members() {
        let j = Json::obj().with("k", 7u64);
        assert_eq!(j.get("k"), Some(&Json::Uint(7)));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Null.get("k"), None);
    }

    #[test]
    fn option_maps_to_null() {
        assert_eq!(Json::from(None::<u64>), Json::Null);
        assert_eq!(Json::from(Some(3u64)), Json::Uint(3));
    }

    #[test]
    fn schema_version_in_range_is_returned() {
        let j = Json::obj().with("schema_version", 2u64);
        assert_eq!(expect_schema_version(&j, 1, 3), Ok(2));
        assert_eq!(expect_schema_version(&j, 2, 2), Ok(2));
    }

    #[test]
    fn schema_version_missing_or_wrong_kind_is_named() {
        assert_eq!(
            expect_schema_version(&Json::obj(), 1, 1),
            Err("missing schema_version".to_owned())
        );
        let j = Json::obj().with("schema_version", "two");
        assert_eq!(
            expect_schema_version(&j, 1, 1),
            Err("missing schema_version".to_owned())
        );
    }

    #[test]
    fn unsupported_schema_version_error_message() {
        let j = Json::obj().with("schema_version", 99u64);
        assert_eq!(
            expect_schema_version(&j, 1, 1),
            Err("unsupported schema_version 99 (this build reads 1)".to_owned())
        );
        assert_eq!(
            expect_schema_version(&j, 1, 3),
            Err("unsupported schema_version 99 (this build reads 1..=3)".to_owned())
        );
    }
}
