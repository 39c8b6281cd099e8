//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal serialization framework under the `serde` package
//! name. It is intentionally *not* wire-compatible with real serde:
//! the only guarantee is that values produced by this crate's
//! [`Serialize`] round-trip through [`Deserialize`] (and the JSON
//! parser in the sibling `serde_json` shim). All consumers are inside
//! this repository, so self-consistency is sufficient.
//!
//! # One writer
//!
//! [`Serialize`] writes JSON text straight into a [`Writer`]; there is
//! no intermediate tree. Every JSON byte the workspace produces —
//! `serde_json::to_string`/`to_string_pretty`/`to_vec`, trace digests,
//! store objects, daemon frames — comes out of this one writer, so the
//! formatting rules live in exactly one place:
//!
//! * floats print with `{:?}` (always a decimal point or exponent, so
//!   they parse back as floats); non-finite floats print as `null`;
//! * strings escape `"`, `\`, `\n`, `\r`, `\t` and other control
//!   characters as `\u00XX`;
//! * pretty output indents by two spaces per level, with `key: value`
//!   pairs; empty containers print as `[]` / `{}` in both modes.
//!
//! Deserialization still goes through the self-describing [`Value`]
//! tree, which the `serde_json` parser builds. [`Value`] is itself
//! [`Serialize`], so writing a parsed tree reproduces the text it was
//! parsed from byte for byte.
//!
//! Supported shapes (via `#[derive(Serialize, Deserialize)]`):
//! structs with named fields, tuple structs, unit structs, and enums
//! with unit / tuple / struct variants. Of the `#[serde(...)]`
//! attributes only `#[serde(default)]` on a named field is honored.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing value tree JSON text parses into.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null` (also `Option::None` and non-finite floats).
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer outside `i64` range.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered map (insertion order preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object value.
    ///
    /// # Errors
    ///
    /// If `self` is not an object or the field is missing.
    pub fn field<'a>(&'a self, name: &str) -> Result<&'a Value, Error> {
        match self {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::new(format!("missing field `{name}`"))),
            other => Err(Error::new(format!(
                "expected object with field `{name}`, found {}",
                other.kind()
            ))),
        }
    }

    /// Indexes into an array value.
    ///
    /// # Errors
    ///
    /// If `self` is not an array or the index is out of bounds.
    pub fn index(&self, i: usize) -> Result<&Value, Error> {
        match self {
            Value::Array(items) => items
                .get(i)
                .ok_or_else(|| Error::new(format!("array index {i} out of bounds"))),
            other => Err(Error::new(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }

    /// The elements of an array value.
    ///
    /// # Errors
    ///
    /// If `self` is not an array.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(Error::new(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization/deserialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl Error {
    /// Creates an error from a message.
    pub fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A JSON text writer: the sink every [`Serialize`] impl writes into.
///
/// Containers are written as `begin_*`, then one [`Writer::item`] per
/// array element or one [`Writer::field`] per object member, then
/// `end_*`; the writer places separators and (in pretty mode)
/// newlines and indentation.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// No member has been written yet in the innermost open container.
    first: bool,
}

impl Writer {
    /// A writer appending to `out`: compact, or pretty-printed with a
    /// two-space indent.
    pub fn new(out: String, pretty: bool) -> Self {
        Writer {
            out,
            pretty,
            depth: 0,
            first: true,
        }
    }

    /// The buffer, with everything written so far appended.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes a boolean.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push('-');
        }
        self.u64(n.unsigned_abs());
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, mut n: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
    }

    /// Writes a float: `{:?}` keeps a decimal point or exponent, so the
    /// parser reads the number back as a float; non-finite values have
    /// no JSON form and write `null`.
    pub fn f64(&mut self, x: f64) {
        if x.is_finite() {
            let _ = write!(self.out, "{x:?}");
        } else {
            self.null();
        }
    }

    /// Writes an escaped string literal.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every byte that needs escaping is ASCII, so `run..i` and
            // `i + 1..` always split `s` on character boundaries.
            self.out.push_str(&s[run..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{:04x}", b);
            } else {
                self.out.push_str(escape);
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Writes one array element.
    pub fn item<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.separate();
        value.serialize(self);
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Writes one object member.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.serialize(self);
    }

    /// Writes an object member's key; the caller writes its value next.
    pub fn key(&mut self, key: &str) {
        self.separate();
        self.str(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Writes a whole array from an iterator of elements.
    fn seq<'a, T: Serialize + 'a>(&mut self, items: impl IntoIterator<Item = &'a T>) {
        self.begin_array();
        for item in items {
            self.item(item);
        }
        self.end_array();
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.out.push(bracket);
        // A closed container is a member of its parent (or the root),
        // so the parent is no longer empty either.
        self.first = false;
    }

    /// The separator before a container member: a comma after the
    /// first, then (pretty) a newline at the member's depth.
    fn separate(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline();
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', 2 * self.depth));
        }
    }
}

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Writes `self` into `w`.
    fn serialize(&self, w: &mut Writer);
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`].
    ///
    /// # Errors
    ///
    /// If the value's shape does not match `Self`.
    fn deserialize(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------
// Primitive impls.
// ---------------------------------------------------------------------

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) { w.i64(i64::from(*self)) }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let n: i64 = match v {
                    Value::Int(n) => *n,
                    Value::UInt(n) => i64::try_from(*n)
                        .map_err(|_| Error::new("integer out of range"))?,
                    other => return Err(Error::new(format!(
                        "expected integer, found {}", other.kind()))),
                };
                <$t>::try_from(n).map_err(|_| Error::new("integer out of range"))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) { w.u64(*self as u64) }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let n: u64 = match v {
                    Value::Int(n) => u64::try_from(*n)
                        .map_err(|_| Error::new("negative integer for unsigned type"))?,
                    Value::UInt(n) => *n,
                    other => return Err(Error::new(format!(
                        "expected integer, found {}", other.kind()))),
                };
                <$t>::try_from(n).map_err(|_| Error::new("integer out of range"))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for isize {
    fn serialize(&self, w: &mut Writer) {
        w.i64(*self as i64);
    }
}
impl Deserialize for isize {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        i64::deserialize(v).map(|n| n as isize)
    }
}

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(*self);
    }
}
impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(x) => Ok(*x),
            Value::Int(n) => Ok(*n as f64),
            Value::UInt(n) => Ok(*n as f64),
            Value::Null => Ok(f64::NAN),
            other => Err(Error::new(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(f64::from(*self));
    }
}
impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        f64::deserialize(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self);
    }
}
impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::new(format!("expected bool, found {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}
impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::new(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Serialize for char {
    fn serialize(&self, w: &mut Writer) {
        w.str(self.encode_utf8(&mut [0; 4]));
    }
}
impl Deserialize for char {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let s = String::deserialize(v)?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::new("expected single-character string")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(Box::new)
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(n) => w.i64(*n),
            Value::UInt(n) => w.u64(*n),
            Value::Float(x) => w.f64(*x),
            Value::Str(s) => w.str(s),
            Value::Array(items) => w.seq(items),
            Value::Object(pairs) => {
                w.begin_object();
                for (k, v) in pairs {
                    w.field(k, v);
                }
                w.end_object();
            }
        }
    }
}
impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            None => w.null(),
            Some(x) => x.serialize(w),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        w.seq(self);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_array()?.iter().map(T::deserialize).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        w.seq(self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut Writer) {
        w.seq(self);
    }
}
impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::deserialize(v)?;
        <[T; N]>::try_from(items)
            .map_err(|items| Error::new(format!("expected {N} elements, found {}", items.len())))
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, w: &mut Writer) {
                w.begin_array();
                $(w.item(&self.$i);)+
                w.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                Ok(($($t::deserialize(v.index($i)?)?,)+))
            }
        }
    )*};
}
impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        for (k, v) in self {
            w.field(k, v);
        }
        w.end_object();
    }
}
impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::deserialize(v)?)))
                .collect(),
            other => Err(Error::new(format!(
                "expected object, found {}",
                other.kind()
            ))),
        }
    }
}

impl<V: Serialize, S> Serialize for HashMap<String, V, S> {
    fn serialize(&self, w: &mut Writer) {
        // Sort keys so output is deterministic.
        let mut pairs: Vec<(&String, &V)> = self.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        w.begin_object();
        for (k, v) in pairs {
            w.field(k, v);
        }
        w.end_object();
    }
}
impl<V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize for HashMap<String, V, S> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::deserialize(v)?)))
                .collect(),
            other => Err(Error::new(format!(
                "expected object, found {}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize + ?Sized>(x: &T, pretty: bool) -> String {
        let mut w = Writer::new(String::new(), pretty);
        x.serialize(&mut w);
        w.into_string()
    }

    #[test]
    fn primitives_write_json() {
        assert_eq!(json(&u64::MAX, false), "18446744073709551615");
        assert_eq!(json(&i64::MIN, false), "-9223372036854775808");
        assert_eq!(json(&0u8, false), "0");
        assert_eq!(json(&1.5f32, false), "1.5");
        assert_eq!(json(&2.0f64, false), "2.0");
        assert_eq!(json(&f64::NAN, false), "null");
        assert_eq!(json(&true, false), "true");
        assert_eq!(json(&Some(3u32), false), "3");
        assert_eq!(json(&None::<u32>, false), "null");
        assert_eq!(json("a\"\\\n\u{1}é", false), "\"a\\\"\\\\\\n\\u0001é\"");
        let v: Vec<(String, f64)> = vec![("a".into(), 2.0)];
        assert_eq!(json(&v, false), "[[\"a\",2.0]]");
    }

    #[test]
    fn pretty_layout_and_empty_containers() {
        let v = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![Value::Int(1), Value::Array(vec![])]),
            ),
            ("b".into(), Value::Object(vec![])),
        ]);
        assert_eq!(json(&v, false), "{\"a\":[1,[]],\"b\":{}}");
        assert_eq!(
            json(&v, true),
            "{\n  \"a\": [\n    1,\n    []\n  ],\n  \"b\": {}\n}"
        );
        assert_eq!(json(&Value::Array(vec![]), true), "[]");
    }

    #[test]
    fn writes_append_to_the_buffer() {
        let mut w = Writer::new("prefix:".to_string(), false);
        [1u8, 2].serialize(&mut w);
        assert_eq!(w.into_string(), "prefix:[1,2]");
    }

    #[test]
    fn deserialize_reads_value_trees() {
        assert_eq!(u64::deserialize(&Value::UInt(u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(i32::deserialize(&Value::Int(-7)).unwrap(), -7);
        assert_eq!(f32::deserialize(&Value::Float(1.5)).unwrap(), 1.5);
        assert!(f64::deserialize(&Value::Null).unwrap().is_nan());
        assert_eq!(Option::<u32>::deserialize(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::deserialize(&Value::Int(3)).unwrap(), Some(3));
    }

    #[test]
    fn shape_errors_are_reported() {
        assert!(u32::deserialize(&Value::Str("x".into())).is_err());
        assert!(Value::Null.field("missing").is_err());
    }
}
