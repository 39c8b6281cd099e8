//! Offline stand-in for `serde_json`.
//!
//! Writing is the sibling `serde` shim's [`serde::Writer`]: every
//! `to_*` function here runs a value's [`Serialize`] impl straight into
//! one buffer, with no intermediate tree (see the `serde` shim's docs
//! for the format rules). Reading parses JSON text into a
//! [`Value`] tree and deserializes from that. Round-trips everything
//! the writer produces; it is not a general-purpose JSON
//! implementation (no `\u` escapes beyond what the writer emits, no
//! arbitrary-precision numbers).

pub use serde::Value;

use serde::{Deserialize, Serialize, Writer};

/// JSON encoding/decoding error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Converts any serializable value into a [`Value`] tree by parsing
/// what the writer writes for it (so, for example, a NaN float becomes
/// [`Value::Null`]).
///
/// # Errors
///
/// Never fails in this shim; the `Result` mirrors the real API.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    from_str(&to_string(value)?)
}

/// Rebuilds a typed value from a [`Value`] tree.
///
/// # Errors
///
/// If the tree's shape does not match `T`.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    Ok(T::deserialize(value)?)
}

fn write<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = Writer::new(String::new(), pretty);
    value.serialize(&mut w);
    w.into_string()
}

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Never fails in this shim; the `Result` mirrors the real API.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write(value, false))
}

/// Serializes a value to compact JSON bytes (the same bytes as
/// [`to_string`]).
///
/// # Errors
///
/// Never fails in this shim; the `Result` mirrors the real API.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    Ok(write(value, false).into_bytes())
}

/// Serializes a value to pretty-printed JSON text (2-space indent).
///
/// # Errors
///
/// Never fails in this shim; the `Result` mirrors the real API.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write(value, true))
}

/// Parses JSON text into a typed value.
///
/// # Errors
///
/// On malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::deserialize(&v)?)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `]` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value()?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(pairs));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `}}` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(Error::new(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run of unescaped bytes up to the
                    // next quote or backslash in one step — validating
                    // UTF-8 per run, not per character, keeps parsing
                    // linear in the string length.
                    let start = self.pos;
                    let mut end = self.pos;
                    while let Some(&b) = self.bytes.get(end) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        end += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(run);
                    self.pos = end;
                }
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if let Ok(n) = text.parse::<i64>() {
            Ok(Value::Int(n))
        } else if let Ok(n) = text.parse::<u64>() {
            Ok(Value::UInt(n))
        } else {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let v = Value::Object(vec![
            ("name".to_string(), Value::Str("a \"b\"\n".to_string())),
            ("n".to_string(), Value::Int(-3)),
            ("big".to_string(), Value::UInt(u64::MAX)),
            ("x".to_string(), Value::Float(1.5)),
            ("flag".to_string(), Value::Bool(true)),
            ("none".to_string(), Value::Null),
            (
                "list".to_string(),
                Value::Array(vec![Value::Int(1), Value::Float(2.0)]),
            ),
            ("empty".to_string(), Value::Object(vec![])),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&text).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn to_value_parses_what_was_written() {
        let v = vec![Some(1.5f64), None, Some(f64::NAN)];
        assert_eq!(
            to_value(&v).unwrap(),
            Value::Array(vec![Value::Float(1.5), Value::Null, Value::Null])
        );
        assert_eq!(to_vec(&v).unwrap(), to_string(&v).unwrap().into_bytes());
    }

    #[test]
    fn floats_stay_floats() {
        let text = to_string(&Value::Float(2.0)).unwrap();
        assert_eq!(text, "2.0");
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, Value::Float(2.0));
    }
}
