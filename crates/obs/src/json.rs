//! Minimal hand-rolled JSON value, encoder, and parser.
//!
//! The trace plane needs exactly one serialization format and must not
//! pull in serde (the workspace is offline and dependency-free by
//! policy), so this module provides the smallest JSON kernel that
//! round-trips: a [`Json`] tree with order-preserving objects, an
//! encoder that writes numbers via Rust's shortest-exact `Display` for
//! `f64`, and a recursive-descent parser whose nesting is capped at
//! [`MAX_DEPTH`], so no input line can exhaust the stack. Non-finite
//! floats have no JSON spelling and encode as `null`, which keeps every
//! emitted line standards-parseable.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts; one level more
/// is a [`JsonError`]. Every record the trace plane writes nests a
/// handful of levels, and each level costs the recursive descent a stack
/// frame, so the cap turns a hostile line into an error instead of a
/// stack overflow.
const MAX_DEPTH: usize = 128;

/// A JSON value. Object keys preserve insertion order so encoded
/// records are byte-stable for the determinism tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of NaN / ±inf numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; stored as f64 (integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or replaces) a field on an object, builder-style. On
    /// non-objects this is a no-op returning `self` unchanged.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(pairs) = &mut self {
            let value = value.into();
            if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                pairs.push((key.to_string(), value));
            }
        }
        self
    }

    /// Looks up a field on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as u64, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to a compact single-line string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        encode_into(self, &mut out);
        out
    }

    /// Parses a JSON document (must consume the whole input, modulo
    /// surrounding whitespace). Arrays and objects may nest 128 deep;
    /// deeper input is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing characters after value"));
        }
        Ok(value)
    }
}

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
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Num(f64::from(x))
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Json {
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
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

fn encode_into(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(x) => encode_number(*x, out),
        Json::Str(s) => encode_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_string(k, out);
                out.push(':');
                encode_into(v, out);
            }
            out.push('}');
        }
    }
}

fn encode_number(x: f64, out: &mut String) {
    if !x.is_finite() {
        // JSON has no NaN/Infinity literal; null is the honest stand-in.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9.0e15 {
        // Integral values print without the ".0" Rust's Display adds,
        // matching what every other JSON emitter produces.
        let _ = fmt::write(out, format_args!("{}", x as i64));
    } else {
        // Rust's Display for f64 is shortest-exact: parsing the output
        // recovers the identical bit pattern, which the round-trip
        // proptest relies on.
        let _ = fmt::write(out, format_args!("{x}"));
    }
}

fn encode_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::write(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub pos: usize,
    /// Human-readable description.
    pub message: String,
}

impl JsonError {
    fn at(pos: usize, message: &str) -> JsonError {
        JsonError { pos, message: message.to_string() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value whose enclosing arrays/objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(JsonError::at(*pos, "nesting too deep")),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(JsonError::at(*pos, "invalid literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at(start, "invalid number bytes"))?;
    text.parse::<f64>().map(Json::Num).map_err(|_| JsonError::at(start, "invalid number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let cp = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&cp) {
                            // High surrogate: must be followed by a \uXXXX
                            // low surrogate, DC00..=DFFF and nothing else.
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                let low = parse_hex4(bytes, *pos + 3)?;
                                *pos += 6;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(JsonError::at(*pos, "bad surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                out.push(
                                    char::from_u32(combined)
                                        .ok_or_else(|| JsonError::at(*pos, "bad surrogate"))?,
                                );
                            } else {
                                return Err(JsonError::at(*pos, "lone surrogate"));
                            }
                        } else {
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| JsonError::at(*pos, "bad codepoint"))?,
                            );
                        }
                    }
                    _ => return Err(JsonError::at(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&lead) => {
                // Consume one UTF-8 scalar, validating only the width its
                // leading byte gives, so a string parses in linear time.
                let width = match lead {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let c = bytes
                    .get(*pos..*pos + width)
                    .and_then(|scalar| std::str::from_utf8(scalar).ok())
                    .and_then(|scalar| scalar.chars().next())
                    .ok_or_else(|| JsonError::at(*pos, "invalid utf-8"))?;
                out.push(c);
                *pos += width;
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: usize) -> Result<u32, JsonError> {
    if pos + 4 > bytes.len() {
        return Err(JsonError::at(pos, "truncated \\u escape"));
    }
    let text = std::str::from_utf8(&bytes[pos..pos + 4])
        .map_err(|_| JsonError::at(pos, "invalid \\u escape"))?;
    u32::from_str_radix(text, 16).map_err(|_| JsonError::at(pos, "invalid \\u escape"))
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError::at(*pos, "expected object key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError::at(*pos, "expected ':'"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_compactly_with_field_order() {
        let v = Json::obj()
            .field("b", 2u64)
            .field("a", Json::Arr(vec![Json::Null, Json::Bool(true)]))
            .field("s", "hi\n");
        assert_eq!(v.encode(), r#"{"b":2,"a":[null,true],"s":"hi\n"}"#);
    }

    #[test]
    fn integral_floats_print_without_fraction() {
        assert_eq!(Json::Num(3.0).encode(), "3");
        assert_eq!(Json::Num(-0.5).encode(), "-0.5");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn parses_what_it_encodes() {
        let v = Json::obj()
            .field("x", 1.25f64)
            .field("y", Json::Arr(vec![Json::Num(-7.0), Json::Str("é \"q\"".into())]))
            .field("z", Json::obj().field("nested", false));
        let text = v.encode();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""aA\té""#).unwrap();
        assert_eq!(v, Json::Str("aA\té".to_string()));
        let surrogate = Json::parse(r#""😀""#).unwrap();
        assert_eq!(surrogate, Json::Str("😀".to_string()));
        let escaped = Json::parse(r#""\uD83D\uDE00 \uDBFF\uDFFF""#).unwrap();
        assert_eq!(escaped, Json::Str("😀 \u{10ffff}".to_string()));
    }

    #[test]
    fn a_high_surrogate_takes_only_a_low_surrogate() {
        // A second escape outside DC00..=DFFF does not complete the pair.
        for text in [r#""\uDBFF\uD800""#, r#""\uD83DA""#, r#""\uD83D\uE000""#] {
            assert!(Json::parse(text).is_err(), "{text} parsed");
        }
        assert!(Json::parse(r#""\uDE00""#).is_err(), "lone low surrogate parsed");
        assert!(Json::parse(r#""\uD83D""#).is_err(), "lone high surrogate parsed");
    }

    #[test]
    fn long_multibyte_strings_decode_scalar_by_scalar() {
        let text: String = "aé€😀".repeat(20_000);
        let parsed = Json::parse(&Json::Str(text.clone()).encode()).unwrap();
        assert_eq!(parsed, Json::Str(text));
    }

    #[test]
    fn nesting_deeper_than_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(Json::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested("{\"k\":", "}", MAX_DEPTH).replace(":}", ":0}")).is_ok());
        for text in [
            nested("[", "]", MAX_DEPTH + 1),
            nested("{\"k\":", "}", MAX_DEPTH + 1),
            "[".repeat(100_000),
            "[{\"a\":".repeat(50_000),
        ] {
            let err = Json::parse(&text).expect_err("over-deep input parsed");
            assert_eq!(err.message, "nesting too deep");
        }
        // The error points at the first bracket past the cap.
        assert_eq!(Json::parse(&"[".repeat(100_000)).unwrap_err().pos, MAX_DEPTH);
    }

    #[test]
    fn field_replaces_existing_key() {
        let v = Json::obj().field("k", 1u64).field("k", 2u64);
        assert_eq!(v.encode(), r#"{"k":2}"#);
    }
}
