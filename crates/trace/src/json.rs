//! A deliberately tiny JSON subset: flat objects whose values are
//! unsigned 64-bit integers, strings, or arrays of unsigned integers.
//!
//! That subset is all the trace schema needs, and staying inside it buys
//! two properties serde could not give us here (no external crates are
//! available): the encoder and parser are small enough to audit, and —
//! because there are no floats — `parse(encode(x)) == x` is *exact*, so
//! the CI round-trip check catches any schema drift byte-for-byte.

use std::fmt::Write as _;

/// A value in a trace object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// An unsigned integer (all numeric trace fields are u64-safe).
    U64(u64),
    /// A string (event kinds, state names, causes).
    Str(String),
    /// An array of small unsigned integers (hash-tree paths).
    Arr(Vec<u64>),
}

impl JsonValue {
    /// The integer inside, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The string inside, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array inside, if this is one.
    pub fn as_arr(&self) -> Option<&[u64]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Why a line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Input ended before the object was closed.
    UnexpectedEnd,
    /// An unexpected byte at the given offset.
    Unexpected(usize, char),
    /// A number overflowed u64.
    NumberOverflow(usize),
    /// A string escape we do not emit (and therefore do not accept).
    BadEscape(usize),
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::UnexpectedEnd => write!(f, "unexpected end of input"),
            JsonError::Unexpected(at, c) => write!(f, "unexpected {c:?} at byte {at}"),
            JsonError::NumberOverflow(at) => write!(f, "number overflows u64 at byte {at}"),
            JsonError::BadEscape(at) => write!(f, "unsupported string escape at byte {at}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Builds one flat JSON object, preserving insertion order.
#[derive(Debug, Default)]
pub struct ObjectWriter {
    out: String,
    any: bool,
}

impl ObjectWriter {
    /// Start an object.
    pub fn new() -> Self {
        ObjectWriter::appending_to(String::new())
    }

    /// Start an object after whatever `out` already holds, keeping its
    /// capacity: [`ObjectWriter::finish`] hands the buffer back.
    pub fn appending_to(mut out: String) -> Self {
        out.push('{');
        ObjectWriter { out, any: false }
    }

    fn key(&mut self, key: &str) {
        if self.any {
            self.out.push(',');
        }
        self.any = true;
        self.out.push('"');
        self.out.push_str(key); // keys are static identifiers, never escaped
        self.out.push_str("\":");
    }

    /// Append an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Append a string field (escaping the characters we accept back).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push('"');
        escape_into(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// Append an array-of-integers field.
    pub fn arr(&mut self, key: &str, values: &[u64]) -> &mut Self {
        self.key(key);
        self.out.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let _ = write!(self.out, "{v}");
        }
        self.out.push(']');
        self
    }

    /// Close the object and return the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
}

/// Parse one flat object into `(key, value)` pairs in document order.
pub fn parse_object(line: &str) -> Result<Vec<(String, JsonValue)>, JsonError> {
    let b = line.as_bytes();
    let mut p = Cursor { b, i: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.i += 1;
        p.skip_ws();
        return p.finish(fields);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = p.value()?;
        fields.push((key, value));
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => break,
            Some(c) => return Err(JsonError::Unexpected(p.i - 1, c as char)),
            None => return Err(JsonError::UnexpectedEnd),
        }
    }
    p.skip_ws();
    p.finish(fields)
}

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), JsonError> {
        match self.next() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(JsonError::Unexpected(self.i - 1, c as char)),
            None => Err(JsonError::UnexpectedEnd),
        }
    }

    fn finish(
        &mut self,
        fields: Vec<(String, JsonValue)>,
    ) -> Result<Vec<(String, JsonValue)>, JsonError> {
        match self.peek() {
            None => Ok(fields),
            Some(c) => Err(JsonError::Unexpected(self.i, c as char)),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.next() {
                None => return Err(JsonError::UnexpectedEnd),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.next() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(_) => return Err(JsonError::BadEscape(self.i - 1)),
                    None => return Err(JsonError::UnexpectedEnd),
                },
                Some(c) if c < 0x80 => s.push(c as char),
                Some(first) => {
                    // Re-assemble a multi-byte UTF-8 scalar; the input came
                    // from a &str so the encoding is already valid.
                    let len = match first {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.i - 1;
                    let end = (start + len).min(self.b.len());
                    let chunk = std::str::from_utf8(&self.b[start..end])
                        .map_err(|_| JsonError::Unexpected(start, first as char))?;
                    s.push_str(chunk);
                    self.i = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, JsonError> {
        let start = self.i;
        let mut v: u64 = 0;
        let mut any = false;
        while let Some(c @ b'0'..=b'9') = self.peek() {
            any = true;
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(c - b'0')))
                .ok_or(JsonError::NumberOverflow(start))?;
            self.i += 1;
        }
        if !any {
            return match self.peek() {
                Some(c) => Err(JsonError::Unexpected(self.i, c as char)),
                None => Err(JsonError::UnexpectedEnd),
            };
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.number()?);
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(JsonValue::Arr(items)),
                        Some(c) => return Err(JsonError::Unexpected(self.i - 1, c as char)),
                        None => return Err(JsonError::UnexpectedEnd),
                    }
                }
            }
            Some(b'0'..=b'9') => Ok(JsonValue::U64(self.number()?)),
            Some(c) => Err(JsonError::Unexpected(self.i, c as char)),
            None => Err(JsonError::UnexpectedEnd),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_round_trip() {
        let mut w = ObjectWriter::new();
        w.str("ev", "fsm")
            .u64("t", 123_456_789)
            .str("name", "with \"quotes\" and \\slash\\")
            .arr("path", &[3, 0, 7]);
        let line = w.finish();
        let fields = parse_object(&line).unwrap();
        assert_eq!(fields[0], ("ev".into(), JsonValue::Str("fsm".into())));
        assert_eq!(fields[1], ("t".into(), JsonValue::U64(123_456_789)));
        assert_eq!(
            fields[2].1,
            JsonValue::Str("with \"quotes\" and \\slash\\".into())
        );
        assert_eq!(fields[3].1, JsonValue::Arr(vec![3, 0, 7]));
    }

    #[test]
    fn empty_object_and_empty_array() {
        assert_eq!(parse_object("{}").unwrap(), vec![]);
        let fields = parse_object(r#"{"path":[]}"#).unwrap();
        assert_eq!(fields[0].1, JsonValue::Arr(vec![]));
    }

    #[test]
    fn rejects_floats_trailing_garbage_and_overflow() {
        assert!(parse_object(r#"{"t":1.5}"#).is_err());
        assert!(parse_object(r#"{"t":1} extra"#).is_err());
        assert!(parse_object(r#"{"t":99999999999999999999999}"#).is_err());
        assert!(parse_object(r#"{"t":-1}"#).is_err());
        assert!(parse_object(r#"{"t":"#).is_err());
    }

    #[test]
    fn tolerates_interior_whitespace() {
        let fields = parse_object(" { \"a\" : 1 , \"b\" : [ 2 , 3 ] } ").unwrap();
        assert_eq!(fields[0].1, JsonValue::U64(1));
        assert_eq!(fields[1].1, JsonValue::Arr(vec![2, 3]));
    }

    #[test]
    fn non_ascii_strings_survive() {
        let mut w = ObjectWriter::new();
        w.str("s", "naïve → done");
        let line = w.finish();
        let fields = parse_object(&line).unwrap();
        assert_eq!(fields[0].1, JsonValue::Str("naïve → done".into()));
    }
}
