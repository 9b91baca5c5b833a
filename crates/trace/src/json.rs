//! A deliberately tiny JSON subset, the one codec behind every JSONL
//! format in the workspace: trace events, cell-cache records and metrics
//! snapshots all read and write through here.
//!
//! A line is one object. Its values are unsigned integers (up to `u128`,
//! for a histogram's exact sum), strings, arrays of unsigned 64-bit
//! integers, arrays of `[u64, u64]` pairs (histogram buckets), or one
//! level of nested object whose values are strings (metric labels). An
//! object that repeats a key, at either level, is an error.
//!
//! That subset is all the three formats need, and staying inside it buys
//! two properties serde could not give us here (no external crates are
//! available): the encoder and parser are small enough to audit, and —
//! because there are no floats — `parse(encode(x)) == x` is *exact*, so
//! the CI round-trip checks catch any schema drift byte-for-byte.

use std::fmt::Write as _;

/// A value in an object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// An unsigned integer. Wide enough for a histogram's `u128` sum;
    /// [`JsonValue::as_u64`] range-checks every other field.
    Int(u128),
    /// A string (event kinds, state names, causes, metric names).
    Str(String),
    /// An array of unsigned integers (hash-tree paths).
    Arr(Vec<u64>),
    /// An array of integer pairs (histogram buckets). An empty array
    /// parses as an empty [`JsonValue::Arr`], which
    /// [`JsonValue::as_pairs`] also accepts.
    Pairs(Vec<[u64; 2]>),
    /// A nested object of string values (metric labels), in document
    /// order.
    Obj(Vec<(String, String)>),
}

impl JsonValue {
    /// The integer inside, if this is one that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_u128().and_then(|v| u64::try_from(v).ok())
    }

    /// The integer inside, if this is one.
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            JsonValue::Int(v) => Some(*v),
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

    /// The pairs inside, if this is an array of pairs (or empty).
    pub fn as_pairs(&self) -> Option<&[[u64; 2]]> {
        match self {
            JsonValue::Pairs(v) => Some(v),
            JsonValue::Arr(v) if v.is_empty() => Some(&[]),
            _ => None,
        }
    }

    /// The members inside, if this is a nested object.
    pub fn as_obj(&self) -> Option<&[(String, String)]> {
        match self {
            JsonValue::Obj(v) => Some(v),
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
    /// A number overflowed `u128` (or `u64`, inside an array).
    NumberOverflow(usize),
    /// A string escape we do not emit (and therefore do not accept).
    BadEscape(usize),
    /// An object names this key twice.
    RepeatedKey(String),
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::UnexpectedEnd => write!(f, "unexpected end of input"),
            JsonError::Unexpected(at, c) => write!(f, "unexpected {c:?} at byte {at}"),
            JsonError::NumberOverflow(at) => write!(f, "number out of range at byte {at}"),
            JsonError::BadEscape(at) => write!(f, "unsupported string escape at byte {at}"),
            JsonError::RepeatedKey(key) => write!(f, "repeated key {key:?}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Builds one JSON object, preserving insertion order.
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

    /// Append an unsigned integer field too wide for a `u64`.
    pub fn u128(&mut self, key: &str, value: u128) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Append a string field (escaping the characters we accept back).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        push_str_literal(&mut self.out, value);
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

    /// Append an array-of-pairs field.
    pub fn pairs(&mut self, key: &str, pairs: impl IntoIterator<Item = [u64; 2]>) -> &mut Self {
        self.key(key);
        self.out.push('[');
        for (i, [a, b]) in pairs.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let _ = write!(self.out, "[{a},{b}]");
        }
        self.out.push(']');
        self
    }

    /// Append a nested object of string values. Unlike the field keys,
    /// its keys are data, so they are escaped like values.
    pub fn obj<'s>(
        &mut self,
        key: &str,
        members: impl IntoIterator<Item = (&'s str, &'s str)>,
    ) -> &mut Self {
        self.key(key);
        self.out.push('{');
        for (i, (k, v)) in members.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            push_str_literal(&mut self.out, k);
            self.out.push(':');
            push_str_literal(&mut self.out, v);
        }
        self.out.push('}');
        self
    }

    /// Close the object and return the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Write `s` as a string literal: quote, backslash and every control
/// character escaped; everything else — including the topology's `↔`
/// edge names — passes through as UTF-8, which JSON permits.
fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < '\u{20}' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one object into `(key, value)` pairs in document order.
pub fn parse_object(line: &str) -> Result<Vec<(String, JsonValue)>, JsonError> {
    let mut p = Cursor {
        b: line.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let fields = p.object(Cursor::value)?;
    p.skip_ws();
    match p.peek() {
        None => Ok(fields),
        Some(c) => Err(JsonError::Unexpected(p.i, c as char)),
    }
}

fn is_ws(c: u8) -> bool {
    matches!(c, b' ' | b'\t' | b'\r' | b'\n')
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
        while self.peek().is_some_and(is_ws) {
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

    /// `open close`, or `open item (, item)* close`, with whitespace
    /// allowed around every token.
    fn list(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(c) if c == close => return Ok(()),
                Some(c) => return Err(JsonError::Unexpected(self.i - 1, c as char)),
                None => return Err(JsonError::UnexpectedEnd),
            }
        }
    }

    /// An object whose values `value` reads; a repeated key is an error.
    fn object<V>(
        &mut self,
        mut value: impl FnMut(&mut Self) -> Result<V, JsonError>,
    ) -> Result<Vec<(String, V)>, JsonError> {
        let mut members: Vec<(String, V)> = Vec::new();
        self.list(b'{', b'}', |p| {
            let key = p.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(JsonError::RepeatedKey(key));
            }
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let v = value(p)?;
            members.push((key, v));
            Ok(())
        })?;
        Ok(members)
    }

    fn array<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        let mut items = Vec::new();
        self.list(b'[', b']', |p| {
            items.push(item(p)?);
            Ok(())
        })?;
        Ok(items)
    }

    fn pair(&mut self) -> Result<[u64; 2], JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        let a = self.u64()?;
        self.skip_ws();
        self.expect(b',')?;
        self.skip_ws();
        let b = self.u64()?;
        self.skip_ws();
        self.expect(b']')?;
        Ok([a, b])
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
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => s.push(self.control_escape()?),
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

    /// The four hex digits after `\u`, which must name a control
    /// character: the only characters the writer spells that way.
    fn control_escape(&mut self) -> Result<char, JsonError> {
        let at = self.i - 1;
        let code = self
            .b
            .get(self.i..self.i + 4)
            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
            .and_then(|hex| u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok())
            .filter(|&code| code < 0x20)
            .ok_or(JsonError::BadEscape(at))?;
        self.i += 4;
        Ok(char::from(code as u8))
    }

    fn number(&mut self) -> Result<u128, JsonError> {
        let start = self.i;
        let mut v: u128 = 0;
        let mut any = false;
        while let Some(c @ b'0'..=b'9') = self.peek() {
            any = true;
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u128::from(c - b'0')))
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

    fn u64(&mut self) -> Result<u64, JsonError> {
        let start = self.i;
        u64::try_from(self.number()?).map_err(|_| JsonError::NumberOverflow(start))
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => {
                let first = self.b[self.i + 1..].iter().find(|&&c| !is_ws(c));
                if first == Some(&b'[') {
                    Ok(JsonValue::Pairs(self.array(Cursor::pair)?))
                } else {
                    Ok(JsonValue::Arr(self.array(Cursor::u64)?))
                }
            }
            Some(b'{') => Ok(JsonValue::Obj(self.object(Cursor::string)?)),
            Some(b'0'..=b'9') => Ok(JsonValue::Int(self.number()?)),
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
        assert_eq!(fields[1], ("t".into(), JsonValue::Int(123_456_789)));
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
        let past_u128 = format!(r#"{{"t":{}0}}"#, u128::MAX);
        assert_eq!(parse_object(&past_u128), Err(JsonError::NumberOverflow(5)));
        let past_u64 = format!("{}", u128::from(u64::MAX) + 1);
        let fields = parse_object(&format!(r#"{{"t":{past_u64}}}"#)).unwrap();
        assert_eq!(fields[0].1.as_u64(), None, "as_u64 is range-checked");
        assert!(parse_object(&format!(r#"{{"p":[{past_u64}]}}"#)).is_err());
        assert!(parse_object(r#"{"t":-1}"#).is_err());
        assert!(parse_object(r#"{"t":"#).is_err());
    }

    #[test]
    fn snapshot_shapes_round_trip() {
        let odd = "a\"b\\c\nd\re\tf\u{1}g\u{1f}↔";
        let mut w = ObjectWriter::new();
        w.obj("labels", [(odd, odd), ("edge", "s3↔s7")])
            .u128("sum", u128::from(u64::MAX) * 2)
            .pairs("buckets", [[0, 1], [64, 2]])
            .pairs("none", [])
            .obj("empty", []);
        let line = w.finish();
        assert!(
            line.contains(r#""a\"b\\c\nd\re\tf\u0001g\u001f↔""#),
            "{line}"
        );
        let fields = parse_object(&line).unwrap();
        let labels = fields[0].1.as_obj().unwrap();
        assert_eq!(labels[0], (odd.to_owned(), odd.to_owned()));
        assert_eq!(labels[1], ("edge".to_owned(), "s3↔s7".to_owned()));
        assert_eq!(fields[1].1.as_u128(), Some(u128::from(u64::MAX) * 2));
        assert_eq!(fields[1].1.as_u64(), None);
        assert_eq!(fields[2].1.as_pairs(), Some(&[[0, 1], [64, 2]][..]));
        assert_eq!(fields[3].1.as_pairs(), Some(&[][..]));
        assert_eq!(fields[4].1.as_obj(), Some(&[][..]));
        let pairs = parse_object(r#"{"b":[ [ 1 , 2 ] , [3,4] ]}"#).unwrap();
        assert_eq!(pairs[0].1, JsonValue::Pairs(vec![[1, 2], [3, 4]]));
    }

    #[test]
    fn rejects_repeated_keys_at_either_level() {
        assert_eq!(
            parse_object(r#"{"t":1,"u":2,"t":3}"#),
            Err(JsonError::RepeatedKey("t".into()))
        );
        assert_eq!(
            parse_object(r#"{"labels":{"k":"a","k":"b"}}"#),
            Err(JsonError::RepeatedKey("k".into()))
        );
        // The same key in different objects is no repeat.
        assert!(parse_object(r#"{"k":{"k":"v"}}"#).is_ok());
    }

    #[test]
    fn accepts_only_the_escapes_it_writes() {
        for bad in [r"\/", r"\b", r"\u0041", r"\u00", r"\u+01f", r"\u00zz"] {
            let line = format!(r#"{{"s":"{bad}"}}"#);
            assert!(
                matches!(parse_object(&line), Err(JsonError::BadEscape(_))),
                "{bad} must be refused"
            );
        }
        let fields = parse_object(r#"{"s":"\r\u001F\u0000"}"#).unwrap();
        assert_eq!(fields[0].1.as_str(), Some("\r\u{1f}\u{0}"));
    }

    #[test]
    fn nested_objects_hold_strings_only() {
        assert!(parse_object(r#"{"l":{"k":1}}"#).is_err());
        assert!(parse_object(r#"{"l":{"k":{"j":"v"}}}"#).is_err());
        assert!(parse_object(r#"{"b":[[1,2],3]}"#).is_err());
        assert!(parse_object(r#"{"b":[[1,2,3]]}"#).is_err());
        assert!(parse_object(r#"{"b":[1,[2,3]]}"#).is_err());
    }

    #[test]
    fn tolerates_interior_whitespace() {
        let fields = parse_object(" { \"a\" : 1 , \"b\" : [ 2 , 3 ] } ").unwrap();
        assert_eq!(fields[0].1, JsonValue::Int(1));
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
