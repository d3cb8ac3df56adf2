//! Minimal JSON reading/writing used by the campaign record stream.
//!
//! The build environment cannot fetch `serde`/`serde_json`, and the
//! campaign engine needs only a small, deterministic subset of JSON:
//! objects with string keys (order-preserving), arrays, strings, lossless
//! `u64` numbers, floats, booleans, and `null`. This module provides a
//! tree model ([`Json`]), a strict parser, and a compact writer. Numbers
//! are stored as their literal text so `u64::MAX` round-trips exactly.
//!
//! Per-task stream lines (one per injection) skip the tree both ways:
//! [`ObjWriter`] appends an object field by field into a `String`, and
//! [`Fields::parse`] reads one object into borrowed members. Both share
//! their rules with [`Json`] — [`push_escaped`] is the only string
//! escaper, and `Fields` runs the same parser — so a line written or
//! read either way has the same bytes and the same values.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text for lossless round-trips.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a number from a `u64` (lossless).
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// Builds a number from an `f64`.
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else {
            Json::Null
        }
    }

    /// Builds a string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let v = p.value()?;
        p.finish()?;
        Ok(v)
    }

    fn push_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => push_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.push_to(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(out, k);
                    out.push(':');
                    v.push_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.push_to(&mut out);
        f.write_str(&out)
    }
}

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` and the
/// control characters are escaped (`\n`, `\r`, `\t` by name, the rest as
/// `\u00XX`), everything else is copied as is. The one escaping rule of
/// this module: [`Json`]'s `Display` and [`ObjWriter`] both call it.
pub fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        if named.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(named);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Appends one JSON object to a `String` member by member, producing
/// exactly the bytes `Json::Obj(..)`'s `Display` would for the same
/// members, without building the tree. Call [`ObjWriter::close`] to
/// write the closing brace.
#[must_use = "an object is only complete after `close`"]
pub struct ObjWriter<'o> {
    out: &'o mut String,
    empty: bool,
}

impl<'o> ObjWriter<'o> {
    /// Starts an object at the end of `out`.
    pub fn open(out: &'o mut String) -> ObjWriter<'o> {
        out.push('{');
        ObjWriter { out, empty: true }
    }

    /// Writes the separator and `"key":`, returning the buffer for the
    /// value.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        push_escaped(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A number member (as [`Json::u64`]).
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        write!(self.key(key), "{v}").expect("writing to a String cannot fail");
        self
    }

    /// A string member.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        push_escaped(self.key(key), v);
        self
    }

    /// A number member, or `null` for `None`.
    pub fn opt_u64(&mut self, key: &str, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.u64(key, v),
            None => {
                self.key(key).push_str("null");
                self
            }
        }
    }

    /// An array-of-arrays member: one inner array of numbers per row.
    pub fn u64_rows<const N: usize>(
        &mut self,
        key: &str,
        rows: impl IntoIterator<Item = [u64; N]>,
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, row) in rows.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, v) in row.into_iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write!(out, "{v}").expect("writing to a String cannot fail");
            }
            out.push(']');
        }
        out.push(']');
        self
    }

    /// A nested object member; close it before writing the next member.
    pub fn obj(&mut self, key: &str) -> ObjWriter<'_> {
        ObjWriter::open(self.key(key))
    }

    /// Writes the closing brace.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// One member value of an object read by [`Fields::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum Field<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number's literal text.
    Num(&'a str),
    /// A string; decoded into its own buffer only when it has escapes.
    Str(Cow<'a, str>),
    /// A nested array or object, validated and kept as its source text
    /// (parse it with [`Json::parse`] or [`Fields::parse`] when needed).
    Raw(&'a str),
}

impl Field<'_> {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Field::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The source text, if this is a nested array or object.
    pub fn as_raw(&self) -> Option<&str> {
        match self {
            Field::Raw(raw) => Some(raw),
            _ => None,
        }
    }
}

/// The members of one JSON object, borrowed from its text. Reading a
/// per-task stream line this way allocates one `Vec` (plus a `String`
/// for any member with an escape) instead of a tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Fields<'a>(Vec<(Cow<'a, str>, Field<'a>)>);

impl<'a> Fields<'a> {
    /// Parses `text` as one JSON object. Accepts and rejects exactly what
    /// [`Json::parse`] accepts and rejects for an object, with the same
    /// values; anything that is not an object is an error.
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input.
    pub fn parse(text: &'a str) -> Result<Fields<'a>, String> {
        let mut p = Parser::new(text);
        p.skip_ws();
        if p.peek() != Some(b'{') {
            return Err(format!("expected '{{' at byte {}", p.pos));
        }
        let mut members = Vec::with_capacity(16);
        p.nested(|p| {
            p.members(|p, key| {
                members.push((key, p.field()?));
                Ok(())
            })
        })?;
        p.finish()?;
        Ok(Fields(members))
    }

    /// The first member named `key` (the one [`Json::get`] returns).
    pub fn get(&self, key: &str) -> Option<&Field<'a>> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The members in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Field<'a>)> {
        self.0.iter().map(|(k, v)| (k.as_ref(), v))
    }

    /// `get(key)` as a string.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// `get(key)` as a `u64`.
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }
}

/// Nesting limit for arrays and objects. The parser recurses once per
/// level, so an unbounded `[[[[…` body would overflow the stack and abort
/// the process; the repository's documents nest a handful of levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// Byte offset into `text`; always on a `char` boundary.
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Accepts trailing whitespace and nothing else.
    fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Field<'a>) -> Result<Field<'a>, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// One value as a tree.
    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'[') => self.nested(|p| {
                let mut items = Vec::new();
                p.items(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }),
            Some(b'{') => self.nested(|p| {
                let mut fields = Vec::new();
                p.members(|p, key| {
                    fields.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }),
            _ => Ok(match self.scalar()? {
                Field::Null => Json::Null,
                Field::Bool(b) => Json::Bool(b),
                Field::Num(n) => Json::Num(n.to_string()),
                Field::Str(s) => Json::Str(s.into_owned()),
                Field::Raw(_) => unreachable!("`scalar` never returns a nested span"),
            }),
        }
    }

    /// One value as a borrowed field: a nested array or object is
    /// validated and kept as its span.
    fn field(&mut self) -> Result<Field<'a>, String> {
        match self.peek() {
            Some(b'[' | b'{') => {
                let start = self.pos;
                self.skip()?;
                let text = self.text;
                Ok(Field::Raw(&text[start..self.pos]))
            }
            _ => self.scalar(),
        }
    }

    /// Validates one value without keeping it.
    fn skip(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'[') => self.nested(|p| p.items(Parser::skip)),
            Some(b'{') => self.nested(|p| p.members(|p, _| p.skip())),
            _ => self.scalar().map(drop),
        }
    }

    /// A literal, string or number.
    fn scalar(&mut self) -> Result<Field<'a>, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Field::Null),
            Some(b't') => self.literal("true", Field::Bool(true)),
            Some(b'f') => self.literal("false", Field::Bool(false)),
            Some(b'"') => self.string().map(Field::Str),
            Some(b'-' | b'0'..=b'9') => self.number().map(Field::Num),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one nesting level down, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(format!("malformed number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Only ASCII was consumed, so the span ends on a char boundary.
        let text = &self.text[start..self.pos];
        // Validate that the literal is a parseable number.
        text.parse::<f64>()
            .map_err(|_| format!("malformed number at byte {start}"))?;
        Ok(text)
    }

    /// A string, borrowed from the input unless it has an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let begin = self.pos;
        // Stays `None` (the string is borrowed) until the first escape.
        let mut decoded: Option<String> = None;
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match decoded {
                        Some(s) => Cow::Owned(s),
                        None => Cow::Borrowed(&self.text[begin..start]),
                    });
                }
                Some(b'\\') => {
                    let out = decoded.get_or_insert_with(|| self.text[begin..start].to_string());
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {start}"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {start}"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u escape at byte {start}"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {start}")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {start}"));
                }
                Some(_) => {
                    // Take the run of plain characters up to the next
                    // quote, escape or control byte in one slice. Those
                    // are all ASCII, so the run ends on a char boundary.
                    let len = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    if let Some(out) = &mut decoded {
                        out.push_str(&self.text[start..start + len]);
                    }
                    self.pos += len;
                }
            }
        }
    }

    /// Parses `[v, …]`, handing each element to `item`.
    fn items(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Parses `{"k": v, …}`, handing each member's key to `member` with
    /// the parser positioned at its value.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Text across every escaping class: controls, the two characters
    /// with dedicated escapes, printable ASCII, and multi-byte scalars.
    pub(crate) fn arb_text() -> impl Strategy<Value = String> {
        let c = prop_oneof![
            0u32..0x20,
            Just(u32::from('"')),
            Just(u32::from('\\')),
            0x20u32..0x7f,
            0xa0u32..0xd800,
            0x1_f300u32..0x1_f600,
        ]
        .prop_map(|c| char::from_u32(c).expect("ranges avoid surrogates"));
        prop::collection::vec(c, 0..16).prop_map(|cs| cs.into_iter().collect())
    }

    #[test]
    fn round_trips_a_record_line() {
        let v = Json::Obj(vec![
            ("record".into(), Json::str("injection")),
            ("task".into(), Json::u64(17)),
            ("outcome".into(), Json::str("sdc")),
            ("steps".into(), Json::u64(u64::MAX)),
        ]);
        let text = v.to_string();
        assert_eq!(
            text,
            r#"{"record":"injection","task":17,"outcome":"sdc","steps":18446744073709551615}"#
        );
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("steps").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let v = Json::str("a\"b\\c\nd\te\u{1}");
        let text = v.to_string();
        assert_eq!(text, r#""a\"b\\c\nd\te\u0001""#);
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_nested_structures() {
        let text = r#" {"a": [1, 2.5, -3, true, false, null], "b": {"c": "d"}} "#;
        let v = Json::parse(text).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 6);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1 2",
            "{\"a\":}",
            "\"unterminated",
            "nul",
            "--1",
            "{\"a\":1,}",
        ] {
            assert!(
                Json::parse(bad).is_err(),
                "accepted malformed input {bad:?}"
            );
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::str("Aé"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).unwrap_err().contains("nesting"));
        // A body of a few MiB, well under the daemon's request cap, that
        // would recurse once per byte without the limit.
        let hostile = "[{\"a\":".repeat(1 << 20);
        assert!(Json::parse(&hostile).unwrap_err().contains("nesting"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Mixed ASCII, multi-byte characters and escapes, 4 MiB in all.
        let unit = "abcé€\\n\\\"";
        let text = format!("\"{}\"", unit.repeat((4 << 20) / unit.len()));
        let t0 = std::time::Instant::now();
        let v = Json::parse(&text).unwrap();
        // Re-scanning the rest of the input per character would take
        // hours at this size; one linear pass takes milliseconds.
        assert!(t0.elapsed() < std::time::Duration::from_secs(20));
        let expected = "abcé€\n\"".repeat((4 << 20) / unit.len());
        assert_eq!(v, Json::str(expected));
        // Raw control characters are still refused.
        assert!(Json::parse("\"a\u{1}b\"").is_err());
    }
}
