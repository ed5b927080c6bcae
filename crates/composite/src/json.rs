//! A minimal JSON emitter and parser for harness output.
//!
//! The harness binaries dump tables and metric snapshots as JSON (and
//! JSON-lines), and the `sgtrace` analyzer reads flight-recorder dumps
//! back in. The repo builds in sealed environments with no registry
//! access, so rather than depending on an external serializer this module
//! provides the small value-tree writer and reader the harnesses need.
//! Emission is deterministic: object keys keep insertion order, floats
//! are written with `{:?}` (shortest round-trip representation), and
//! strings are escaped per RFC 8259.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    /// Insertion-ordered object; the writer emits keys in push order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Start an empty object.
    #[must_use]
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// Push a field onto an object; panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Object(fields) => fields.push((key.to_owned(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
        self
    }

    /// Parse one JSON document (used by `sgtrace` to read trace dumps
    /// back in; accepts exactly what the writer side emits, i.e. RFC
    /// 8259 minus exotic escapes the writer never produces).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` for non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Unsigned integer view (covers `Int`/`UInt` holding `>= 0`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Signed integer view.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// String view.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering (JSON-lines friendly).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with 2-space indentation.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => v.write_json(out),
            Json::UInt(v) => v.write_json(out),
            Json::Float(v) => v.write_json(out),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                let mut seq = SeqWriter::open(out, indent, depth, '[');
                for item in items {
                    item.write(seq.item(), indent, depth + 1);
                }
                seq.close();
            }
            Json::Object(fields) => {
                let mut seq = SeqWriter::open(out, indent, depth, '{');
                for (k, v) in fields {
                    v.write(seq.key(k), indent, depth + 1);
                }
                seq.close();
            }
        }
    }
}

/// A scalar the JSON writers can emit in place, with the same bytes the
/// matching [`Json`] variant writes.
pub(crate) trait WriteJson {
    fn write_json(&self, out: &mut String);
}

/// Append the decimal digits of `v` (what `{v}` writes, without the
/// formatting machinery: renderers write several integers per event).
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

impl WriteJson for u64 {
    fn write_json(&self, out: &mut String) {
        push_u64(out, *self);
    }
}

impl WriteJson for u32 {
    fn write_json(&self, out: &mut String) {
        push_u64(out, u64::from(*self));
    }
}

impl WriteJson for usize {
    fn write_json(&self, out: &mut String) {
        push_u64(out, *self as u64);
    }
}

impl WriteJson for i64 {
    fn write_json(&self, out: &mut String) {
        if *self < 0 {
            out.push('-');
        }
        push_u64(out, self.unsigned_abs());
    }
}

impl WriteJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }
}

impl WriteJson for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl WriteJson for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// Streams one JSON array or object into `out` item by item, producing
/// exactly the bytes [`Json::write`] produces for the equivalent tree
/// (the tree writer is built on it), so renderers can emit large
/// documents without materialising a [`Json`] value per element.
pub(crate) struct SeqWriter<'a> {
    out: &'a mut String,
    indent: Option<usize>,
    depth: usize,
    close: char,
    len: usize,
}

impl<'a> SeqWriter<'a> {
    /// Open a sequence (`'['` or `'{'`) at nesting `depth`.
    pub(crate) fn open(
        out: &'a mut String,
        indent: Option<usize>,
        depth: usize,
        open: char,
    ) -> Self {
        out.push(open);
        let close = if open == '[' { ']' } else { '}' };
        Self {
            out,
            indent,
            depth,
            close,
            len: 0,
        }
    }

    /// Start the next item: the separator and, when pretty, its line
    /// break and indentation. The caller writes the item into the
    /// returned buffer.
    pub(crate) fn item(&mut self) -> &mut String {
        if self.len > 0 {
            self.out.push(',');
        }
        self.len += 1;
        if let Some(w) = self.indent {
            newline_indent(self.out, w * (self.depth + 1));
        }
        self.out
    }

    /// Start an object field: the item separator and `"key":`.
    pub(crate) fn key(&mut self, key: &str) -> &mut String {
        let pretty = self.indent.is_some();
        let out = self.item();
        write_escaped(out, key);
        out.push(':');
        if pretty {
            out.push(' ');
        }
        out
    }

    /// One scalar array item.
    pub(crate) fn value(&mut self, value: impl WriteJson) {
        value.write_json(self.item());
    }

    /// One scalar object field.
    pub(crate) fn field(&mut self, key: &str, value: impl WriteJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// A nested array or object as the value of field `key` (`None`:
    /// as the next array item).
    pub(crate) fn nested(&mut self, key: Option<&str>, open: char) -> SeqWriter<'_> {
        let (indent, depth) = (self.indent, self.depth + 1);
        let out = match key {
            Some(k) => self.key(k),
            None => self.item(),
        };
        SeqWriter::open(out, indent, depth, open)
    }

    /// The underlying buffer, for a caller that drains what has been
    /// written so far (the writer keeps no offsets into it).
    pub(crate) fn buf(&mut self) -> &mut String {
        self.out
    }

    /// Close the sequence (on its own line when pretty and non-empty).
    pub(crate) fn close(self) {
        if self.len > 0 {
            if let Some(w) = self.indent {
                newline_indent(self.out, w * self.depth);
            }
        }
        self.out.push(self.close);
    }
}

fn newline_indent(out: &mut String, spaces: usize) {
    const BLANK: &str = "                                ";
    out.push('\n');
    let mut left = spaces;
    while left > 0 {
        let n = left.min(BLANK.len());
        out.push_str(&BLANK[..n]);
        left -= n;
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser is
/// recursive; the cap turns hostile input (a line of 100 000 `[`) into a
/// parse error instead of a stack overflow. The writers never nest
/// deeper than a handful of levels.
pub(crate) const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
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

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') => {
                if self.depth == MAX_PARSE_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_PARSE_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad codepoint at byte {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are sound).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number at byte {start}"))
        } else if let Ok(v) = text.parse::<i64>() {
            Ok(Json::Int(v))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

/// Append `s` as a JSON string literal, escaped per RFC 8259.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Append the escaped body of a JSON string (no quotes). Bytes that need
/// no escape are copied in runs; only ASCII bytes are ever escaped, so
/// runs always end on UTF-8 boundaries.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Array(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object_round_trips_structure() {
        let mut j = Json::object();
        j.push("name", "fs\"x")
            .push("count", 3u64)
            .push("ratio", 0.25);
        assert_eq!(j.to_line(), r#"{"name":"fs\"x","count":3,"ratio":0.25}"#);
    }

    #[test]
    fn pretty_indents_nested() {
        let mut inner = Json::object();
        inner.push("a", 1u64);
        let j = Json::Array(vec![inner, Json::Null]);
        assert_eq!(j.to_pretty(), "[\n  {\n    \"a\": 1\n  },\n  null\n]");
    }

    #[test]
    fn control_chars_escaped() {
        let j = Json::Str("a\nb\u{1}".into());
        assert_eq!(j.to_line(), "\"a\\nb\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_line(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_line(), "null");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut j = Json::object();
        j.push("name", "fs\"x\n")
            .push("count", 3u64)
            .push("neg", -7i64)
            .push("ratio", 0.25)
            .push("none", Json::Null)
            .push("flag", true)
            .push(
                "arr",
                Json::Array(vec![Json::Int(1), Json::Str("a".into())]),
            );
        let parsed = Json::parse(&j.to_line()).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("fs\"x\n"));
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("neg").and_then(Json::as_i64), Some(-7));
        assert_eq!(parsed.get("ratio"), Some(&Json::Float(0.25)));
        assert_eq!(parsed.get("none"), Some(&Json::Null));
        assert_eq!(parsed.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(
            parsed
                .get("arr")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
        // Pretty output parses too.
        assert_eq!(Json::parse(&j.to_pretty()).unwrap(), parsed);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_PARSE_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_PARSE_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Far past the cap, unbalanced, and mixed objects/arrays: an
        // error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&r#"{"a":["#.repeat(100_000)).is_err());
    }

    #[test]
    fn escaping_handles_runs_controls_and_non_ascii() {
        let j = Json::Str("q\"b\\ é\u{7f}\u{1f}\r\tend✓".into());
        assert_eq!(j.to_line(), "\"q\\\"b\\\\ é\u{7f}\\u001f\\r\\tend✓\"");
        assert_eq!(Json::parse(&j.to_line()).unwrap(), j);
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(
            Json::parse("\"a\\u0041\\u00e9\"").unwrap(),
            Json::Str("aAé".into())
        );
    }
}
