//! A minimal JSON value type with emit and parse.
//!
//! Replaces `serde`/`serde_json` for the suite's needs: experiment and
//! bench results out, platform/profile descriptions round-tripped in
//! tests. Objects preserve insertion order so emitted files are stable
//! across runs (important for diffing `BENCH_*.json` artifacts).
//!
//! Types opt in by implementing [`ToJson`] / [`FromJson`] by hand — the
//! workspace policy (DESIGN.md §6) is explicit field mapping rather than
//! derive magic.

use std::fmt;

/// Maximum container nesting depth [`Json::parse`] accepts. The parser
/// recurses per nesting level, so adversarial input (the serve path
/// parses request bodies off the wire) must hit a parse error long
/// before it can exhaust the stack.
pub const MAX_PARSE_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on emit.
    Obj(Vec<(String, Json)>),
}

/// Error from [`Json::parse`] or [`FromJson`] conversions.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Human-readable description, with byte offset where applicable.
    pub msg: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Emit `self` as a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Build `Self` back from a [`Json`] value.
pub trait FromJson: Sized {
    /// Parses `Self` out of `v`.
    ///
    /// # Errors
    /// Returns [`JsonError`] when `v` has the wrong shape.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Convenience constructor for an object literal.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field, as an error otherwise.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key).ok_or_else(|| JsonError::new(format!("missing field '{key}'")))
    }

    /// The number inside, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool inside, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Required numeric field of an object.
    pub fn num_field(&self, key: &str) -> Result<f64, JsonError> {
        self.field(key)?
            .as_f64()
            .ok_or_else(|| JsonError::new(format!("field '{key}' is not a number")))
    }

    /// Required string field of an object.
    pub fn str_field(&self, key: &str) -> Result<&str, JsonError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| JsonError::new(format!("field '{key}' is not a string")))
    }

    /// Required boolean field of an object.
    pub fn bool_field(&self, key: &str) -> Result<bool, JsonError> {
        self.field(key)?
            .as_bool()
            .ok_or_else(|| JsonError::new(format!("field '{key}' is not a bool")))
    }

    /// Compact single-line emission.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty emission with two-space indentation and a trailing newline.
    pub fn emit_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    /// Returns [`JsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, x: f64) {
    if x.is_finite() {
        // Rust's shortest round-trip formatting; integral values print
        // without a fraction, like serde_json's integer path.
        out.push_str(&format!("{x}"));
    } else {
        // JSON has no Inf/NaN; emit null, as serde_json does by default.
        out.push_str("null");
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
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
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Bumps the container nesting depth; errors (instead of recursing
    /// toward a stack overflow) past [`MAX_PARSE_DEPTH`].
    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_PARSE_DEPTH} levels")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.descend()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{08}'),
                        Some(b'f') => s.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: must be followed by \uDC00..DFFF.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            s.push(c);
                            // hex4 leaves pos one past the last digit; the
                            // trailing pos += 1 below is for the simple
                            // escapes, so compensate.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the whole run of plain characters at once. The
                    // run ends only at an ASCII byte, never inside a UTF-8
                    // sequence, so it is valid text on its own; checking
                    // just the run keeps parsing linear in the input.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    s.push_str(run);
                }
            }
        }
    }

    /// Reads exactly four hex digits starting at `pos`; leaves `pos` one
    /// past the last digit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ascii in \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("bad hex in \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let x = text.parse::<f64>().map_err(|_| self.err("malformed number"))?;
        // `str::parse` rounds overflowing literals like `1e999` to ±Inf;
        // JSON has no non-finite numbers, and accepting them would let
        // wire input smuggle Inf/NaN into the models.
        if !x.is_finite() {
            return Err(self.err("number literal overflows to a non-finite value"));
        }
        Ok(Json::Num(x))
    }
}

// Blanket-ish impls for the primitives the suite serializes.

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::new("expected a number"))
    }
}

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let x = v.as_f64().ok_or_else(|| JsonError::new("expected a number"))?;
        if x < 0.0 || x.fract() != 0.0 {
            return Err(JsonError::new(format!("{x} is not a usize")));
        }
        Ok(x as usize)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::new("expected a bool"))
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string).ok_or_else(|| JsonError::new("expected a string"))
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::new("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1.5", "3.25e2", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            let back = Json::parse(&v.emit()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn nested_structure_round_trips() {
        let v = Json::obj([
            ("app", Json::Str("LBMHD3D".into())),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([
                        ("procs", Json::Num(64.0)),
                        ("gflops", Json::Arr(vec![Json::Num(0.14), Json::Null])),
                    ]),
                    Json::obj([("procs", Json::Num(256.0)), ("empty", Json::Obj(vec![]))]),
                ]),
            ),
            ("ok", Json::Bool(true)),
        ]);
        let compact = Json::parse(&v.emit()).unwrap();
        let pretty = Json::parse(&v.emit_pretty()).unwrap();
        assert_eq!(v, compact);
        assert_eq!(v, pretty);
    }

    #[test]
    fn escapes_round_trip() {
        let s = "quote\" backslash\\ newline\n tab\t unicode→ control\u{01} slash/";
        let v = Json::Str(s.to_string());
        let emitted = v.emit();
        assert!(emitted.contains("\\\""));
        assert!(emitted.contains("\\\\"));
        assert!(emitted.contains("\\n"));
        assert!(emitted.contains("\\u0001"));
        assert_eq!(Json::parse(&emitted).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""\u00e9\u2192""#).unwrap(), Json::Str("é→".to_string()));
        // Surrogate pair for U+1D11E (musical G clef).
        assert_eq!(Json::parse(r#""\ud834\udd1e""#).unwrap(), Json::Str("\u{1d11e}".to_string()));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Multibyte runs around an escape, 2.75 MiB in all: re-validating
        // the rest of the input per character ran for minutes in a debug
        // build; a linear parse takes milliseconds.
        let text = "é→ plain".repeat(1 << 17);
        let doc = format!("[\"{text}\\n{text}\"]");
        let t = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        assert!(t.elapsed() < std::time::Duration::from_secs(5), "took {:?}", t.elapsed());
        assert_eq!(parsed, Json::Arr(vec![Json::Str(format!("{text}\n{text}"))]));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let Json::Obj(fields) = &v else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
        assert_eq!(v.emit(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for text in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\" 1}",
            "[1 2]",
            "01x",
            "nul",
            "{\"a\":}",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud834\"",
            "[]extra",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn nesting_depth_is_limited() {
        // A document just inside the limit parses…
        let ok = "[".repeat(MAX_PARSE_DEPTH) + &"]".repeat(MAX_PARSE_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        // …one level deeper is a parse error, not a stack overflow.
        let deep = "[".repeat(MAX_PARSE_DEPTH + 1) + &"]".repeat(MAX_PARSE_DEPTH + 1);
        assert!(Json::parse(&deep).is_err());
        // Adversarially deep input (far beyond the limit, unterminated)
        // must come back as an error while the stack is still shallow.
        let hostile = "[".repeat(1 << 20);
        assert!(Json::parse(&hostile).is_err());
        let hostile_objs = r#"{"a":"#.repeat(1 << 18);
        assert!(Json::parse(&hostile_objs).is_err());
        // Mixed nesting counts both container kinds.
        let mixed = r#"[{"k":"#.repeat(MAX_PARSE_DEPTH) + "0";
        assert!(Json::parse(&mixed).is_err());
        // Sibling (non-nested) containers do not accumulate depth.
        let wide = format!("[{}]", vec!["[]"; 10_000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn non_finite_number_literals_are_rejected() {
        for text in ["1e999", "-1e999", "1e308888", "[1,2,1e400]", r#"{"x":-2.5e310}"#] {
            assert!(Json::parse(text).is_err(), "{text:?} must not parse");
        }
        // Large but finite literals still parse.
        assert_eq!(Json::parse("1e308").unwrap(), Json::Num(1e308));
        assert_eq!(Json::parse("-1.7976931348623157e308").unwrap(), Json::Num(f64::MIN));
        // Underflow to zero is finite and fine.
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn numbers_emit_shortest_form() {
        assert_eq!(Json::Num(1.0).emit(), "1");
        assert_eq!(Json::Num(0.14).emit(), "0.14");
        assert_eq!(Json::Num(-2.5e-3).emit(), "-0.0025");
        assert_eq!(Json::Num(f64::NAN).emit(), "null");
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = Json::parse(r#"{"name":"gtc","flops":12.5,"deep":{"x":[1,2]}}"#).unwrap();
        assert_eq!(v.str_field("name").unwrap(), "gtc");
        assert_eq!(v.num_field("flops").unwrap(), 12.5);
        assert_eq!(v.get("deep").unwrap().get("x").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.field("absent").is_err());
        assert!(v.num_field("name").is_err());
    }

    #[test]
    fn primitive_tojson_fromjson_round_trip() {
        let xs = vec![1.5f64, -2.0, 0.0];
        let j = xs.to_json();
        assert_eq!(Vec::<f64>::from_json(&j).unwrap(), xs);
        assert_eq!(usize::from_json(&Json::Num(7.0)).unwrap(), 7);
        assert!(usize::from_json(&Json::Num(7.5)).is_err());
        assert!(usize::from_json(&Json::Num(-1.0)).is_err());
        assert_eq!(String::from_json(&Json::Str("x".into())).unwrap(), "x");
    }
}
