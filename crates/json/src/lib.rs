//! The workspace's one JSON crate: a writer that renders the vendored
//! `serde::Value` tree and a total parser that reads it back.
//!
//! **Writer.** Compact output uses `"key":value` with no spaces; pretty
//! output uses two-space indentation. Integral floats keep a trailing
//! `.0` and non-finite floats render as `null`, so the writer never
//! fails.
//!
//! **Numbers.** A literal with no fraction and no exponent parses as an
//! exact integer — [`Value::Int`] when it fits `i128`, else
//! [`Value::UInt`] — so 128-bit peer ids survive a round trip (an `f64`
//! reader corrupts them above 2⁵³). Any other number is a
//! [`Value::Float`].
//!
//! **Totality.** [`parse`] is reachable from `PeerStore::load`, an L10
//! panic-free lint root, so it never unwraps or indexes, and it caps
//! nesting at a constant depth instead of recursing without bound: every
//! malformed input is an [`Error`].
#![forbid(unsafe_code)]

use serde::Serialize;
pub use serde::Value;

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    render(&value.to_value(), &mut out, None, 0);
    out
}

/// Serialize `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    render(&value.to_value(), &mut out, Some(2), 0);
    out
}

fn render(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => render_float(*f, out),
        Value::Str(s) => render_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                render(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                render_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(val, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * depth) {
            out.push(' ');
        }
    }
}

fn render_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Integral floats keep a trailing `.0`.
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", u32::from(c)));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. Deeper input is an
/// [`Error`], never unbounded recursion; the workspace's own documents
/// nest fewer than ten levels.
const MAX_DEPTH: usize = 128;

/// Why [`parse`] rejected its input, and the byte offset where.
#[derive(Debug, PartialEq)]
pub struct Error {
    msg: &'static str,
    offset: usize,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

/// Parse `text` as one JSON document.
///
/// # Errors
/// Malformed input, an integer outside `i128 ∪ u128`, a non-finite
/// float, a `\u` escape that is not a scalar value (surrogate pairs
/// included — no writer here emits them), nesting deeper than a fixed
/// cap, or trailing data.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos == text.len() {
        Ok(value)
    } else {
        Err(p.error("trailing data"))
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &'static str) -> Error {
        Error {
            msg,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'[') => self
                .elements(b']', |p| p.value(depth + 1))
                .map(Value::Array),
            Some(b'{') => self
                .elements(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.error("expected ':'"));
                    }
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Object),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// The comma-separated elements of an array or object, from its
    /// opening byte through `close`.
    fn elements<T>(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(element(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or a closing bracket"));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self
            .text
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(word))
        {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("expected a literal"))
        }
    }

    fn digits(&mut self) -> Result<(), Error> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.error("expected a digit"))
        } else {
            Ok(())
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, read as an
    /// exact integer when it has neither fraction nor exponent.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits()?;
        }
        let literal = self.text.get(start..self.pos).unwrap_or("");
        let value = if literal.contains(['.', 'e', 'E']) {
            literal
                .parse::<f64>()
                .ok()
                .filter(|f| f.is_finite())
                .map(Value::Float)
        } else {
            literal
                .parse::<i128>()
                .map(Value::Int)
                .or_else(|_| literal.parse::<u128>().map(Value::UInt))
                .ok()
        };
        value.ok_or(Error {
            msg: "number out of range",
            offset: start,
        })
    }

    fn string(&mut self) -> Result<String, Error> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            // A run of plain characters ends at an ASCII byte or the end
            // of input, so both slice bounds are char boundaries.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(self.text.get(start..self.pos).unwrap_or(""));
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, Error> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let c = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.error("bad \\u escape"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.error("unknown escape")),
        })
    }
}

/// Read access to a [`Value`]; each accessor is `None` when the value
/// has another shape.
pub trait ValueExt {
    /// The field `key` of an object (the first, if repeated).
    fn get(&self, key: &str) -> Option<&Value>;
    /// The text of a string.
    fn as_str(&self) -> Option<&str>;
    /// The value of a boolean.
    fn as_bool(&self) -> Option<bool>;
    /// The elements of an array.
    fn as_array(&self) -> Option<&[Value]>;
    /// Any number as `f64`; integers convert (rounding above 2⁵³).
    fn as_f64(&self) -> Option<f64>;
    /// A nonnegative integer, exact at full width.
    fn as_u128(&self) -> Option<u128>;
}

impl ValueExt for Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    fn as_u128(&self) -> Option<u128> {
        match self {
            Value::Int(i) => u128::try_from(*i).ok(),
            Value::UInt(u) => Some(*u),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_syntax() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("figure", "fig6".to_string());
        assert_eq!(to_string(&m), "{\"figure\":\"fig6\"}");
        assert_eq!(to_string(&vec![("a".to_string(), 1u32)]), "[[\"a\",1]]");
        assert_eq!(to_string_pretty(&vec![1u8, 2]), "[\n  1,\n  2\n]");
        assert_eq!(to_string(&1.0f64), "1.0");
        assert_eq!(to_string(&1.5f64), "1.5");
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn integers_stay_exact_and_floats_stay_floats() {
        assert_eq!(parse("7"), Ok(Value::Int(7)));
        assert_eq!(parse("-0"), Ok(Value::Int(0)));
        assert_eq!(parse(&u128::MAX.to_string()), Ok(Value::UInt(u128::MAX)));
        assert_eq!(parse(&i128::MIN.to_string()), Ok(Value::Int(i128::MIN)));
        assert_eq!(parse("-1.5e3"), Ok(Value::Float(-1500.0)));
        assert_eq!(parse("2E+2"), Ok(Value::Float(200.0)));
        assert_eq!(parse("5").ok().and_then(|v| v.as_f64()), Some(5.0));
        assert_eq!(parse("-5").ok().and_then(|v| v.as_u128()), None);
        assert_eq!(parse("5.0").ok().and_then(|v| v.as_u128()), None);
    }

    #[test]
    fn round_trips_the_writer_output() {
        #[derive(serde::Serialize)]
        struct Row {
            name: String,
            id: u128,
            delta: i64,
            value: f64,
            flag: bool,
            ceiling: Option<u64>,
            nested: Vec<Vec<u8>>,
        }
        let rows = [Row {
            name: "a \"quoted\"\u{1}\tname é".to_string(),
            id: u128::MAX,
            delta: -3,
            value: 608.4,
            flag: false,
            ceiling: None,
            nested: vec![vec![], vec![1, 2]],
        }];
        for body in [to_string(&rows), to_string_pretty(&rows)] {
            let doc = parse(&body).expect("writer output parses");
            assert_eq!(to_string(&doc), to_string(&rows));
            let row = doc.as_array().and_then(<[Value]>::first).expect("one row");
            assert_eq!(
                row.get("name").and_then(Value::as_str),
                Some("a \"quoted\"\u{1}\tname é")
            );
            assert_eq!(row.get("id").and_then(Value::as_u128), Some(u128::MAX));
            assert_eq!(row.get("value").and_then(Value::as_f64), Some(608.4));
            assert_eq!(row.get("flag").and_then(Value::as_bool), Some(false));
            assert_eq!(row.get("ceiling"), Some(&Value::Null));
            assert_eq!(row.get("absent"), None);
        }
        assert_eq!(
            parse(" { \"k\" : [ ] , \"u\" : \"\\u00e9\\/\" } "),
            Ok(Value::Object(vec![
                ("k".to_string(), Value::Array(Vec::new())),
                ("u".to_string(), Value::Str("é/".to_string())),
            ]))
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":}",
            "{1:2}",
            "\"open",
            "\"raw\ncontrol\"",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\u12\"",
            "1 2",
            "nul",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "1e999",
            "340282366920938463463374607431768211456",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
        // Nesting past the cap is an error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&format!("{}{}", "[".repeat(100_000), "]".repeat(100_000))).is_err());
        let capped = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&capped).is_ok());
        // Every proper prefix of a writer output is incomplete.
        let doc = parse(
            "{\"id\":340282366920938463463374607431768211455,\"x\":[-1.5e-7,\"\\\"\",null,true]}",
        )
        .expect("well-formed");
        for body in [to_string(&doc), to_string_pretty(&doc)] {
            for (cut, _) in body.char_indices() {
                assert!(parse(&body[..cut]).is_err(), "accepted prefix {cut}");
            }
        }
    }
}
