//! The one JSON reader: a strict RFC 8259 recursive-descent parser that
//! builds values. The exporter tests validate documents with it
//! ([`crate::json_is_valid`]), the bench gate reads its baseline with it,
//! and the trace validator walks chrome traces with it — no JSON
//! dependency needed.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, key order normalised (a repeated key keeps its last
    /// value).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .map(|n| n as u64)
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// A message naming the first grammar violation and its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing content"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `lit` if the input continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let found = self.text[self.pos..].starts_with(lit);
        if found {
            self.pos += lit.len();
        }
        found
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ if self.eat("null") => Ok(Value::Null),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Consumes a run of ASCII digits, returning how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat("-");
        if !self.eat("0") && (!matches!(self.peek(), Some(b'1'..=b'9')) || self.digits() == 0) {
            return Err(self.error("expected a digit"));
        }
        if self.eat(".") && self.digits() == 0 {
            return Err(self.error("expected a fraction digit"));
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            let _ = self.eat("+") || self.eat("-");
            if self.digits() == 0 {
                return Err(self.error("expected an exponent digit"));
            }
        }
        self.text[start..self.pos]
            .parse()
            .map(Value::Number)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    /// A `\u` escape (the `\u` already consumed), joining a UTF-16
    /// surrogate pair; a lone surrogate is rejected.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.eat("\\u") {
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte
            // whole: the input is already valid UTF-8.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    };
                    self.pos += 1;
                    out.push(escaped);
                }
                Some(_) => return Err(self.error("unescaped control character")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The comma-separated items of an array or object up to `close`
    /// (the opening bracket already consumed).
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut map = BTreeMap::new();
        self.items(b'}', |p| {
            p.skip_ws();
            if p.peek() != Some(b'"') {
                return Err(p.error("expected an object key"));
            }
            let key = p.string()?;
            p.skip_ws();
            if !p.eat(":") {
                return Err(p.error("expected `:`"));
            }
            map.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(Value::Object(map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(text: &str) -> bool {
        parse(text).is_ok()
    }

    #[test]
    fn accepts_the_grammar_and_rejects_violations() {
        // The strict validator's cases.
        assert!(ok("{}"));
        assert!(ok("[]"));
        assert!(ok(r#"{"a":[1,2.5,-3e2],"b":"x\n","c":null}"#));
        assert!(ok("  [true, false]  "));
        assert!(!ok(""));
        assert!(!ok("{"));
        assert!(!ok("[1,]"));
        assert!(!ok(r#"{"a":}"#));
        assert!(!ok("[1] trailing"));
        assert!(!ok(r#"{"a" 1}"#));
        // The bench-gate reader's cases, at the value level.
        assert!(!ok(r#"{"ops": 5"#));
        assert!(!ok(r#"{"ops": 5,}"#));
        // Numbers the lax reader used to accept.
        for bad in ["+1", "01", "1.", ".5", "1e", "-", "--1", "1e+"] {
            assert!(!ok(bad), "{bad:?} must be rejected");
        }
        for good in ["0", "-0", "10", "1.25", "1e3", "1E-3", "-0.5e+2"] {
            assert!(ok(good), "{good:?} must be accepted");
        }
        // Strings: invalid escapes, raw control bytes, unterminated.
        assert!(!ok(r#""\x""#));
        assert!(!ok("\"tab\there\""));
        assert!(!ok(r#""open"#));
        assert!(!ok(r#""\u12""#));
        assert!(!ok(r#""\ud800""#), "lone high surrogate");
        assert!(!ok(r#""\udc00""#), "lone low surrogate");
    }

    #[test]
    fn decodes_escapes() {
        let s = parse(r#""a\"b\\c\/d\b\f\n\r\t""#).expect("escapes");
        assert_eq!(s.as_str(), Some("a\"b\\c/d\u{8}\u{c}\n\r\t"));
        let u = parse(r#""\u0041\u00e9\u6587\ud83d\ude80""#).expect("unicode");
        assert_eq!(u.as_str(), Some("Aé文🚀"));
        let raw = parse("\"ünïcodé 文件\"").expect("raw UTF-8");
        assert_eq!(raw.as_str(), Some("ünïcodé 文件"));
    }

    #[test]
    fn builds_values() {
        let v = parse(r#"{"ops": 200, "x": [1, "two", null, true], "m": -1.5}"#).expect("doc");
        let obj = v.as_object().expect("object");
        assert_eq!(obj["ops"].as_u64(), Some(200));
        assert_eq!(obj["m"].as_u64(), None, "negative is not a u64");
        assert_eq!(obj["m"].as_f64(), Some(-1.5));
        let items = obj["x"].as_array().expect("array");
        assert_eq!(items.len(), 4);
        assert_eq!(items[1].as_str(), Some("two"));
        assert_eq!(items[2], Value::Null);
        assert_eq!(items[3], Value::Bool(true));
    }

    #[test]
    fn errors_name_the_offset() {
        let e = parse("[1, 2 3]").expect_err("missing comma");
        assert!(e.contains("byte 6"), "{e}");
    }
}
