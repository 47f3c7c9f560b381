//! A minimal JSON parser and printer — the workspace's one shared JSON
//! module.
//!
//! The build environment has no crates.io access, so there is no serde;
//! this ~150-line recursive-descent parser is what the tests and the CI
//! gate use to validate the Chrome trace export.
//! It accepts the full JSON grammar (RFC 8259) minus exotic number forms
//! beyond what `f64::from_str` handles, which is more than the exporter
//! emits.
//!
//! The module is deliberately self-contained (the Chrome exporter borrows
//! [`escape`] from here, not the other way around) so downstream crates can
//! use it without pulling in the rest of the tracing machinery: `hpf-tune`
//! reads its on-disk tuning cache through [`parse`] and writes it through
//! [`Value::render`], and `hpf-trace` is a leaf crate, so no dependency
//! cycle arises.

/// A parsed JSON value. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render back to compact JSON (canonical form for round-trip tests).
    pub fn render(&self) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n:?}")
                }
            }
            Value::String(s) => format!("\"{}\"", escape(s)),
            Value::Array(a) => {
                let inner: Vec<String> = a.iter().map(Value::render).collect();
                format!("[{}]", inner.join(","))
            }
            Value::Object(kv) => {
                let inner: Vec<String> =
                    kv.iter().map(|(k, v)| format!("\"{}\":{}", escape(k), v.render())).collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parse a complete JSON document. Errors carry a byte offset.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0, depth: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

/// Maximum container nesting the parser accepts. Hand-written recursive
/// descent recurses once per `[`/`{`, so unbounded depth would let a
/// hostile document (a tampered tuning cache, a corrupt metrics snapshot)
/// overflow the stack; anything the workspace emits is a handful of
/// levels deep.
const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at {}", self.i)),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.i));
        }
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut kv = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Object(kv));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            kv.push((k, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Object(kv));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut a = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Array(a));
        }
        loop {
            self.ws();
            a.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Array(a));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.i += 4;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control char at byte {}", self.i));
                    }
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.i += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        text.parse::<f64>().map(Value::Number).map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), Value::Number(-1250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::String("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":"x"},null],"c":false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(false)));
        match v.get("a") {
            Some(Value::Array(a)) => {
                assert_eq!(a.len(), 3);
                assert_eq!(a[1].get("b"), Some(&Value::String("x".into())));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1}x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01abc").is_err());
    }

    #[test]
    fn round_trip_is_stable() {
        let src = r#"{"s":"q\"uote","n":1.5,"i":-7,"a":[true,null],"o":{"k":0}}"#;
        let v1 = parse(src).unwrap();
        let printed = v1.render();
        let v2 = parse(&printed).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(printed, v2.render());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap(), Value::String("Aé".into()));
    }

    #[test]
    fn every_simple_escape_decodes() {
        let v = parse(r#""\"\\\/\b\f\n\r\t""#).unwrap();
        assert_eq!(v, Value::String("\"\\/\u{8}\u{c}\n\r\t".into()));
        // Unknown escapes and truncated \u sequences are rejected, not
        // passed through.
        assert!(parse(r#""\q""#).is_err());
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\u12zz""#).is_err());
        assert!(parse("\"ends-in-backslash\\").is_err());
    }

    #[test]
    fn escape_and_parse_invert_each_other() {
        let nasty = "tab\t nl\n cr\r quote\" slash\\ bell\u{7} é∂";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), Value::String(nasty.into()));
    }

    #[test]
    fn deep_nesting_round_trips_below_the_limit() {
        let depth = 100;
        let doc = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        let v = parse(&doc).unwrap();
        assert_eq!(v.render(), doc);
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing() {
        let deep_array = format!("{}0{}", "[".repeat(4000), "]".repeat(4000));
        let err = parse(&deep_array).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        let deep_object = "{\"k\":".repeat(4000) + "1" + &"}".repeat(4000);
        assert!(parse(&deep_object).unwrap_err().contains("nesting deeper"));
        // The guard resets between siblings: wide-but-shallow stays fine.
        let wide = format!("[{}]", vec!["[0]"; 4000].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn duplicate_keys_keep_both_entries_and_get_returns_the_first() {
        let v = parse(r#"{"k":1,"k":2,"other":3}"#).unwrap();
        assert_eq!(v.get("k"), Some(&Value::Number(1.0)));
        match &v {
            Value::Object(kv) => assert_eq!(kv.len(), 3, "no silent dedup: {kv:?}"),
            other => panic!("unexpected: {other:?}"),
        }
        // Round-tripping preserves the duplicate rather than dropping it.
        assert_eq!(v.render(), r#"{"k":1,"k":2,"other":3}"#);
    }

    #[test]
    fn every_truncation_of_a_valid_document_is_rejected() {
        let src = r#"{"a":[1,-2.5e3,{"b":"x\ny"},null],"c":[true,false]}"#;
        assert!(parse(src).is_ok());
        for cut in 1..src.len() {
            if !src.is_char_boundary(cut) {
                continue;
            }
            let prefix = &src[..cut];
            assert!(parse(prefix).is_err(), "prefix {prefix:?} parsed");
        }
    }
}
