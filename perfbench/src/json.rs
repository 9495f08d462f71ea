//! The little JSON the benchmark needs: build a document, print it, read
//! one back (`--compare`, and the tests that hold `perf` to
//! `BENCHMARK.json`). No crate registry is reachable, so it is written here.

use std::fmt;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Keys keep insertion order, so records diff cleanly.
    Obj(Vec<(String, Value)>),
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}
impl From<u64> for Value {
    fn from(x: u64) -> Value {
        Value::Num(x as f64)
    }
}
impl From<bool> for Value {
    fn from(x: bool) -> Value {
        Value::Bool(x)
    }
}
impl From<&str> for Value {
    fn from(x: &str) -> Value {
        Value::Str(x.to_string())
    }
}
impl From<String> for Value {
    fn from(x: String) -> Value {
        Value::Str(x)
    }
}

impl Value {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Multi-line rendering for records that are checked in and diffed.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let newline = |out: &mut String, depth: usize| {
            if indent.is_some() {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
        };
        let inner = indent.map(|d| d + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN or infinity; a measurement that is not a
            // number is recorded as absent.
            Value::Num(x) if !x.is_finite() => out.push_str("null"),
            Value::Num(x) => out.push_str(&x.to_string()),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                // Arrays of scalars stay on one line even when pretty.
                let flat = items
                    .iter()
                    .all(|v| !matches!(v, Value::Arr(_) | Value::Obj(_)));
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if flat && indent.is_some() {
                            out.push(' ');
                        }
                    }
                    if !flat {
                        newline(out, inner.unwrap_or(0));
                    }
                    v.write(out, if flat { None } else { inner });
                }
                if !flat && !items.is_empty() {
                    newline(out, indent.unwrap_or(0));
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner.unwrap_or(0));
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, inner);
                }
                if !pairs.is_empty() {
                    newline(out, indent.unwrap_or(0));
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Single-line rendering: the form of a result line.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    self.eat(b':')?;
                    pairs.push((k, self.value()?));
                    self.ws();
                    if self.s.get(self.i) == Some(&b',') {
                        self.i += 1;
                    } else {
                        self.eat(b'}')?;
                        return Ok(Value::Obj(pairs));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.s.get(self.i) == Some(&b',') {
                        self.i += 1;
                    } else {
                        self.eat(b']')?;
                        return Ok(Value::Arr(items));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| self.err("bad number"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let c = *self
                .s
                .get(self.i)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.err("bad UTF-8")),
                b'\\' => {
                    let e = *self
                        .s
                        .get(self.i)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| self.err("short \\u"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other), // \" \\ \/
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = Value::obj([
            ("correct", Value::from(true)),
            ("attempted", Value::from(1_000_000_u64)),
            ("name", Value::from("a \"quoted\"\nline")),
            (
                "rounds",
                Value::Arr(vec![Value::from(36.25), Value::from(-1e-9), Value::Null]),
            ),
            (
                "nested",
                Value::obj([(
                    "k",
                    Value::Arr(vec![Value::obj([("x", Value::from(1_u64))])]),
                )]),
            ),
            ("empty", Value::Obj(vec![])),
        ]);
        let line = v.to_string();
        assert!(!line.contains('\n'));
        assert!(
            line.contains("\"attempted\":1000000,"),
            "whole numbers print without a fraction: {line}"
        );
        assert_eq!(parse(&line).unwrap(), v);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Value::from(f64::NAN).to_string(), "null");
        assert_eq!(Value::from(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "tru", "{\"a\":1} x", "\"open"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn reads_unicode_escapes_and_accessors() {
        let v = parse(r#"{"s": "café", "n": 2.5e3, "a": [1, 2]}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("café"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(2500.0));
        assert_eq!(
            v.get("a").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert!(v.get("missing").is_none());
    }
}
