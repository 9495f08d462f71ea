//! The workspace's one JSON reader, and the string escape its writers
//! share.
//!
//! Every record the allocator stack emits (`stats().to_json()`, heap
//! dumps, profile snapshots) is hand-rolled text, and the offline tools
//! that read them back — the heap-dump analyzers in `lfmalloc::heapdump`,
//! the `lfstat` example — parse with [`parse`]. Deliberately minimal and
//! dependency-free: enough for the stack's own records, not a general
//! parser (numbers are `f64`, objects keep insertion order in a `Vec`,
//! duplicate keys resolve to the first).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Walks `a.b.c` through nested objects. A key may hold dots itself
    /// (the health record's `storms` are keyed by watch site, such as
    /// `active.reserve`): each member whose key starts the path is tried.
    pub fn get(&self, path: &str) -> Option<&Json> {
        let Json::Obj(fields) = self else { return None };
        fields.iter().find_map(|(k, v)| match path.strip_prefix(k.as_str())? {
            "" => Some(v),
            rest => v.get(rest.strip_prefix('.')?),
        })
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The number at `path`; an absent or non-numeric field reads 0, so
    /// records from before a counter existed still print.
    pub fn num(&self, path: &str) -> f64 {
        match self.get(path) {
            Some(Json::Num(n)) => *n,
            _ => 0.0,
        }
    }

    /// [`num`](Self::num) as an integer.
    pub fn u64(&self, path: &str) -> u64 {
        self.num(path) as u64
    }

    /// The string at `path`, `""` when absent.
    pub fn str(&self, path: &str) -> &str {
        self.get(path).and_then(Json::as_str).unwrap_or("")
    }

    /// The array at `path`, empty when absent.
    pub fn arr(&self, path: &str) -> &[Json] {
        self.get(path).and_then(Json::as_arr).unwrap_or(&[])
    }
}

/// Parses one JSON value from the front of `text`.
pub fn parse(text: &str) -> Result<Json, String> {
    Parser {
        bytes: text.as_bytes(),
        pos: 0,
    }
    .value()
}

/// Escapes a string for embedding in a JSON string literal (quotes not
/// included).
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn lit(&mut self, text: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        core::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                Some(&c) => {
                    // Copy the full UTF-8 sequence.
                    let len = match c {
                        c if c < 0x80 => 1,
                        c if c >= 0xF0 => 4,
                        c if c >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|b| core::str::from_utf8(b).ok())
                        .ok_or("bad utf-8 in string")?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("bad array at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("bad object at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v =
            parse(r#"{"a\n\"b":[1,2.5,-3,true,false,null,{"x":"A"}],"o":{"p":{"q":7}}}"#).unwrap();
        let arr = v.get("a\n\"b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[6].get("x").and_then(Json::as_str), Some("A"));
        assert_eq!(
            (v.u64("o.p.q"), v.u64("o.p.absent"), v.str("o.p")),
            (7, 0, "")
        );
        let dotted = parse(r#"{"s":{"a":{"x":1},"a.b":2}}"#).unwrap();
        assert_eq!((dotted.u64("s.a.x"), dotted.u64("s.a.b")), (1, 2), "a key with a dot");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape("plain/path.rs"), "plain/path.rs");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(
            parse(&format!("\"{}\"", escape("t\t\u{1}é"))).unwrap(),
            Json::Str("t\t\u{1}é".into())
        );
    }
}
