//! A small JSON value with a writer and a reader.
//!
//! The benchmark writes its result files and reads them back for
//! `perf compare`; it also reads `BENCHMARK.json` for the metric bounds.
//! Nothing here is a general-purpose JSON library: numbers are `f64`,
//! objects keep insertion order, and the reader accepts exactly what the
//! writer and `BENCHMARK.json` produce.

use std::fmt::Write as _;

/// A JSON value. Objects keep the order their keys were written in.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
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

    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn as_obj(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(pairs) => pairs,
            _ => &[],
        }
    }

    /// One line, no spaces after separators: the form the driver reads
    /// from the last line of standard output.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// Indented by two spaces per level, for result files.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>) {
        let newline = |out: &mut String, level: usize| {
            if indent.is_some() {
                out.push('\n');
                for _ in 0..level {
                    out.push_str("  ");
                }
            }
        };
        let level = indent.unwrap_or(0);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            // Non-finite numbers have no JSON form; `null` marks "not
            // measured" and reads back as absent.
            Json::Num(v) if !v.is_finite() => out.push_str("null"),
            // Rust's shortest round-trip formatting keeps every digit
            // that was measured and reads back to the same f64.
            Json::Num(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, level + 1);
                    item.render(out, indent.map(|l| l + 1));
                }
                newline(out, level);
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, level + 1);
                    write_str(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.render(out, indent.map(|l| l + 1));
                }
                newline(out, level);
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; trailing non-space input is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? != b {
            return Err(format!("expected '{}' at byte {}", b as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => {
                self.pos += 1;
                let mut pairs = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text:?} at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let doc = Json::obj([
            ("name", Json::str("counter \"sat\"\nline two")),
            ("valid", Json::Bool(true)),
            ("nothing", Json::Null),
            ("ops_per_s", Json::Num(15234.567891234)),
            ("tiny", Json::Num(1.25e-7)),
            ("count", Json::Num(42.0)),
            (
                "slices",
                Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5), Json::Arr(vec![])]),
            ),
            ("nested", Json::obj([("k", Json::obj::<String>([]))])),
        ]);
        for text in [doc.to_line(), doc.to_pretty()] {
            assert_eq!(Json::parse(&text).expect("parse own output"), doc, "{text}");
        }
        assert!(!doc.to_line().contains('\n'));
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
    }

    #[test]
    fn numbers_keep_every_digit() {
        let v = 1.2034567890123;
        let back = Json::parse(&Json::Num(v).to_line()).expect("parse");
        assert_eq!(back.as_f64(), Some(v));
    }

    #[test]
    fn accessors_and_errors() {
        let doc = Json::parse(r#"{"a": [1, 2, {"b": "c"}], "d": false}"#).expect("parse");
        assert_eq!(doc.get("a").expect("a").as_arr().len(), 3);
        assert_eq!(
            doc.get("a").expect("a").as_arr()[2]
                .get("b")
                .and_then(Json::as_str),
            Some("c")
        );
        assert_eq!(doc.get("d").and_then(Json::as_bool), Some(false));
        assert!(doc.get("missing").is_none());
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\": ").is_err());
        assert!(Json::parse("[1, 2").is_err());
    }
}
