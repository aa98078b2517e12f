//! JSON in both directions. Writing reuses the repository's own
//! deterministic document model (`kairos::sim::json::Json`); this module
//! adds the single-line rendering the result line needs and the reader
//! `--compare` and `--repeat` need (the repository has only a writer).

use kairos::sim::json::Json;

/// Renders `doc` on one line.
pub fn compact(doc: &Json) -> String {
    // The pretty renderer puts nothing but indentation after a newline
    // and never emits a raw newline inside a string (they are escaped).
    doc.render().lines().map(str::trim_start).collect()
}

/// Parses a JSON document.
///
/// # Errors
///
/// A message naming the byte offset of the first malformed token.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser { bytes: text.as_bytes(), at: 0 };
    let value = parser.value()?;
    parser.skip_space();
    if parser.at != parser.bytes.len() {
        return Err(parser.fail("trailing characters"));
    }
    Ok(value)
}

/// `doc[key]` for an object.
pub fn get<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(value: &Json) -> Option<f64> {
    match *value {
        Json::Float(v) => Some(v),
        Json::UInt(v) => Some(v as f64),
        Json::Int(v) => Some(v as f64),
        _ => None,
    }
}

pub fn as_str(value: &Json) -> Option<&str> {
    match value {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_array(value: &Json) -> Option<&[Json]> {
    match value {
        Json::Array(items) => Some(items),
        _ => None,
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("malformed JSON at byte {}: {what}", self.at)
    }

    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            None => Err(self.fail("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut entries = Vec::new();
        loop {
            self.skip_space();
            if self.eat("}") {
                return Ok(Json::Object(entries));
            }
            if !entries.is_empty() && !self.eat(",") {
                return Err(self.fail("expected `,` or `}`"));
            }
            self.skip_space();
            let key = self.string()?;
            self.skip_space();
            if !self.eat(":") {
                return Err(self.fail("expected `:`"));
            }
            entries.push((key, self.value()?));
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut items = Vec::new();
        loop {
            self.skip_space();
            if self.eat("]") {
                return Ok(Json::Array(items));
            }
            if !items.is_empty() && !self.eat(",") {
                return Err(self.fail("expected `,` or `]`"));
            }
            items.push(self.value()?);
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.fail("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&byte) = self.bytes.get(self.at) else {
                return Err(self.fail("unterminated string"));
            };
            self.at += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|_| self.fail("invalid UTF-8")),
                b'\\' => {
                    let Some(&escape) = self.bytes.get(self.at) else {
                        return Err(self.fail("unterminated escape"));
                    };
                    self.at += 1;
                    match escape {
                        b'"' | b'\\' | b'/' => out.push(escape),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.at += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.fail("unknown escape")),
                    }
                }
                _ => out.push(byte),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        let token =
            std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII by construction");
        if let Ok(v) = token.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
        if let Ok(v) = token.parse::<i64>() {
            return Ok(Json::Int(v));
        }
        token.parse::<f64>().map(Json::Float).map_err(|_| self.fail("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_writer() {
        let mut doc = Json::object();
        doc.push("name", "a \"quoted\" name").push("n", 3u64).push("x", -1.5f64);
        doc.push("list", Json::Array(vec![Json::Bool(true), Json::Null, Json::from(2.0f64)]));
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        let line = compact(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(parse(&line).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} x").is_err());
    }
}
