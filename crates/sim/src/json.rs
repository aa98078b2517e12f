//! Deterministic JSON emission.
//!
//! The workspace has no serialization dependency, so report
//! serialization is hand-rolled here: a tiny ordered document model
//! plus a writer whose output is byte-for-byte deterministic — object keys
//! keep insertion order and floats use Rust's shortest-roundtrip `Display`.
//! That determinism is load-bearing: the sim's reproducibility tests compare
//! whole rendered reports for byte equality.

use std::fmt::Write as _;

/// A JSON document node. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A finite float (non-finite values render as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::push`].
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends a key to an object.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Object(entries) => entries.push((key.to_owned(), value.into())),
            // The documented contract; every caller pushes onto a `Json::object()`.
            _ => panic!("Json::push on a non-object"),
        }
        self
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline, byte-for-byte deterministic for equal documents.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    // `Display` omits the decimal point for integral floats;
                    // keep the token a JSON float regardless.
                    let mut rendered = format!("{v}");
                    if !rendered.contains('.') && !rendered.contains('e') {
                        rendered.push_str(".0");
                    }
                    out.push_str(&rendered);
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Array(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let mut doc = Json::object();
        doc.push("name", "steady \"churn\"");
        doc.push("count", 3u64);
        doc.push("ratio", 0.25);
        doc.push("whole", 2.0);
        doc.push("flag", true);
        doc.push("items", vec![Json::UInt(1), Json::Null]);
        doc.push("empty", Json::Array(Vec::new()));
        let text = doc.render();
        assert!(text.contains("\"name\": \"steady \\\"churn\\\"\""));
        assert!(text.contains("\"ratio\": 0.25"));
        assert!(text.contains("\"whole\": 2.0"), "integral floats keep a decimal point: {text}");
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let make = || {
            let mut doc = Json::object();
            doc.push("a", 1u64);
            doc.push("b", vec![Json::Float(1.5), Json::Bool(false)]);
            doc.render()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null\n");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null\n");
    }
}
