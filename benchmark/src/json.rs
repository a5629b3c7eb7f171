//! A JSON value and its encoder: all the benchmark needs to print its
//! result line and write its report files. Nothing here parses JSON.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Whole numbers keep every digit (counts, digests as text are `Str`).
    Int(u64),
    /// Non-finite values encode as `null`: JSON has no spelling for them.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept, so output is deterministic.
    Obj(Vec<(String, Json)>),
    /// Already-encoded JSON text, embedded verbatim.
    Raw(String),
}

impl Json {
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact single-line encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").expect("write to String"),
            Json::Num(x) if x.is_finite() => write!(out, "{x:?}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(text) => out.push_str(text.trim()),
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_every_variant() {
        let v = Json::obj([
            ("none", Json::Null),
            ("ok", Json::Bool(true)),
            ("n", Json::Int(u64::MAX)),
            ("x", Json::Num(0.1)),
            ("whole", Json::Num(3.0)),
            ("nan", Json::Num(f64::NAN)),
            ("s", Json::str("a\"b\\c\n\u{1}")),
            ("a", Json::nums(&[1.5, 2.0])),
            ("raw", Json::Raw(" {\"k\": 1}\n".to_string())),
        ]);
        assert_eq!(
            v.encode(),
            "{\"none\": null, \"ok\": true, \"n\": 18446744073709551615, \"x\": 0.1, \"whole\": 3.0, \
             \"nan\": null, \"s\": \"a\\\"b\\\\c\\n\\u0001\", \"a\": [1.5, 2.0], \"raw\": {\"k\": 1}}"
        );
    }
}
