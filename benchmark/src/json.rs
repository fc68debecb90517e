//! JSON output. The value type and the parser are the program's own
//! (`bench::report::json`); this file adds only the writer the result
//! line, the trace files and `--check-repeat` need.

pub use bench::report::json::{parse, Value};

/// Serialise `v` on one line. Numbers print with Rust's shortest
/// round-trip formatting, so `parse(&write(v)) == v` for every finite
/// number; a non-finite number (never produced by a correct run) is
/// written as `null` because JSON has no spelling for it.
pub fn write(v: &Value) -> String {
    let mut out = String::new();
    write_into(v, &mut out);
    out
}

fn write_into(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(k, out);
                out.push_str(": ");
                write_into(item, out);
            }
            out.push('}');
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An object from `(key, value)` pairs, keys in the given order.
pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A number.
pub fn num(n: f64) -> Value {
    Value::Num(n)
}

/// A string.
pub fn string(s: &str) -> Value {
    Value::Str(s.to_string())
}
