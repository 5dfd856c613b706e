//! JSON for the result line, results files and span dumps: `serde::Value`
//! trees written by the workspace's `serde_json`, whose numbers are the
//! shortest round-trip form, so every measured digit survives.

use serde::Value;

/// A measured number; non-finite values become `null`.
pub fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Float(x)
    } else {
        Value::Null
    }
}

/// A measured number, or `null` when absent.
pub fn opt(x: Option<f64>) -> Value {
    x.map_or(Value::Null, num)
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// An object from `(key, value)` pairs, in order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Compact rendering.
pub fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value tree always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_json_with_full_precision() {
        let v = obj([
            ("a", num(1.203_456_789_012_3)),
            (
                "b",
                Value::Array(vec![Value::Bool(true), opt(None), num(f64::NAN)]),
            ),
            ("c", text("q\"\\\n")),
            ("d", Value::UInt(5601)),
        ]);
        assert_eq!(
            render(&v),
            r#"{"a":1.2034567890123,"b":[true,null,null],"c":"q\"\\\n","d":5601}"#
        );
    }
}
