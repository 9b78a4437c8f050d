//! Generic JSON trees over the vendored `serde`/`serde_json` shims (which
//! only serialise concrete types): a transparent wrapper around the shim's
//! `Value`, plus the few constructors and accessors the benchmark needs.

use serde::{de, Deserialize, Serialize, Value};

/// A JSON document of any shape.
#[derive(Debug, Clone, PartialEq)]
struct Json(Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        Ok(Json(value.clone()))
    }
}

/// Parses a JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// Reads and parses a JSON file.
pub fn read(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One-line rendering. Non-finite numbers (never produced on a healthy run)
/// are written as 0 rather than aborting the report.
pub fn compact(value: &Value) -> String {
    serde_json::to_string(&Json(finite(value))).expect("finite JSON tree")
}

/// Indented rendering.
pub fn pretty(value: &Value) -> String {
    serde_json::to_string_pretty(&Json(finite(value))).expect("finite JSON tree")
}

fn finite(value: &Value) -> Value {
    match value {
        Value::F64(f) if !f.is_finite() => Value::F64(0.0),
        Value::Seq(items) => Value::Seq(items.iter().map(finite).collect()),
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .map(|(k, v)| (k.clone(), finite(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// An object from `(key, value)` pairs, in order.
pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A string value.
pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// The `0x`-prefixed 16-digit hex rendering of a digest.
pub fn hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

/// Member `key` of an object.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_map()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Follows a path of object keys.
pub fn at<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(value, |v, key| get(v, key))
}

/// Any JSON number as `f64`.
pub fn as_f64(value: &Value) -> Option<f64> {
    match *value {
        Value::F64(f) => Some(f),
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        _ => None,
    }
}

/// A non-negative JSON integer.
pub fn as_u64(value: &Value) -> Option<u64> {
    match *value {
        Value::U64(n) => Some(n),
        _ => None,
    }
}

/// A JSON string.
pub fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents_and_reads_numbers_of_either_kind() {
        let doc = obj([
            ("name", text("wall_s")),
            ("bound", Value::F64(0.1)),
            ("run_seconds", Value::U64(15)),
            ("nested", obj([("digest", text(hex(0xab)))])),
        ]);
        let back = parse(&compact(&doc)).unwrap();
        assert_eq!(back, doc);
        assert_eq!(as_f64(get(&back, "bound").unwrap()), Some(0.1));
        assert_eq!(as_f64(get(&back, "run_seconds").unwrap()), Some(15.0));
        assert_eq!(
            at(&back, &["nested", "digest"]).and_then(as_str),
            Some("0x00000000000000ab")
        );
        assert!(at(&back, &["nested", "missing"]).is_none());
        assert!(parse(&pretty(&doc)).is_ok());
    }

    #[test]
    fn non_finite_numbers_do_not_abort_a_report() {
        let line = compact(&obj([("ratio", Value::F64(f64::NAN))]));
        assert_eq!(line, r#"{"ratio":0.0}"#);
    }
}
