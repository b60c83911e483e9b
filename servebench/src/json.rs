//! Builders for the JSON value tree (objects keep insertion order).

pub use serde_json::JsonValue as Value;

/// An object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A string.
pub fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

/// A float.
pub fn num(v: f64) -> Value {
    Value::Float(v)
}

/// An integer.
pub fn int(v: u64) -> Value {
    Value::Int(i128::from(v))
}

/// An optional integer (`null` when absent).
pub fn opt_int(v: Option<u64>) -> Value {
    v.map_or(Value::Null, int)
}

/// Compact JSON text.
pub fn text(v: &Value) -> String {
    serde_json::to_string(v).expect("the vendored serializer is infallible")
}
