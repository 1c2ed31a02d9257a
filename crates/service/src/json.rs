//! Typed field extraction over `serde_json::Value` request bodies.
//!
//! The workspace's JSON layer is the `serde_json` shim's `Value` alone, with
//! no derive, so request bodies are pulled apart field by field. Every
//! accessor returns a [`ServiceError`] naming the offending field, which
//! keeps 400 responses actionable.

use crate::error::ServiceError;
use serde_json::Value;
use smin_graph::error::quoted;

/// Parses a request body as a JSON object.
pub fn parse_object(body: &[u8]) -> Result<Value, ServiceError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServiceError::bad_request("request body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(ServiceError::bad_request("request body is empty"));
    }
    let value: Value = serde_json::from_str(text)
        .map_err(|e| ServiceError::bad_request(format!("invalid JSON body: {e}")))?;
    match value {
        Value::Object(_) => Ok(value),
        other => Err(ServiceError::bad_request(format!(
            "request body must be a JSON object, found {}",
            quoted(&serde_json::to_string(&other))
        ))),
    }
}

/// Looks up `key` in an object value.
pub fn field<'a>(obj: &'a Value, key: &str) -> Option<&'a Value> {
    match obj {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .filter(|v| !matches!(v, Value::Null)),
        _ => None,
    }
}

fn wrong_type(key: &str, expected: &str, found: &Value) -> ServiceError {
    ServiceError::bad_request(format!(
        "field '{key}' must be {expected}, found {}",
        quoted(&serde_json::to_string(found))
    ))
}

/// Optional string field.
pub fn opt_str(obj: &Value, key: &str) -> Result<Option<String>, ServiceError> {
    match field(obj, key) {
        None => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(other) => Err(wrong_type(key, "a string", other)),
    }
}

/// 2⁵³: JSON numbers are read as `f64`, which holds every integer below
/// this exactly. From here on neighbours collide (`9007199254740993` reads
/// as `…992`), so integer fields reject 2⁵³ itself and everything above.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

fn too_large(key: &str) -> ServiceError {
    ServiceError::bad_request(format!(
        "field '{key}' must be below 2^53 = 9007199254740992"
    ))
}

/// Optional non-negative integer field (rejects fractions, negatives and
/// values of 2⁵³ or more).
pub fn opt_usize(obj: &Value, key: &str) -> Result<Option<usize>, ServiceError> {
    opt_u64(obj, key)?
        .map(|x| usize::try_from(x).map_err(|_| too_large(key)))
        .transpose()
}

/// Optional u64 field (seeds), with [`opt_usize`]'s checks.
pub fn opt_u64(obj: &Value, key: &str) -> Result<Option<u64>, ServiceError> {
    match field(obj, key) {
        None => Ok(None),
        Some(Value::Number(x)) if x.fract() == 0.0 && *x >= 0.0 => {
            if *x >= EXACT_INT_LIMIT {
                return Err(too_large(key));
            }
            Ok(Some(*x as u64))
        }
        Some(other) => Err(wrong_type(key, "a non-negative integer", other)),
    }
}

/// Optional float field.
pub fn opt_f64(obj: &Value, key: &str) -> Result<Option<f64>, ServiceError> {
    match field(obj, key) {
        None => Ok(None),
        Some(Value::Number(x)) => Ok(Some(*x)),
        Some(other) => Err(wrong_type(key, "a number", other)),
    }
}

/// Optional bool field.
pub fn opt_bool(obj: &Value, key: &str) -> Result<Option<bool>, ServiceError> {
    match field(obj, key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(wrong_type(key, "a boolean", other)),
    }
}

/// Required string field.
pub fn req_str(obj: &Value, key: &str) -> Result<String, ServiceError> {
    opt_str(obj, key)?
        .ok_or_else(|| ServiceError::bad_request(format!("missing required field '{key}'")))
}

/// Required integer field.
pub fn req_usize(obj: &Value, key: &str) -> Result<usize, ServiceError> {
    opt_usize(obj, key)?
        .ok_or_else(|| ServiceError::bad_request(format!("missing required field '{key}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(s: &str) -> Value {
        parse_object(s.as_bytes()).unwrap()
    }

    #[test]
    fn parse_object_accepts_only_objects() {
        assert!(parse_object(b"{\"a\": 1}").is_ok());
        assert!(parse_object(b"[1,2]")
            .unwrap_err()
            .message
            .contains("object"));
        assert!(parse_object(b"").unwrap_err().message.contains("empty"));
        assert!(parse_object(b"{oops").unwrap_err().message.contains("JSON"));
        assert!(parse_object(&[0xFF, 0xFE])
            .unwrap_err()
            .message
            .contains("UTF-8"));
    }

    #[test]
    fn typed_accessors_extract_and_reject() {
        let v = obj(r#"{"s": "x", "n": 3, "f": 0.5, "b": true, "neg": -1, "frac": 1.5}"#);
        assert_eq!(opt_str(&v, "s").unwrap(), Some("x".to_string()));
        assert_eq!(opt_usize(&v, "n").unwrap(), Some(3));
        assert_eq!(opt_u64(&v, "n").unwrap(), Some(3));
        assert_eq!(opt_f64(&v, "f").unwrap(), Some(0.5));
        assert_eq!(opt_bool(&v, "b").unwrap(), Some(true));
        assert_eq!(opt_str(&v, "missing").unwrap(), None);
        assert!(opt_usize(&v, "neg").is_err());
        assert!(opt_usize(&v, "frac").is_err());
        assert!(opt_str(&v, "n").is_err());
        assert!(opt_bool(&v, "s").is_err());
    }

    #[test]
    fn integers_from_2_pow_53_are_rejected() {
        let v = obj(r#"{"below": 9007199254740991, "at": 9007199254740992,
                "above": 9007199254740993, "huge": 1e30}"#);
        assert_eq!(opt_u64(&v, "below").unwrap(), Some(9_007_199_254_740_991));
        assert_eq!(opt_usize(&v, "below").unwrap(), Some(9_007_199_254_740_991));
        for key in ["at", "above", "huge"] {
            for err in [
                opt_u64(&v, key).unwrap_err(),
                opt_usize(&v, key).unwrap_err(),
            ] {
                assert_eq!(err.status, 400);
                assert!(err.message.contains(&format!("'{key}'")), "{err}");
                assert!(err.message.contains("2^53"), "{err}");
            }
        }
    }

    #[test]
    fn null_fields_read_as_absent() {
        let v = obj(r#"{"x": null}"#);
        assert_eq!(opt_str(&v, "x").unwrap(), None);
        assert_eq!(opt_usize(&v, "x").unwrap(), None);
    }

    #[test]
    fn required_accessors_name_the_field() {
        let v = obj(r#"{"a": 1}"#);
        assert!(req_str(&v, "graph")
            .unwrap_err()
            .message
            .contains("'graph'"));
        assert_eq!(req_usize(&v, "a").unwrap(), 1);
    }
}
