//! The workspace's one JSON writer. Every report, trace event, span
//! tree, metrics snapshot, benchmark summary and HTTP body renders
//! through it. Hand-rolled because the workspace has no serde.
//!
//! Fields come out in call order, so a writer that calls the builder
//! in a fixed order renders byte-identical JSON for identical values —
//! the property the golden-parity and report-gate suites rely on.

use std::fmt::{Display, Write};

/// An order-preserving JSON object builder.
///
/// ```
/// use milr_obs::json::{array, JsonObject};
/// let json = JsonObject::new()
///     .string("net", "mnist")
///     .raw("params", 1724)
///     .float("ms", 1.25, 3)
///     .raw("ok", true)
///     .raw("layers", array([1, 2]))
///     .finish();
/// assert_eq!(json, r#"{"net":"mnist","params":1724,"ms":1.250,"ok":true,"layers":[1,2]}"#);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Appends a string field, quoted but not escaped: keys and labels
    /// in this workspace are plain identifiers.
    pub fn string(self, key: &str, value: &str) -> Self {
        self.raw(key, format_args!("\"{value}\""))
    }

    /// Appends a float field with fixed `decimals`.
    pub fn float(self, key: &str, value: f64, decimals: usize) -> Self {
        self.raw(key, format_args!("{value:.decimals$}"))
    }

    /// Appends a field written verbatim through `Display`: an integer,
    /// a bool, or already-encoded JSON (a nested object or array).
    pub fn raw(mut self, key: &str, value: impl Display) -> Self {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        write!(self.buf, "\"{key}\":{value}").expect("writing to a String cannot fail");
        self
    }

    /// Closes the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Encodes a sequence of values written verbatim through `Display`
/// (integers or already-encoded JSON) as an array.
pub fn array<I>(items: I) -> String
where
    I: IntoIterator,
    I::Item: Display,
{
    let items: Vec<String> = items.into_iter().map(|item| item.to_string()).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preserves_order_and_nests_raw_values() {
        let json = JsonObject::new()
            .raw("a", 1)
            .string("b", "two")
            .float("c", 0.5, 2)
            .raw("d", array(["1".to_string(), "{\"x\":2}".to_string()]))
            .raw("e", -3i64)
            .finish();
        assert_eq!(json, r#"{"a":1,"b":"two","c":0.50,"d":[1,{"x":2}],"e":-3}"#);
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(array(Vec::<String>::new()), "[]");
    }
}
