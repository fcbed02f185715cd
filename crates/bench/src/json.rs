//! Shared JSON emission for the benchmark binaries.
//!
//! Every `--json` artifact (`BENCH_serve.json`, `BENCH_store.json`,
//! `BENCH_fleet.json`, `table_storage --json`, …) is assembled from
//! library-provided fragments (`ServeReport::to_json`,
//! `StorageReport::to_json`, `FleetReport::to_json`) glued together
//! with a handful of scalar fields. This module is the one place that
//! glue lives: an order-preserving object builder plus the
//! print-and-write tail every binary shares. (Hand-rolled because the
//! workspace has no serde.)

/// An order-preserving JSON object builder.
///
/// ```
/// use milr_bench::json::JsonObject;
/// let json = JsonObject::new()
///     .string("net", "mnist")
///     .uint("params", 1724)
///     .float("ms", 1.25, 3)
///     .raw("nested", "{\"a\":1}")
///     .finish();
/// assert_eq!(json, "{\"net\":\"mnist\",\"params\":1724,\"ms\":1.250,\"nested\":{\"a\":1}}");
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

    fn key(mut self, key: &str) -> Self {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":");
        self
    }

    /// Appends a field whose value is already-encoded JSON (a nested
    /// object, array, or literal).
    pub fn raw(self, key: &str, value: &str) -> Self {
        let mut o = self.key(key);
        o.buf.push_str(value);
        o
    }

    /// Appends a string field (no escaping: benchmark labels are plain
    /// identifiers).
    pub fn string(self, key: &str, value: &str) -> Self {
        let mut o = self.key(key);
        o.buf.push('"');
        o.buf.push_str(value);
        o.buf.push('"');
        o
    }

    /// Appends an unsigned integer field.
    pub fn uint(self, key: &str, value: u64) -> Self {
        let mut o = self.key(key);
        o.buf.push_str(&value.to_string());
        o
    }

    /// Appends a float field with fixed `decimals`.
    pub fn float(self, key: &str, value: f64, decimals: usize) -> Self {
        let mut o = self.key(key);
        o.buf.push_str(&format!("{value:.decimals$}"));
        o
    }

    /// Closes the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Encodes a sequence of already-encoded JSON values as an array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// The shared tail of every benchmark binary: print the JSON summary to
/// stdout and, when `--json FILE` was given, write it (newline
/// terminated) and confirm on stderr.
///
/// # Panics
///
/// Panics when the file cannot be written — a benchmark whose artifact
/// silently vanished is worse than a failed run.
pub fn write_summary(json: &str, path: Option<&str>) {
    println!("{json}");
    if let Some(path) = path {
        std::fs::write(path, format!("{json}\n")).expect("writing the JSON summary");
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preserves_order_and_nests_raw_values() {
        let json = JsonObject::new()
            .uint("a", 1)
            .string("b", "two")
            .float("c", 0.5, 2)
            .raw("d", &array(vec!["1".into(), "{\"x\":2}".into()]))
            .finish();
        assert_eq!(
            json,
            "{\"a\":1,\"b\":\"two\",\"c\":0.50,\"d\":[1,{\"x\":2}]}"
        );
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(array(Vec::<String>::new()), "[]");
    }
}
