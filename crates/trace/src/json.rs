//! Minimal hand-rolled JSON emission (no external dependencies).
//!
//! The exporters here only ever *write* JSON — there is no parsing —
//! so a tiny escape + builder layer is all the workspace needs.

/// Escape a string for inclusion inside JSON double quotes.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Format an `f64` as a JSON number (finite values only; non-finite
/// values become `null`, which JSON requires).
pub(crate) fn number(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trip representation Rust offers.
        let s = format!("{v}");
        // `{}` on f64 never prints exponents for typical magnitudes and
        // always includes a fractional form where needed; it is valid
        // JSON as-is (e.g. "1", "0.75", "1e-9").
        s
    } else {
        "null".to_string()
    }
}

/// Render a JSON array of numbers.
pub(crate) fn array_f64(vals: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&number(*v));
    }
    out.push(']');
    out
}

/// Incremental JSON object builder: `{"k": v, ...}` with one key per
/// call, no trailing-comma bookkeeping at call sites.
#[derive(Debug, Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    /// An empty object builder.
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push('"');
        self.body.push_str(&escape(k));
        self.body.push_str("\": ");
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.body.push('"');
        self.body.push_str(&escape(v));
        self.body.push('"');
    }

    /// Add a floating point field.
    pub fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        self.body.push_str(&number(v));
    }

    /// Add an unsigned integer field.
    pub(crate) fn int(&mut self, k: &str, v: u64) {
        self.key(k);
        self.body.push_str(&v.to_string());
    }

    /// Add an explicit `null` field.
    pub fn null(&mut self, k: &str) {
        self.key(k);
        self.body.push_str("null");
    }

    /// Add a field whose value is already-rendered JSON (an array or a
    /// nested object).
    pub(crate) fn raw(&mut self, k: &str, json: &str) {
        self.key(k);
        self.body.push_str(json);
    }

    /// Close the object and return it.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn number_handles_nonfinite() {
        assert_eq!(number(0.75), "0.75");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn object_builder_composes() {
        let mut o = JsonObject::new();
        o.str("name", "fig07");
        o.num("overlap", 0.9);
        o.int("bytes", 1024);
        o.null("missing");
        o.raw("xs", &array_f64(&[1.0, 2.5]));
        assert_eq!(
            o.finish(),
            "{\"name\": \"fig07\", \"overlap\": 0.9, \"bytes\": 1024, \
             \"missing\": null, \"xs\": [1, 2.5]}"
        );
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
