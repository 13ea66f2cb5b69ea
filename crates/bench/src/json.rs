//! Hand-rolled JSON writing and reading shared by the bench binaries.
//!
//! The stack deliberately has no JSON dependency; every `results/*.json`
//! artifact is emitted through [`document`] and its [`JsonObject`] so the
//! quoting, float formatting and indentation rules live in exactly one
//! place instead of being re-implemented per binary. Reading goes through the telemetry
//! crate's one JSON parser, re-exported here as [`parse`].

use std::fmt::Write as _;

/// Formats a float with fixed precision; non-finite values become `null`
/// so the emitted document always parses (a bare `inf`/`NaN` would not).
pub fn fmt_f64(v: f64, precision: usize) -> String {
    if v.is_finite() {
        format!("{v:.precision$}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for inclusion in a JSON document (quotes included).
pub use edgeis_telemetry::export::json_quote as quote;

/// Parses exactly one JSON document into a [`JsonValue`].
pub use edgeis_telemetry::export::{parse_json as parse, JsonValue};

/// Builds a pretty-printed JSON document rooted at an object.
pub fn document(f: impl FnOnce(&mut JsonObject)) -> String {
    let mut buf = String::new();
    buf.push('{');
    {
        let mut obj = JsonObject {
            buf: &mut buf,
            indent: 1,
            inline: false,
            first: true,
        };
        f(&mut obj);
    }
    buf.push('\n');
    buf.push('}');
    buf.push('\n');
    buf
}

fn push_indent(buf: &mut String, indent: usize) {
    for _ in 0..indent {
        buf.push_str("  ");
    }
}

/// Writes a `{...}` value filled by `f` at nesting depth `indent`: on one
/// line when `inline`, else one field per line and the closing brace on
/// its own line (an empty pretty object stays `{}`).
fn nested_object(buf: &mut String, indent: usize, inline: bool, f: impl FnOnce(&mut JsonObject)) {
    buf.push('{');
    let mut obj = JsonObject {
        buf,
        indent: if inline { indent } else { indent + 1 },
        inline,
        first: true,
    };
    f(&mut obj);
    if !(inline || obj.first) {
        obj.buf.push('\n');
        push_indent(obj.buf, indent);
    }
    obj.buf.push('}');
}

/// An object under construction. Pretty objects place one field per line;
/// inline objects (array rows) stay on a single line.
pub struct JsonObject<'a> {
    buf: &'a mut String,
    indent: usize,
    inline: bool,
    first: bool,
}

impl JsonObject<'_> {
    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        if self.inline {
            if !self.first {
                self.buf.push(' ');
            }
        } else {
            self.buf.push('\n');
            push_indent(self.buf, self.indent);
        }
        self.first = false;
        self.buf.push_str(&quote(key));
        self.buf.push_str(": ");
    }

    /// A field whose value is already valid JSON text.
    pub fn raw(&mut self, key: &str, value: &str) {
        self.key(key);
        self.buf.push_str(value);
    }

    /// A string field (escaped).
    pub fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        let quoted = quote(value);
        self.buf.push_str(&quoted);
    }

    /// An integer field.
    pub fn int(&mut self, key: &str, value: impl Into<i128>) {
        self.key(key);
        let _ = write!(self.buf, "{}", value.into());
    }

    /// A float field with fixed precision (`null` when non-finite).
    pub fn num(&mut self, key: &str, value: f64, precision: usize) {
        self.key(key);
        let s = fmt_f64(value, precision);
        self.buf.push_str(&s);
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// A nested object field, formatted inline (single line).
    pub fn inline_object(&mut self, key: &str, f: impl FnOnce(&mut JsonObject)) {
        self.key(key);
        nested_object(self.buf, self.indent, true, f);
    }

    /// A nested object field, pretty-printed.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut JsonObject)) {
        self.key(key);
        nested_object(self.buf, self.indent, false, f);
    }

    /// A nested array field.
    pub fn array(&mut self, key: &str, f: impl FnOnce(&mut JsonArray)) {
        self.key(key);
        self.buf.push('[');
        let empty = {
            let mut arr = JsonArray {
                buf: self.buf,
                indent: self.indent + 1,
                first: true,
            };
            f(&mut arr);
            arr.first
        };
        if !empty {
            self.buf.push('\n');
            push_indent(self.buf, self.indent);
        }
        self.buf.push(']');
    }
}

/// An array under construction: one element per line.
pub struct JsonArray<'a> {
    buf: &'a mut String,
    indent: usize,
    first: bool,
}

impl JsonArray<'_> {
    fn sep(&mut self) {
        if !self.first {
            self.buf.push(',');
        }
        self.buf.push('\n');
        push_indent(self.buf, self.indent);
        self.first = false;
    }

    /// An element that is already valid JSON text.
    pub fn raw(&mut self, value: &str) {
        self.sep();
        self.buf.push_str(value);
    }

    /// A single-line object element (the usual "row" shape).
    pub fn inline_object(&mut self, f: impl FnOnce(&mut JsonObject)) {
        self.sep();
        nested_object(self.buf, self.indent, true, f);
    }

    /// A pretty-printed object element.
    pub fn object(&mut self, f: impl FnOnce(&mut JsonObject)) {
        self.sep();
        nested_object(self.buf, self.indent, false, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_parseable_nested_document() {
        let doc = document(|o| {
            o.inline_object("workload", |w| {
                w.str("scenario", "indoor_simple");
                w.int("frames", 120);
                w.num("fps", 30.0, 1);
            });
            o.int("host_threads", 4);
            o.array("runs", |a| {
                for i in 0..2 {
                    a.object(|r| {
                        r.str("label", &format!("run{i}"));
                        r.num("p50_ms", 7.25 + i as f64, 4);
                        r.array("stages", |s| {
                            s.inline_object(|st| {
                                st.str("stage", "detect");
                                st.num("p50_ms", 3.5, 4);
                            });
                        });
                    });
                }
            });
            o.bool("pass", true);
            o.num("bad", f64::INFINITY, 3);
        });
        let parsed = parse(&doc).expect("round-trip");
        assert_eq!(
            parsed
                .get("workload")
                .and_then(|w| w.get("frames"))
                .and_then(JsonValue::as_f64),
            Some(120.0)
        );
        let runs = parsed.get("runs").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[1].get("label").and_then(JsonValue::as_str),
            Some("run1")
        );
        assert_eq!(
            runs[0]
                .get("stages")
                .and_then(JsonValue::as_arr)
                .map(|s| s.len()),
            Some(1)
        );
        assert_eq!(parsed.get("pass").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(parsed.get("bad"), Some(&JsonValue::Null));
    }

    #[test]
    fn strings_are_escaped_and_unescaped() {
        let doc = document(|o| o.str("msg", "a \"b\"\n\tc\\d"));
        let parsed = parse(&doc).expect("parse");
        assert_eq!(
            parsed.get("msg").and_then(JsonValue::as_str),
            Some("a \"b\"\n\tc\\d")
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parser_reads_existing_result_shapes() {
        let text = r#"{
  "workload": {"scenario": "indoor_simple", "seed": 7, "frames": 120},
  "cells": [
    {"config": "serial_fifo", "p99_ms": 103.25, "ok": true},
    {"config": "full", "p99_ms": 41.5, "ok": false}
  ],
  "speedup": 2.488
}"#;
        let v = parse(text).expect("parse");
        let cells = v.get("cells").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(
            cells[0].get("p99_ms").and_then(JsonValue::as_f64),
            Some(103.25)
        );
        assert_eq!(v.get("speedup").and_then(JsonValue::as_f64), Some(2.488));
    }

    #[test]
    fn non_finite_floats_never_break_the_document() {
        let doc = document(|o| {
            o.num("nan", f64::NAN, 2);
            o.num("inf", f64::NEG_INFINITY, 2);
            o.num("fine", 1.5, 2);
        });
        let parsed = parse(&doc).expect("parse");
        assert_eq!(parsed.get("nan"), Some(&JsonValue::Null));
        assert_eq!(parsed.get("fine").and_then(JsonValue::as_f64), Some(1.5));
    }
}
