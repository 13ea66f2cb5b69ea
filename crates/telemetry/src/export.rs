//! Exporters and format validators.
//!
//! Three output formats, all hand-rolled (the workspace deliberately
//! carries no JSON dependency, see DESIGN.md §11):
//!
//! * **JSONL span/event sink** — one canonical JSON object per line,
//!   `{"type":"span"|"event", ...}`, in emission order.
//! * **Prometheus text snapshot** — rendered by
//!   [`Registry::prometheus_text`](crate::metrics::Registry::prometheus_text).
//! * **Chrome `trace_event`** — a `{"traceEvents":[...]}` object with
//!   complete (`"ph":"X"`) events for spans and instant (`"ph":"i"`)
//!   events, openable in `about:tracing` or Perfetto. Virtual-clock
//!   milliseconds are mapped to trace microseconds; `pid` is the device.
//!
//! The validators ([`validate_json`], [`validate_jsonl`],
//! [`validate_prometheus`]) are used by CI and the fleet smoke run to
//! assert that whatever we wrote actually parses. [`parse_json`] is the
//! reader behind them, and the one the bench tools load JSON with.

use crate::span::{EventRecord, SpanRecord};

/// Appends `s` to `out` with JSON string escaping: the workspace's one
/// JSON string escaper.
pub fn json_escape(s: &str, out: &mut String) {
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
}

/// `s` as a quoted, escaped JSON string.
pub fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    json_escape(s, &mut out);
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also what the writers emit for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers are represented exactly up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    text: &'a str,
    pos: usize,
}

impl JsonParser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let text = self.text;
        let mut out = String::new();
        // Unescaped bytes are copied a run at a time; `"` and `\` are
        // ASCII, so a run always ends on a char boundary.
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&text[run..self.pos]);
                    self.pos += 1;
                    out.push(match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = text
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("bad escape")),
                    });
                    self.pos += 1;
                    run = self.pos;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Consumes a run of ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        let leading_zero = int_digits > 1 && self.text.as_bytes()[int_start] == b'0';
        let mut ok = int_digits > 0 && !leading_zero;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(v) if ok => Ok(JsonValue::Num(v)),
            _ => Err(self.err("bad number")),
        }
    }
}

/// Parses `s` as exactly one JSON value (RFC 8259 grammar: JSON number
/// syntax, no raw control characters in strings, surrounding whitespace
/// allowed). The workspace's one JSON reader.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let mut p = JsonParser { text: s, pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(p.err("trailing garbage after JSON value"));
    }
    Ok(value)
}

/// Validates that `s` is exactly one well-formed JSON value.
pub fn validate_json(s: &str) -> Result<(), String> {
    parse_json(s).map(|_| ())
}

/// Validates that every non-empty line of `s` is a well-formed JSON
/// object. Returns the number of lines validated.
pub fn validate_jsonl(s: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        n += 1;
    }
    Ok(n)
}

/// Validates a Prometheus text-format snapshot the way `promtool check
/// metrics` would:
///
/// * every sample line is `name{labels} value` with a parseable float
///   value and balanced, quoted label pairs;
/// * every sample's metric *family* (the name with any `_bucket`/`_sum`/
///   `_count` suffix resolved back through its `# TYPE histogram`
///   declaration) has both a `# HELP` and a `# TYPE` comment;
/// * histogram `_bucket` series are cumulative: within one label set the
///   `le` edges strictly increase, the counts never decrease, and the
///   series ends in `le="+Inf"`.
///
/// Returns the number of sample lines validated.
pub fn validate_prometheus(s: &str) -> Result<usize, String> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut helped: BTreeSet<String> = BTreeSet::new();
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    // Bucket series key (name + labels minus `le`) -> [(le, cumulative)].
    let mut buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut n = 0;
    for (i, line) in s.lines().enumerate() {
        let line = line.trim();
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("HELP ") {
                let name = decl.split_whitespace().next().unwrap_or("");
                if name.is_empty() {
                    return Err(format!("line {lineno}: HELP without a metric name"));
                }
                helped.insert(name.to_string());
            } else if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if name.is_empty()
                    || !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    )
                {
                    return Err(format!("line {lineno}: bad TYPE declaration {decl:?}"));
                }
                typed.insert(name.to_string(), kind.to_string());
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: no value separator"))?;
        let value = if value == "+Inf" {
            f64::INFINITY
        } else if value == "-Inf" {
            f64::NEG_INFINITY
        } else {
            value
                .parse::<f64>()
                .map_err(|_| format!("line {lineno}: bad value {value:?}"))?
        };
        let series = series.trim();
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        let mut le: Option<f64> = None;
        let mut other_labels = String::new();
        if name_end < series.len() {
            if !series.ends_with('}') {
                return Err(format!("line {lineno}: unbalanced label braces"));
            }
            let labels = &series[name_end + 1..series.len() - 1];
            if !labels.is_empty() {
                for pair in split_label_pairs(labels) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {lineno}: bad label pair {pair:?}"))?;
                    if k.is_empty() || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                        return Err(format!("line {lineno}: bad label {pair:?}"));
                    }
                    if k == "le" {
                        let edge = &v[1..v.len() - 1];
                        le = Some(if edge == "+Inf" {
                            f64::INFINITY
                        } else {
                            edge.parse::<f64>()
                                .map_err(|_| format!("line {lineno}: bad le edge {edge:?}"))?
                        });
                    } else {
                        other_labels.push_str(pair);
                        other_labels.push(',');
                    }
                }
            }
        }
        // Resolve the sample back to its declared family.
        let family = if typed.contains_key(name) {
            name
        } else {
            let base = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| name.strip_suffix(suf))
                .filter(|base| typed.get(*base).map(String::as_str) == Some("histogram"));
            base.ok_or_else(|| format!("line {lineno}: sample {name:?} has no TYPE declaration"))?
        };
        if !helped.contains(family) {
            return Err(format!(
                "line {lineno}: metric family {family:?} has no HELP line"
            ));
        }
        if name.ends_with("_bucket") && typed.get(family).map(String::as_str) == Some("histogram") {
            let le = le.ok_or_else(|| format!("line {lineno}: histogram bucket without le"))?;
            buckets
                .entry(format!("{name}{{{other_labels}}}"))
                .or_default()
                .push((le, value));
        }
        n += 1;
    }
    for (series, edges) in &buckets {
        for w in edges.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!("{series}: le edges not increasing"));
            }
            if w[1].1 < w[0].1 {
                return Err(format!("{series}: bucket counts not cumulative"));
            }
        }
        match edges.last() {
            Some(&(le, _)) if le.is_infinite() => {}
            _ => return Err(format!("{series}: bucket series does not end in +Inf")),
        }
    }
    Ok(n)
}

/// Splits `a="x",b="y"` into label pairs, respecting quoted commas.
fn split_label_pairs(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_quotes => escaped = true,
            b'"' => in_quotes = !in_quotes,
            b',' if !in_quotes => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Renders spans and events as a JSONL document (one object per line),
/// spans first in emission order, then events.
pub fn render_jsonl(spans: &[SpanRecord], events: &[EventRecord]) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + events.len() * 120);
    for s in spans {
        out.push_str(&s.to_json());
        out.push('\n');
    }
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

/// Synthetic process id the edge-side spans render under, so Perfetto
/// shows the mobile fleet and the edge backend as distinct processes
/// (the span's `device` field still names the *originating* mobile).
pub const CHROME_EDGE_PID: u64 = 1_000_000;

fn chrome_pid(s: &SpanRecord) -> u64 {
    if s.name.starts_with("edge.") {
        CHROME_EDGE_PID
    } else {
        s.device
    }
}

/// Renders spans and events as a Chrome `trace_event` JSON document.
///
/// Spans become complete events (`"ph":"X"`), instants become `"ph":"i"`.
/// Virtual milliseconds map to trace microseconds; `pid` carries the
/// device id (edge-side spans render under [`CHROME_EDGE_PID`] so the
/// edge shows up as its own process), `tid` the trace id folded to keep
/// one frame per row; span identity travels in `args` so the causal tree
/// survives the export. Each mobile `frame` root span is linked to its
/// `edge.queue`/`edge.infer` spans with flow events (`"ph":"s"/"t"/"f"`,
/// one flow per trace id), which Perfetto draws as cross-process arrows.
pub fn render_chrome_trace(spans: &[SpanRecord], events: &[EventRecord]) -> String {
    let mut out = String::with_capacity(spans.len() * 220 + events.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"edgeis\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":\"{:016x}\",\"span_id\":{},\"parent_id\":{}",
            s.name,
            s.start_ms * 1000.0,
            (s.end_ms - s.start_ms).max(0.0) * 1000.0,
            chrome_pid(s),
            s.trace_id % 97,
            s.trace_id,
            s.span_id,
            match s.parent_id {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            },
        ));
        for (k, v) in &s.args {
            out.push_str(",\"");
            json_escape(k, &mut out);
            out.push_str("\":");
            match v {
                crate::span::ArgValue::U64(x) => out.push_str(&x.to_string()),
                crate::span::ArgValue::F64(x) => {
                    if x.is_finite() {
                        out.push_str(&format!("{x:.6}"));
                    } else {
                        out.push_str("null");
                    }
                }
                crate::span::ArgValue::Str(x) => {
                    out.push('"');
                    json_escape(x, &mut out);
                    out.push('"');
                }
            }
        }
        out.push_str("}}");
    }
    for e in events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"edgeis\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":\"{:016x}\"}}}}",
            e.name,
            e.ts_ms * 1000.0,
            e.device,
            e.trace_id % 97,
            e.trace_id,
        ));
    }

    // Flow events: one flow per trace, from the mobile frame root span
    // through that frame's edge-side spans in start order. The step/finish
    // timestamps sit at each edge span's start so the arrow binds to the
    // enclosing slice on the edge process row.
    let mut flow = String::new();
    for root in spans
        .iter()
        .filter(|s| s.name == "frame" && s.parent_id.is_none() && s.trace_id != 0)
    {
        let mut hops: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| {
                s.trace_id == root.trace_id && matches!(s.name, "edge.queue" | "edge.infer")
            })
            .collect();
        if hops.is_empty() {
            continue;
        }
        hops.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
        let tid = root.trace_id % 97;
        flow.push_str(&format!(
            ",{{\"name\":\"offload\",\"cat\":\"edgeis.flow\",\"ph\":\"s\",\"id\":\"{:016x}\",\"ts\":{:.3},\"pid\":{},\"tid\":{}}}",
            root.trace_id,
            root.start_ms * 1000.0,
            chrome_pid(root),
            tid,
        ));
        for (i, hop) in hops.iter().enumerate() {
            let last = i == hops.len() - 1;
            flow.push_str(&format!(
                ",{{\"name\":\"offload\",\"cat\":\"edgeis.flow\",\"ph\":\"{}\",{}\"id\":\"{:016x}\",\"ts\":{:.3},\"pid\":{},\"tid\":{}}}",
                if last { 'f' } else { 't' },
                if last { "\"bp\":\"e\"," } else { "" },
                hop.trace_id,
                hop.start_ms * 1000.0,
                chrome_pid(hop),
                tid,
            ));
        }
    }
    if first {
        // No span/event emitted anything yet: drop the leading comma.
        out.push_str(flow.strip_prefix(',').unwrap_or(&flow));
    } else {
        out.push_str(&flow);
    }

    // Process-name metadata so Perfetto labels the mobile devices and the
    // synthetic edge process.
    let mut pids: std::collections::BTreeSet<u64> = spans.iter().map(chrome_pid).collect();
    pids.extend(events.iter().map(|e| e.device));
    for pid in pids {
        if !first {
            out.push(',');
        }
        first = false;
        let label = if pid == CHROME_EDGE_PID {
            "edge".to_string()
        } else {
            format!("device-{pid}")
        };
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{label}\"}}}}",
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::ArgValue;

    fn sample_span(id: u64, parent: Option<u64>) -> SpanRecord {
        SpanRecord {
            trace_id: 0xabc,
            span_id: id,
            parent_id: parent,
            device: 1,
            name: "edge.queue",
            start_ms: 3.0,
            end_ms: 4.5,
            args: vec![("lane", ArgValue::U64(2))],
        }
    }

    fn sample_event() -> EventRecord {
        EventRecord {
            trace_id: 0xabc,
            parent_id: Some(1),
            device: 1,
            name: "edge.shed",
            ts_ms: 4.0,
            args: vec![("kind", ArgValue::Str("admission".into()))],
        }
    }

    #[test]
    fn validator_accepts_valid_and_rejects_malformed_json() {
        validate_json(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\n"},"d":null,"e":true}"#).unwrap();
        let v = parse_json(r#" {"s":"a\b\f\n\/\"\\\u00e9","n":-0.5e1} "#).unwrap();
        let s = v.get("s").and_then(JsonValue::as_str);
        assert_eq!(s, Some("a\u{8}\u{c}\n/\"\\\u{e9}"));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(-5.0));
        assert!(validate_json("{\"a\":1,}").is_err(), "trailing comma");
        assert!(validate_json("{\"a\"1}").is_err(), "missing colon");
        assert!(validate_json("[1,2] x").is_err(), "trailing garbage");
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("01abc").is_err());
        for bad in [
            "-",
            "1.",
            "1e",
            ".5",
            "+1",
            "00",
            "\"a\u{1}b\"",
            r#""\u12g4""#,
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn jsonl_rendering_round_trips_through_validator() {
        let spans = vec![sample_span(1, None), sample_span(2, Some(1))];
        let events = vec![sample_event()];
        let doc = render_jsonl(&spans, &events);
        assert_eq!(validate_jsonl(&doc).unwrap(), 3);
    }

    fn frame_root() -> SpanRecord {
        SpanRecord {
            trace_id: 0xabc,
            span_id: 1,
            parent_id: None,
            device: 1,
            name: "frame",
            start_ms: 0.0,
            end_ms: 10.0,
            args: Vec::new(),
        }
    }

    fn edge_span(name: &'static str, id: u64, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            trace_id: 0xabc,
            span_id: id,
            parent_id: Some(1),
            device: 1,
            name,
            start_ms: start,
            end_ms: end,
            args: Vec::new(),
        }
    }

    #[test]
    fn chrome_trace_is_one_valid_json_object() {
        let spans = vec![sample_span(1, None), sample_span(2, Some(1))];
        let events = vec![sample_event()];
        let doc = render_chrome_trace(&spans, &events);
        validate_json(&doc).unwrap();
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"ts\":3000.000"), "ms mapped to trace µs");
    }

    #[test]
    fn chrome_trace_links_frame_to_edge_spans_with_flow_events() {
        let spans = vec![
            frame_root(),
            edge_span("edge.queue", 2, 3.0, 4.0),
            edge_span("edge.infer", 3, 4.0, 7.0),
        ];
        let doc = render_chrome_trace(&spans, &[]);
        validate_json(&doc).unwrap();
        // Flow start on the mobile frame row, step on edge.queue, finish
        // (binding to the enclosing slice) on edge.infer.
        assert!(doc.contains("\"ph\":\"s\",\"id\":\"0000000000000abc\",\"ts\":0.000,\"pid\":1"));
        assert!(doc.contains(&format!(
            "\"ph\":\"t\",\"id\":\"0000000000000abc\",\"ts\":3000.000,\"pid\":{CHROME_EDGE_PID}"
        )));
        assert!(doc.contains(&format!(
            "\"ph\":\"f\",\"bp\":\"e\",\"id\":\"0000000000000abc\",\"ts\":4000.000,\"pid\":{CHROME_EDGE_PID}"
        )));
        // Edge spans render under the synthetic edge process, and both
        // processes carry name metadata.
        assert!(doc.contains(&format!("\"name\":\"edge.queue\",\"cat\":\"edgeis\",\"ph\":\"X\",\"ts\":3000.000,\"dur\":1000.000,\"pid\":{CHROME_EDGE_PID}")));
        assert!(doc.contains(
            "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"device-1\"}"
        ));
        assert!(doc.contains(&format!(
            "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{CHROME_EDGE_PID},\"args\":{{\"name\":\"edge\"}}"
        )));
    }

    #[test]
    fn chrome_trace_without_edge_spans_emits_no_flow() {
        let doc = render_chrome_trace(&[frame_root()], &[]);
        validate_json(&doc).unwrap();
        assert!(!doc.contains("\"ph\":\"s\""));
        assert!(!doc.contains("edgeis.flow"));
    }

    #[test]
    fn prometheus_validator_checks_names_labels_and_values() {
        let good = "# HELP a help\n# TYPE a counter\na 1\n\
                    # HELP ab_c help\n# TYPE ab_c gauge\nab_c{x=\"1\",y=\"b,c\"} 2.5\n\
                    # HELP h help\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 9.5\nh_count 4\n";
        assert_eq!(validate_prometheus(good).unwrap(), 5);
        assert!(validate_prometheus("bad name 1\n").is_err());
        assert!(validate_prometheus("# HELP a h\n# TYPE a counter\na notanumber\n").is_err());
        assert!(validate_prometheus("# HELP a h\n# TYPE a counter\na{x=\"1\" 2\n").is_err());
    }

    #[test]
    fn prometheus_validator_requires_help_type_and_cumulative_buckets() {
        // Sample without TYPE.
        assert!(validate_prometheus("a 1\n").is_err());
        // TYPE but no HELP.
        assert!(validate_prometheus("# TYPE a counter\na 1\n").is_err());
        // Histogram suffixes resolve back to the declared family.
        let hist = "# HELP h h\n# TYPE h histogram\n\
                    h_bucket{le=\"1.000000\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 4.0\nh_count 5\n";
        assert_eq!(validate_prometheus(hist).unwrap(), 4);
        // Bucket series must end in +Inf.
        assert!(
            validate_prometheus("# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1.0\"} 2\n")
                .is_err()
        );
        // Cumulative counts may never decrease.
        assert!(validate_prometheus(
            "# HELP h h\n# TYPE h histogram\n\
             h_bucket{le=\"1.0\"} 5\nh_bucket{le=\"+Inf\"} 3\n"
        )
        .is_err());
        // le edges must strictly increase.
        assert!(validate_prometheus(
            "# HELP h h\n# TYPE h histogram\n\
             h_bucket{le=\"2.0\"} 1\nh_bucket{le=\"1.0\"} 2\nh_bucket{le=\"+Inf\"} 3\n"
        )
        .is_err());
        // Distinct label sets are tracked as distinct bucket series.
        let two = "# HELP h h\n# TYPE h histogram\n\
                   h_bucket{device=\"0\",le=\"1.0\"} 1\nh_bucket{device=\"0\",le=\"+Inf\"} 2\n\
                   h_bucket{device=\"1\",le=\"+Inf\"} 7\n";
        assert_eq!(validate_prometheus(two).unwrap(), 3);
    }
}
