//! Differential comparison: find the *first* diverging frame and field
//! between two canonical traces (or two raw result slices), and report
//! both values — the structured replacement for a bare `assert_eq!` on
//! two huge values.

use crate::trace::Trace;
use edgeis_telemetry::export::json_quote;
use std::fmt;
use std::path::PathBuf;

/// The first point where two runs disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Label of the left run (e.g. `"serial_fifo"`).
    pub left: String,
    /// Label of the right run (e.g. `"batched"`).
    pub right: String,
    /// Device index (0 for single-device traces; 0 for slices).
    pub device: u64,
    /// Frame index (for slice comparisons: element index).
    pub frame: u64,
    /// The diverging field (for slice comparisons: `"item"` or `"len"`).
    pub field: String,
    /// Left value, rendered.
    pub lhs: String,
    /// Right value, rendered.
    pub rhs: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "first divergence at device {} frame {} field `{}`: {}={} vs {}={}",
            self.device, self.frame, self.field, self.left, self.lhs, self.right, self.rhs
        )
    }
}

impl Divergence {
    /// Structured JSON form (for the CI artifact).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"left\":{},\"right\":{},\"device\":{},\"frame\":{},\"field\":{},\"lhs\":{},\"rhs\":{}}}",
            json_quote(&self.left),
            json_quote(&self.right),
            self.device,
            self.frame,
            json_quote(&self.field),
            json_quote(&self.lhs),
            json_quote(&self.rhs),
        )
    }
}

/// Splits one canonical single-line JSON object into top-level
/// `(key, raw value)` pairs. Only handles the emitter's own output shape
/// (string keys without escapes) — it is a splitter, not a JSON parser.
pub fn split_top_level(obj: &str) -> Vec<(&str, &str)> {
    let inner = obj
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or(obj);
    let bytes = inner.as_bytes();
    let mut pairs = Vec::new();
    let (mut depth, mut in_str, mut esc) = (0i32, false, false);
    let mut start = 0usize;
    let mut colon = None;
    for (i, &b) in bytes.iter().enumerate() {
        if esc {
            esc = false;
            continue;
        }
        match b {
            b'\\' if in_str => esc = true,
            b'"' => in_str = !in_str,
            b'[' | b'{' if !in_str => depth += 1,
            b']' | b'}' if !in_str => depth -= 1,
            b':' if !in_str && depth == 0 && colon.is_none() => colon = Some(i),
            b',' if !in_str && depth == 0 => {
                if let Some(c) = colon {
                    pairs.push((
                        inner[start..c].trim().trim_matches('"'),
                        inner[c + 1..i].trim(),
                    ));
                }
                start = i + 1;
                colon = None;
            }
            _ => {}
        }
    }
    if let Some(c) = colon {
        pairs.push((
            inner[start..c].trim().trim_matches('"'),
            inner[c + 1..].trim(),
        ));
    }
    pairs
}

fn line_key<'a>(pairs: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// Compares two canonical trace texts; returns the first diverging
/// frame/field, or `None` when identical.
pub fn diff_canonical(left: &str, a: &str, right: &str, b: &str) -> Option<Divergence> {
    let la: Vec<&str> = a.lines().collect();
    let lb: Vec<&str> = b.lines().collect();
    let n = la.len().max(lb.len());
    for i in 0..n {
        match (la.get(i), lb.get(i)) {
            (Some(x), Some(y)) if x == y => continue,
            (Some(x), Some(y)) => {
                let pa = split_top_level(x);
                let pb = split_top_level(y);
                let device = line_key(&pa, "device")
                    .or(line_key(&pb, "device"))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                let frame = line_key(&pa, "frame")
                    .or(line_key(&pb, "frame"))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(i.saturating_sub(1) as u64);
                for (k, va) in &pa {
                    match line_key(&pb, k) {
                        Some(vb) if *va == vb => {}
                        Some(vb) => {
                            return Some(Divergence {
                                left: left.into(),
                                right: right.into(),
                                device,
                                frame,
                                field: (*k).into(),
                                lhs: (*va).into(),
                                rhs: vb.into(),
                            })
                        }
                        None => {
                            return Some(Divergence {
                                left: left.into(),
                                right: right.into(),
                                device,
                                frame,
                                field: (*k).into(),
                                lhs: (*va).into(),
                                rhs: "<missing>".into(),
                            })
                        }
                    }
                }
                // Right line has extra keys.
                for (k, vb) in &pb {
                    if line_key(&pa, k).is_none() {
                        return Some(Divergence {
                            left: left.into(),
                            right: right.into(),
                            device,
                            frame,
                            field: (*k).into(),
                            lhs: "<missing>".into(),
                            rhs: (*vb).into(),
                        });
                    }
                }
            }
            (x, y) => {
                return Some(Divergence {
                    left: left.into(),
                    right: right.into(),
                    device: 0,
                    frame: i as u64,
                    field: "frame_count".into(),
                    lhs: x.map_or(format!("<end at line {}>", la.len()), |v| v.to_string()),
                    rhs: y.map_or(format!("<end at line {}>", lb.len()), |v| v.to_string()),
                })
            }
        }
    }
    None
}

/// [`diff_canonical`] over two [`Trace`]s.
pub fn diff_traces(left: &str, a: &Trace, right: &str, b: &Trace) -> Option<Divergence> {
    diff_canonical(left, &a.canonical_json(), right, &b.canonical_json())
}

/// First index where two result slices differ (or a length mismatch):
/// `frame` carries the element index.
pub fn first_slice_divergence<T: PartialEq + fmt::Debug>(
    left: &str,
    right: &str,
    a: &[T],
    b: &[T],
) -> Option<Divergence> {
    if a.len() != b.len() {
        return Some(Divergence {
            left: left.into(),
            right: right.into(),
            device: 0,
            frame: 0,
            field: "len".into(),
            lhs: a.len().to_string(),
            rhs: b.len().to_string(),
        });
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            return Some(Divergence {
                left: left.into(),
                right: right.into(),
                device: 0,
                frame: i as u64,
                field: format!("item[{i}]"),
                lhs: format!("{x:?}"),
                rhs: format!("{y:?}"),
            });
        }
    }
    None
}

/// Asserts two result slices are identical, panicking with the first
/// diverging index and both values. `context` names the comparison
/// (e.g. `"fast_nms seed 5 threshold 0.3"`).
pub fn assert_identical<T: PartialEq + fmt::Debug>(
    context: &str,
    left: &str,
    right: &str,
    a: &[T],
    b: &[T],
) {
    if let Some(d) = first_slice_divergence(left, right, a, b) {
        panic!("conformance divergence in {context}: {d}");
    }
}

/// Writes a structured divergence report under `target/conformance/` (the
/// CI artifact on failure) and returns its path.
pub fn write_divergence_report(name: &str, context: &str, d: &Divergence) -> PathBuf {
    let dir = crate::golden::repo_root().join("target/conformance");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.divergence.json"));
    let body = format!(
        "{{\"scenario\":{},\"context\":{},\"divergence\":{}}}\n",
        json_quote(name),
        json_quote(context),
        d.to_json()
    );
    let _ = std::fs::write(&path, body);
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_nested_values_at_top_level_only() {
        let pairs = split_top_level(r#"{"a":1,"b":[1,2,[3]],"c":{"x":"y,z"},"d":"s:t","e":null}"#);
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["a", "b", "c", "d", "e"]);
        assert_eq!(pairs[1].1, "[1,2,[3]]");
        assert_eq!(pairs[2].1, r#"{"x":"y,z"}"#);
        assert_eq!(pairs[3].1, r#""s:t""#);
    }

    #[test]
    fn diff_names_first_divergent_frame_and_field() {
        let a = "{\"schema\":\"s\"}\n{\"device\":0,\"frame\":0,\"x\":1}\n{\"device\":0,\"frame\":1,\"x\":2}\n";
        let b = "{\"schema\":\"s\"}\n{\"device\":0,\"frame\":0,\"x\":1}\n{\"device\":0,\"frame\":1,\"x\":3}\n";
        let d = diff_canonical("l", a, "r", b).expect("must diverge");
        assert_eq!(d.frame, 1);
        assert_eq!(d.field, "x");
        assert_eq!(d.lhs, "2");
        assert_eq!(d.rhs, "3");
        assert!(diff_canonical("l", a, "r", a).is_none());
    }

    #[test]
    fn slice_divergence_reports_index_and_values() {
        let d = first_slice_divergence("s", "p", &[1, 2, 3], &[1, 9, 3]).unwrap();
        assert_eq!(d.frame, 1);
        assert_eq!(d.lhs, "2");
        assert_eq!(d.rhs, "9");
        let d = first_slice_divergence("s", "p", &[1], &[1, 2]).unwrap();
        assert_eq!(d.field, "len");
        assert!(first_slice_divergence("s", "p", &[1, 2], &[1, 2]).is_none());
    }
}
