//! The perf regression gate: compares freshly measured pipeline metrics
//! against the checked-in baseline in `results/perf_baseline.json` and
//! renders a machine-readable verdict.
//!
//! A metric regresses when it moves past the baseline by more than the
//! noise margin *in the bad direction* (slower for time metrics, lower
//! for throughput) **and** by more than the metric's absolute noise
//! floor — sub-floor stages (a 0.02 ms p50) are timer-noise-dominated
//! and must not be able to fail CI on their own. Improvements beyond the
//! margin are reported, never fatal: the expected follow-up is re-blessing
//! the baseline so the win is locked in.

use crate::json::{self, JsonValue};
use crate::perf::ProfileRun;

/// One gated measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name, e.g. `optimized_serial.stage.detect.p50_ms`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// `true` for throughput-like metrics (fps), `false` for time/bytes.
    pub higher_is_better: bool,
    /// Absolute change below which the metric can never regress,
    /// regardless of ratio (timer-noise floor).
    pub min_delta: f64,
}

impl Metric {
    /// A lower-is-better time metric with the standard 0.15 ms floor —
    /// sized so a single-rep smoke run's jitter on a sub-millisecond
    /// stage (one descheduling tick) cannot trip the gate, while any
    /// real regression of a stage that matters clears it easily.
    pub fn time_ms(name: impl Into<String>, value: f64) -> Self {
        Self {
            name: name.into(),
            value,
            higher_is_better: false,
            min_delta: 0.15,
        }
    }

    /// A higher-is-better throughput metric.
    pub fn fps(name: impl Into<String>, value: f64) -> Self {
        Self {
            name: name.into(),
            value,
            higher_is_better: true,
            min_delta: 0.5,
        }
    }

    /// A lower-is-better byte-count metric (exact, no noise floor).
    pub fn bytes(name: impl Into<String>, value: f64) -> Self {
        Self {
            name: name.into(),
            value,
            higher_is_better: false,
            min_delta: 0.0,
        }
    }
}

/// Extracts the gated metric set from a profile run: per-stage p50s, the
/// end-to-end frame p50, wall-clock fps and peak scratch bytes.
pub fn run_metrics(run: &ProfileRun) -> Vec<Metric> {
    let mut out = Vec::new();
    let label = run.label;
    out.push(Metric::time_ms(
        format!("{label}.frame_ms_p50"),
        run.frame_ms_p50(),
    ));
    for s in run.report.stage_summaries() {
        out.push(Metric::time_ms(
            format!("{label}.stage.{}.p50_ms", s.stage),
            s.p50_ms,
        ));
    }
    out.push(Metric::fps(format!("{label}.wall_fps"), run.wall_fps()));
    out.push(Metric::bytes(
        format!("{label}.scratch_peak_bytes"),
        run.scratch_peak_bytes as f64,
    ));
    out
}

/// Extracts the gated metric set from the fleet-serving smoke run:
/// wall-clock throughput plus the virtual-clock response percentiles.
/// The virtual percentiles are deterministic per seed — any drift there
/// is a behavior change, but the conformance goldens own that question,
/// so they gate with the ordinary time floor rather than exactly.
pub fn fleet_metrics(run: &crate::perf::FleetSmokeRun) -> Vec<Metric> {
    vec![
        Metric::fps("fleet_smoke.wall_fps", run.wall_fps()),
        Metric::time_ms("fleet_smoke.response_p50_ms", run.response_p50_ms),
        Metric::time_ms("fleet_smoke.response_p99_ms", run.response_p99_ms),
    ]
}

/// Per-metric gate outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within the noise margin of the baseline.
    Pass,
    /// Worse than baseline by more than margin and floor: fails the gate.
    Regressed,
    /// Better than baseline by more than the margin (informational).
    Improved,
    /// In the baseline but not measured now, or vice versa.
    Missing,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Self::Pass => "pass",
            Self::Regressed => "regressed",
            Self::Improved => "improved",
            Self::Missing => "missing",
        }
    }
}

/// One row of the verdict.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Baseline value (`None` when newly measured).
    pub baseline: Option<f64>,
    /// Current value (`None` when the metric disappeared).
    pub current: Option<f64>,
    /// current / baseline (when both exist and baseline > 0).
    pub ratio: Option<f64>,
    /// Gate outcome for this metric.
    pub status: Status,
}

/// The whole gate verdict.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Noise margin the comparison ran with (ratio, e.g. 0.15).
    pub noise_margin: f64,
    /// Per-metric rows, baseline order first, then new metrics.
    pub rows: Vec<Row>,
}

impl GateReport {
    /// Whether the gate passes (no regressed rows; missing baseline rows
    /// fail too — a silently vanished metric must not pass CI).
    pub fn pass(&self) -> bool {
        !self
            .rows
            .iter()
            .any(|r| matches!(r.status, Status::Regressed) || r.current.is_none())
    }

    /// Rows that failed the gate.
    pub fn regressions(&self) -> Vec<&Row> {
        self.rows
            .iter()
            .filter(|r| matches!(r.status, Status::Regressed) || r.current.is_none())
            .collect()
    }

    /// Renders the machine-readable verdict document.
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.bool("pass", self.pass());
            o.num("noise_margin", self.noise_margin, 3);
            o.int("regressions", self.regressions().len() as i64);
            o.array("metrics", |a| {
                for r in &self.rows {
                    a.inline_object(|m| {
                        m.str("name", &r.name);
                        match r.baseline {
                            Some(v) => m.num("baseline", v, 4),
                            None => m.raw("baseline", "null"),
                        }
                        match r.current {
                            Some(v) => m.num("current", v, 4),
                            None => m.raw("current", "null"),
                        }
                        match r.ratio {
                            Some(v) => m.num("ratio", v, 4),
                            None => m.raw("ratio", "null"),
                        }
                        m.str("status", r.status.as_str());
                    });
                }
            });
        })
    }
}

/// Compares `current` against `baseline` with a ratio `noise_margin`.
pub fn compare(baseline: &[Metric], current: &[Metric], noise_margin: f64) -> GateReport {
    let mut rows = Vec::new();
    for b in baseline {
        let cur = current.iter().find(|c| c.name == b.name);
        let row = match cur {
            None => Row {
                name: b.name.clone(),
                baseline: Some(b.value),
                current: None,
                ratio: None,
                status: Status::Missing,
            },
            Some(c) => {
                let ratio = if b.value > 0.0 {
                    Some(c.value / b.value)
                } else {
                    None
                };
                let delta = c.value - b.value;
                // "Worse" is signed by direction; the ratio breach alone
                // is not enough below the absolute floor.
                let worse_by_ratio = match ratio {
                    Some(r) if b.higher_is_better => r < 1.0 - noise_margin,
                    Some(r) => r > 1.0 + noise_margin,
                    // Zero baseline: any positive time/bytes value is a
                    // pure-delta call, never a ratio one.
                    None => false,
                };
                let better_by_ratio = match ratio {
                    Some(r) if b.higher_is_better => r > 1.0 + noise_margin,
                    Some(r) => r < 1.0 - noise_margin,
                    None => false,
                };
                let over_floor = delta.abs() > b.min_delta;
                let status = if worse_by_ratio && over_floor {
                    Status::Regressed
                } else if better_by_ratio && over_floor {
                    Status::Improved
                } else {
                    Status::Pass
                };
                Row {
                    name: b.name.clone(),
                    baseline: Some(b.value),
                    current: Some(c.value),
                    ratio,
                    status,
                }
            }
        };
        rows.push(row);
    }
    for c in current {
        if !baseline.iter().any(|b| b.name == c.name) {
            rows.push(Row {
                name: c.name.clone(),
                baseline: None,
                current: Some(c.value),
                ratio: None,
                status: Status::Missing,
            });
        }
    }
    GateReport { noise_margin, rows }
}

/// One per-host baseline entry: fingerprint, thread count on that host,
/// and the metric set blessed there.
#[derive(Debug, Clone, PartialEq)]
pub struct HostBaseline {
    /// Stable host fingerprint (see [`host_fingerprint`]).
    pub fingerprint: String,
    /// `edgeis_parallel::num_threads()` on the blessing host.
    pub host_threads: usize,
    /// Metrics blessed on that host.
    pub metrics: Vec<Metric>,
}

/// Fingerprint of the machine the gate is running on: hostname plus the
/// SIMD capability set the dispatcher honors. Two hosts that agree on
/// both are close enough to share a perf baseline; anything else (a
/// laptop vs the reference box, a scalar-only CI runner) gets its own
/// `hosts` entry instead of skewing the reference numbers.
pub fn host_fingerprint() -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown-host".into());
    let caps = edgeis_imaging::simd::caps();
    let mut flags = Vec::new();
    if caps.x86_baseline {
        flags.push("x86");
    }
    if caps.sse3 {
        flags.push("sse3");
    }
    if caps.avx2 {
        flags.push("avx2");
    }
    let flags = if flags.is_empty() {
        "scalar".to_string()
    } else {
        flags.join("+")
    };
    format!("{host}/{flags}")
}

fn push_metric_rows(a: &mut json::JsonArray, metrics: &[Metric]) {
    for m in metrics {
        a.inline_object(|row| {
            row.str("name", &m.name);
            row.num("value", m.value, 4);
            row.str(
                "direction",
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
            );
            row.num("min_delta", m.min_delta, 4);
        });
    }
}

/// Renders the full baseline document: the top-level (reference-machine)
/// metric set plus zero or more per-host entries keyed by fingerprint.
/// The workload block is reconstructed from the perf module's constants,
/// so round-tripping through [`baseline_from_json`]/[`hosts_from_json`]
/// and re-rendering preserves everything that matters.
pub fn baseline_document(
    metrics: &[Metric],
    noise_margin: f64,
    frames: usize,
    host_threads: usize,
    hosts: &[HostBaseline],
) -> String {
    json::document(|o| {
        o.inline_object("workload", |w| {
            w.str("scenario", "indoor_simple");
            w.int("seed", crate::perf::SEED as i64);
            w.int("frames", frames as i64);
            w.num("fps", crate::perf::FPS, 1);
            w.int("width", crate::perf::WIDTH as i64);
            w.int("height", crate::perf::HEIGHT as i64);
        });
        o.int("host_threads", host_threads as i64);
        o.num("noise_margin", noise_margin, 3);
        o.array("metrics", |a| push_metric_rows(a, metrics));
        if !hosts.is_empty() {
            o.object("hosts", |h| {
                for entry in hosts {
                    h.object(&entry.fingerprint, |e| {
                        e.int("host_threads", entry.host_threads as i64);
                        e.array("metrics", |a| push_metric_rows(a, &entry.metrics));
                    });
                }
            });
        }
    })
}

/// Renders the baseline document for `--bless` (no per-host entries).
pub fn baseline_to_json(
    metrics: &[Metric],
    noise_margin: f64,
    frames: usize,
    host_threads: usize,
) -> String {
    baseline_document(metrics, noise_margin, frames, host_threads, &[])
}

/// Parses a baseline document produced by [`baseline_to_json`].
///
/// # Errors
///
/// Returns a message describing the first malformed field.
pub fn baseline_from_json(text: &str) -> Result<(Vec<Metric>, f64), String> {
    let doc = json::parse(text)?;
    let margin = doc
        .get("noise_margin")
        .and_then(JsonValue::as_f64)
        .ok_or("baseline missing `noise_margin`")?;
    let rows = doc
        .get("metrics")
        .and_then(JsonValue::as_arr)
        .ok_or("baseline missing `metrics`")?;
    Ok((metrics_from_rows(rows)?, margin))
}

fn metrics_from_rows(rows: &[JsonValue]) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let name = row
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("metric {i} missing `name`"))?;
        let value = row
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("metric {i} missing `value`"))?;
        let direction = row
            .get("direction")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("metric {i} missing `direction`"))?;
        let min_delta = row
            .get("min_delta")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        metrics.push(Metric {
            name: name.to_string(),
            value,
            higher_is_better: direction == "higher",
            min_delta,
        });
    }
    Ok(metrics)
}

/// Parses the per-host entries of a baseline document (empty when the
/// document has no `hosts` block — every pre-existing baseline).
///
/// # Errors
///
/// Returns a message describing the first malformed host entry.
pub fn hosts_from_json(text: &str) -> Result<Vec<HostBaseline>, String> {
    let doc = json::parse(text)?;
    let Some(hosts) = doc.get("hosts") else {
        return Ok(Vec::new());
    };
    let JsonValue::Obj(entries) = hosts else {
        return Err("`hosts` is not an object".into());
    };
    let mut out = Vec::with_capacity(entries.len());
    for (fingerprint, entry) in entries {
        let rows = entry
            .get("metrics")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("host `{fingerprint}` missing `metrics`"))?;
        let host_threads = entry
            .get("host_threads")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0) as usize;
        out.push(HostBaseline {
            fingerprint: fingerprint.clone(),
            host_threads,
            metrics: metrics_from_rows(rows).map_err(|e| format!("host `{fingerprint}`: {e}"))?,
        });
    }
    Ok(out)
}

/// The frames count recorded in a baseline's workload block (falls back
/// to the perf module's current constant when absent).
pub fn frames_from_json(text: &str) -> usize {
    json::parse(text)
        .ok()
        .and_then(|doc| {
            doc.get("workload")
                .and_then(|w| w.get("frames"))
                .and_then(JsonValue::as_f64)
        })
        .map_or(crate::perf::FRAMES, |v| v as usize)
}

/// The top-level `host_threads` recorded in a baseline (0 when absent).
pub fn host_threads_from_json(text: &str) -> usize {
    json::parse(text)
        .ok()
        .and_then(|doc| doc.get("host_threads").and_then(JsonValue::as_f64))
        .unwrap_or(0.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> Vec<Metric> {
        vec![
            Metric::time_ms("optimized_serial.frame_ms_p50", 7.0),
            Metric::time_ms("optimized_serial.stage.detect.p50_ms", 3.2),
            Metric::time_ms("optimized_serial.stage.encode.p50_ms", 0.02),
            Metric::fps("optimized_parallel.wall_fps", 120.0),
            Metric::bytes("optimized_serial.scratch_peak_bytes", 500_000.0),
        ]
    }

    fn scaled(metrics: &[Metric], factor: f64) -> Vec<Metric> {
        metrics
            .iter()
            .map(|m| Metric {
                value: if m.higher_is_better {
                    m.value / factor
                } else {
                    m.value * factor
                },
                ..m.clone()
            })
            .collect()
    }

    #[test]
    fn identical_measurement_passes() {
        let b = baseline();
        let report = compare(&b, &b, 0.15);
        assert!(report.pass(), "{:?}", report.regressions());
        assert!(report.rows.iter().all(|r| r.status == Status::Pass));
    }

    #[test]
    fn injected_20pct_slowdown_is_caught() {
        // The acceptance scenario: a uniform 20% slowdown must fail a
        // 15%-margin gate on every substantive metric.
        let b = baseline();
        let report = compare(&b, &scaled(&b, 1.2), 0.15);
        assert!(!report.pass());
        let names: Vec<&str> = report
            .regressions()
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert!(names.contains(&"optimized_serial.frame_ms_p50"));
        assert!(names.contains(&"optimized_serial.stage.detect.p50_ms"));
        assert!(names.contains(&"optimized_parallel.wall_fps"));
        assert!(names.contains(&"optimized_serial.scratch_peak_bytes"));
        // The 0.02 ms stage moved by 0.004 ms — under the noise floor, so
        // it alone can never fail CI.
        assert!(!names.contains(&"optimized_serial.stage.encode.p50_ms"));
    }

    #[test]
    fn noise_within_margin_passes() {
        let b = baseline();
        assert!(compare(&b, &scaled(&b, 1.10), 0.15).pass());
        assert!(compare(&b, &scaled(&b, 0.92), 0.15).pass());
    }

    #[test]
    fn improvement_is_reported_not_fatal() {
        let b = baseline();
        let report = compare(&b, &scaled(&b, 0.7), 0.15);
        assert!(report.pass());
        assert!(report
            .rows
            .iter()
            .any(|r| r.status == Status::Improved && r.name.ends_with("frame_ms_p50")));
    }

    #[test]
    fn vanished_metric_fails_the_gate() {
        let b = baseline();
        let mut cur = b.clone();
        cur.retain(|m| m.name != "optimized_serial.frame_ms_p50");
        let report = compare(&b, &cur, 0.15);
        assert!(!report.pass(), "a silently dropped metric must not pass");
    }

    #[test]
    fn new_metric_is_informational() {
        let b = baseline();
        let mut cur = b.clone();
        cur.push(Metric::time_ms("optimized_serial.stage.new.p50_ms", 1.0));
        let report = compare(&b, &cur, 0.15);
        assert!(report.pass(), "a new metric alone must not fail the gate");
        assert!(report
            .rows
            .iter()
            .any(|r| r.baseline.is_none() && r.status == Status::Missing));
    }

    #[test]
    fn baseline_json_roundtrips() {
        let b = baseline();
        let text = baseline_to_json(&b, 0.15, 120, 4);
        let (parsed, margin) = baseline_from_json(&text).expect("parse");
        assert_eq!(margin, 0.15);
        assert_eq!(parsed.len(), b.len());
        for (p, orig) in parsed.iter().zip(&b) {
            assert_eq!(p.name, orig.name);
            assert_eq!(p.higher_is_better, orig.higher_is_better);
            assert!((p.value - orig.value).abs() < 1e-3);
            assert!((p.min_delta - orig.min_delta).abs() < 1e-9);
        }
    }

    #[test]
    fn host_entries_roundtrip_and_leave_the_reference_intact() {
        let reference = baseline();
        let laptop = HostBaseline {
            fingerprint: "laptop/x86+sse3".into(),
            host_threads: 8,
            metrics: scaled(&reference, 1.6),
        };
        let ci = HostBaseline {
            fingerprint: "ci-runner/scalar".into(),
            host_threads: 2,
            metrics: scaled(&reference, 2.4),
        };
        let doc = baseline_document(&reference, 0.15, 120, 16, &[laptop.clone(), ci.clone()]);
        // Top-level parse is unchanged by the hosts block.
        let (top, margin) = baseline_from_json(&doc).expect("top-level parses");
        assert_eq!(margin, 0.15);
        assert_eq!(top.len(), reference.len());
        for (p, orig) in top.iter().zip(&reference) {
            assert_eq!(p.name, orig.name);
            assert!((p.value - orig.value).abs() < 1e-3);
        }
        // Host entries round-trip with fingerprint, threads and values.
        let hosts = hosts_from_json(&doc).expect("hosts parse");
        assert_eq!(hosts.len(), 2);
        let parsed = hosts
            .iter()
            .find(|h| h.fingerprint == laptop.fingerprint)
            .expect("laptop entry survives");
        assert_eq!(parsed.host_threads, 8);
        for (p, orig) in parsed.metrics.iter().zip(&laptop.metrics) {
            assert_eq!(p.name, orig.name);
            assert_eq!(p.higher_is_better, orig.higher_is_better);
            assert!((p.value - orig.value).abs() < 1e-3);
        }
        // A host-scoped comparison gates against that host's numbers: the
        // laptop's own (slower) measurement passes against its entry but
        // would fail against the reference.
        assert!(compare(&parsed.metrics, &laptop.metrics, 0.15).pass());
        assert!(!compare(&reference, &laptop.metrics, 0.15).pass());
    }

    #[test]
    fn documents_without_hosts_parse_to_no_host_entries() {
        let doc = baseline_to_json(&baseline(), 0.15, 120, 4);
        assert!(hosts_from_json(&doc).expect("parses").is_empty());
        assert_eq!(frames_from_json(&doc), 120);
        assert_eq!(host_threads_from_json(&doc), 4);
    }

    #[test]
    fn host_fingerprint_is_stable_and_names_the_simd_tier() {
        let fp = host_fingerprint();
        assert_eq!(fp, host_fingerprint(), "fingerprint must be deterministic");
        let (host, flags) = fp.split_once('/').expect("host/flags shape");
        assert!(!host.is_empty());
        assert!(!flags.is_empty());
    }

    #[test]
    fn verdict_json_parses_and_carries_rows() {
        let b = baseline();
        let report = compare(&b, &scaled(&b, 1.2), 0.15);
        let doc = report.to_json();
        let v = crate::json::parse(&doc).expect("verdict parses");
        assert_eq!(v.get("pass").and_then(JsonValue::as_bool), Some(false));
        let metrics = v.get("metrics").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(metrics.len(), report.rows.len());
        assert!(metrics.iter().any(|m| {
            m.get("status").and_then(JsonValue::as_str) == Some("regressed")
                && m.get("ratio").and_then(JsonValue::as_f64).is_some()
        }));
    }
}
