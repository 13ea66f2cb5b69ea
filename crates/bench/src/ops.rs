//! Offline diagnosis engine behind the `edgeis_ops` bin.
//!
//! Takes one run's observability artifacts — per-frame outcome-labelled
//! records, the JSONL span/event stream and the Prometheus snapshot —
//! and produces a machine-readable `diagnosis.json` answering the
//! on-call question directly: *which SLO is violated, and which causal
//! outcome labels carry the shortfall?*
//!
//! Attribution model: the run's *reference* accuracy is the mean IoU of
//! `healthy`-labelled frames — what a frame scores when nothing is
//! wrong, by the run's own evidence. Each [`FrameOutcome`] label is then
//! charged `max(0, reference − label_mean) × label_samples` of
//! *shortfall*.
//! Because the overall mean is the sample-weighted mean of label means,
//! the label shortfalls decompose the run's total accuracy gap exactly
//! (healthy contributes zero by construction, and a label that scores
//! *above* reference is clamped to zero rather than crediting the
//! others). Shares over the label set then say, e.g., "the map
//! death/rebirth cycle (`tracking_lost` + `reinit`) carries 100% of the
//! lost accuracy" — rather than leaving a flat mean for a human to
//! decompose by hand.
//!
//! Two ingestion paths feed the same [`diagnose`] core:
//!
//! * [`samples_from_trace`] — straight from an in-process conformance
//!   recording (`edgeis_ops --run <scenario>`);
//! * [`parse_frames_jsonl`] + [`parse_burn_events`] +
//!   [`parse_burn_gauges`] — from exported artifact files
//!   (`edgeis_ops --ingest <dir>`).

use crate::json::{self, JsonValue};
use edgeis::metrics::{percentile, FrameOutcome};
use edgeis::slo::{ScenarioSlo, IOU_HOST_TOLERANCE};
use edgeis_conformance::Trace;

/// The minimal per-frame view the diagnosis needs: identity, causal
/// outcome label and the scored/latency signals. Deliberately flat so it
/// round-trips through `frames.jsonl` without carrying the full trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSample {
    /// Device index.
    pub device: u64,
    /// Frame index.
    pub frame: u64,
    /// Virtual timestamp, ms.
    pub time_ms: f64,
    /// Snake-case [`FrameOutcome`] label (`"healthy"`, `"tracking_lost"`, ...).
    pub outcome: String,
    /// Scored per-instance IoUs (empty during warmup).
    pub ious: Vec<f64>,
    /// Request→response latency when a response was applied this frame.
    pub response_latency_ms: Option<f64>,
}

/// One `slo.burn` alert pulled from the span/event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnAlert {
    /// Device (or originating mobile, for edge-scoped alerts).
    pub device: u64,
    /// Virtual timestamp, ms.
    pub ts_ms: f64,
}

/// One `edgeis_slo_burn_rate` sample from the Prometheus snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnGauge {
    /// Label set as rendered (e.g. `device="0"` or `edge="1"`).
    pub labels: String,
    /// Final gauge value (fast-window burn multiple).
    pub value: f64,
}

/// Shortfall charged to one outcome label.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Snake-case outcome label.
    pub label: String,
    /// Frames carrying the label.
    pub frames: u64,
    /// Scored IoU samples on those frames.
    pub iou_samples: u64,
    /// Mean IoU over those samples (0 when none).
    pub mean_iou: f64,
    /// `max(0, reference − mean_iou) × iou_samples` — the label's exact
    /// contribution to the run's accuracy gap, in IoU-points.
    pub shortfall: f64,
    /// `shortfall` as a fraction of the run total (0 when the total is 0).
    pub share: f64,
}

/// Everything `diagnosis.json` says about one run.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Scenario (or artifact) name.
    pub scenario: String,
    /// Devices seen in the samples.
    pub devices: u64,
    /// Total frames diagnosed.
    pub frames: u64,
    /// Budgets the run was held to.
    pub slo: ScenarioSlo,
    /// Mean IoU over all scored samples.
    pub mean_iou: f64,
    /// Number of scored IoU samples.
    pub iou_samples: u64,
    /// p99 of applied response latencies (0 when none).
    pub p99_latency_ms: f64,
    /// IoU floor met (with host tolerance)?
    pub iou_ok: bool,
    /// Latency ceiling met?
    pub latency_ok: bool,
    /// `"iou"`, `"latency"`, or `"none"` — the worst relative miss.
    pub top_violation: String,
    /// Mean IoU of `healthy`-labelled samples — the attribution baseline.
    pub reference_iou: f64,
    /// Σ shortfall over the label set — the run's total accuracy gap
    /// versus the healthy reference, in IoU-points.
    pub total_shortfall: f64,
    /// Per-label shortfall, in canonical severity order, empty labels
    /// omitted.
    pub attribution: Vec<Attribution>,
    /// (device, mean IoU, shortfall) rows, worst shortfall first.
    pub worst_devices: Vec<(u64, f64, f64)>,
    /// `slo.burn` alerts from the event stream (empty when no spans
    /// artifact was ingested).
    pub burn_alerts: Vec<BurnAlert>,
    /// Final `edgeis_slo_burn_rate` gauges (empty without a Prometheus
    /// snapshot).
    pub burn_gauges: Vec<BurnGauge>,
}

/// Flattens a conformance [`Trace`] into diagnosis samples.
pub fn samples_from_trace(trace: &Trace) -> Vec<FrameSample> {
    trace
        .frames
        .iter()
        .map(|f| FrameSample {
            device: f.device,
            frame: f.frame,
            time_ms: f.record.time_ms,
            outcome: f.record.outcome.label().to_string(),
            ious: f.record.ious.iter().map(|&(_, v)| v).collect(),
            response_latency_ms: f.record.response_latency_ms,
        })
        .collect()
}

/// Flattens one report per device into diagnosis samples (the fleet
/// profile's export path).
pub fn samples_from_reports(reports: &[edgeis::metrics::Report]) -> Vec<FrameSample> {
    reports
        .iter()
        .enumerate()
        .flat_map(|(device, report)| {
            report.records.iter().map(move |r| FrameSample {
                device: device as u64,
                frame: r.frame,
                time_ms: r.time_ms,
                outcome: r.outcome.label().to_string(),
                ious: r.ious.iter().map(|&(_, v)| v).collect(),
                response_latency_ms: r.response_latency_ms,
            })
        })
        .collect()
}

/// Serializes samples as `frames.jsonl`: a header line naming the run
/// and its budgets, then one compact object per frame. The reader is
/// [`parse_frames_jsonl`].
pub fn frames_jsonl(scenario: &str, slo: &ScenarioSlo, samples: &[FrameSample]) -> String {
    let mut out = String::with_capacity(64 + samples.len() * 96);
    out.push_str(&format!(
        "{{\"type\":\"header\",\"scenario\":{},\"min_iou\":{},\"max_p99_ms\":{}}}\n",
        json::quote(scenario),
        json::fmt_f64(slo.min_iou, 4),
        json::fmt_f64(slo.max_p99_ms, 3),
    ));
    for s in samples {
        out.push_str(&format!(
            "{{\"type\":\"frame\",\"device\":{},\"frame\":{},\"time_ms\":{},\"outcome\":{},\"ious\":[",
            s.device,
            s.frame,
            json::fmt_f64(s.time_ms, 3),
            json::quote(&s.outcome),
        ));
        for (i, iou) in s.ious.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::fmt_f64(*iou, 6));
        }
        out.push_str("],\"response_latency_ms\":");
        match s.response_latency_ms {
            Some(v) => out.push_str(&json::fmt_f64(v, 3)),
            None => out.push_str("null"),
        }
        out.push_str("}\n");
    }
    out
}

/// Parses a `frames.jsonl` document back into `(scenario, slo, samples)`.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_frames_jsonl(text: &str) -> Result<(String, ScenarioSlo, Vec<FrameSample>), String> {
    let mut scenario = String::new();
    let mut slo = ScenarioSlo {
        min_iou: 0.0,
        max_p99_ms: f64::MAX,
    };
    let mut saw_header = false;
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("frames.jsonl line {}: {e}", i + 1))?;
        match v.get("type").and_then(JsonValue::as_str) {
            Some("header") => {
                saw_header = true;
                scenario = v
                    .get("scenario")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                if let Some(x) = v.get("min_iou").and_then(JsonValue::as_f64) {
                    slo.min_iou = x;
                }
                if let Some(x) = v.get("max_p99_ms").and_then(JsonValue::as_f64) {
                    slo.max_p99_ms = x;
                }
            }
            Some("frame") => {
                let num = |key: &str| v.get(key).and_then(JsonValue::as_f64);
                samples.push(FrameSample {
                    device: num("device").unwrap_or(0.0) as u64,
                    frame: num("frame").unwrap_or(0.0) as u64,
                    time_ms: num("time_ms").unwrap_or(0.0),
                    outcome: v
                        .get("outcome")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("healthy")
                        .to_string(),
                    ious: v
                        .get("ious")
                        .and_then(JsonValue::as_arr)
                        .map(|a| a.iter().filter_map(JsonValue::as_f64).collect())
                        .unwrap_or_default(),
                    response_latency_ms: num("response_latency_ms"),
                });
            }
            other => {
                return Err(format!(
                    "frames.jsonl line {}: unknown record type {other:?}",
                    i + 1
                ))
            }
        }
    }
    if !saw_header {
        return Err("frames.jsonl has no header line".to_string());
    }
    Ok((scenario, slo, samples))
}

/// Pulls every `slo.burn` alert out of a `spans.jsonl` document.
/// Malformed lines are an error; non-event and non-burn lines are
/// skipped.
pub fn parse_burn_events(text: &str) -> Result<Vec<BurnAlert>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("spans.jsonl line {}: {e}", i + 1))?;
        if v.get("type").and_then(JsonValue::as_str) == Some("event")
            && v.get("name").and_then(JsonValue::as_str) == Some("slo.burn")
        {
            out.push(BurnAlert {
                device: v.get("device").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64,
                ts_ms: v.get("ts_ms").and_then(JsonValue::as_f64).unwrap_or(0.0),
            });
        }
    }
    Ok(out)
}

/// Pulls every `edgeis_slo_burn_rate` sample out of a Prometheus text
/// snapshot (comment and other-metric lines are skipped).
pub fn parse_burn_gauges(text: &str) -> Vec<BurnGauge> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("edgeis_slo_burn_rate") {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let labels = series
            .find('{')
            .map(|i| series[i + 1..series.len() - 1].to_string())
            .unwrap_or_default();
        out.push(BurnGauge { labels, value });
    }
    out
}

/// Runs the attribution model over one run's samples.
///
/// `burn_alerts` / `burn_gauges` are passed through into the diagnosis
/// (empty slices when those artifacts were not ingested).
pub fn diagnose(
    scenario: &str,
    slo: &ScenarioSlo,
    samples: &[FrameSample],
    burn_alerts: Vec<BurnAlert>,
    burn_gauges: Vec<BurnGauge>,
) -> Diagnosis {
    let all_ious: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.ious.iter().copied())
        .collect();
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let mean_iou = mean(&all_ious);
    let latencies: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.response_latency_ms)
        .collect();
    let p99 = if latencies.is_empty() {
        0.0
    } else {
        percentile(&latencies, 0.99)
    };
    let iou_ok = mean_iou >= slo.min_iou - IOU_HOST_TOLERANCE;
    let latency_ok = p99 <= slo.max_p99_ms;

    // Worst relative miss wins the headline.
    let iou_miss = if iou_ok {
        0.0
    } else {
        (slo.min_iou - mean_iou) / slo.min_iou.max(1e-9)
    };
    let lat_miss = if latency_ok {
        0.0
    } else {
        (p99 - slo.max_p99_ms) / slo.max_p99_ms.max(1e-9)
    };
    let top_violation = if iou_miss <= 0.0 && lat_miss <= 0.0 {
        "none"
    } else if iou_miss >= lat_miss {
        "iou"
    } else {
        "latency"
    }
    .to_string();

    // Reference accuracy: what a frame scores when nothing is wrong. The
    // healthy-label mean is the run's own evidence for that; a run with
    // no healthy frame at all falls back to the SLO floor.
    let healthy: Vec<f64> = samples
        .iter()
        .filter(|s| s.outcome == "healthy")
        .flat_map(|s| s.ious.iter().copied())
        .collect();
    let reference_iou = if healthy.is_empty() {
        slo.min_iou
    } else {
        mean(&healthy)
    };

    // Net decomposition: the overall mean is the sample-weighted mean of
    // label means, so these per-label terms sum to the run's exact
    // accuracy gap (clamped at zero for labels scoring above reference).
    let net_shortfall =
        |ious: &[f64]| -> f64 { (reference_iou - mean(ious)).max(0.0) * ious.len() as f64 };

    let mut attribution = Vec::new();
    for label in FrameOutcome::LABELS {
        let rows: Vec<&FrameSample> = samples.iter().filter(|s| s.outcome == label).collect();
        if rows.is_empty() {
            continue;
        }
        let ious: Vec<f64> = rows.iter().flat_map(|s| s.ious.iter().copied()).collect();
        attribution.push(Attribution {
            label: label.to_string(),
            frames: rows.len() as u64,
            iou_samples: ious.len() as u64,
            mean_iou: mean(&ious),
            shortfall: net_shortfall(&ious),
            share: 0.0,
        });
    }
    let total_shortfall: f64 = attribution.iter().map(|a| a.shortfall).sum();
    if total_shortfall > 0.0 {
        for a in &mut attribution {
            a.share = a.shortfall / total_shortfall;
        }
    }

    let mut device_ids: Vec<u64> = samples.iter().map(|s| s.device).collect();
    device_ids.sort_unstable();
    device_ids.dedup();
    let mut worst_devices: Vec<(u64, f64, f64)> = device_ids
        .iter()
        .map(|&d| {
            let ious: Vec<f64> = samples
                .iter()
                .filter(|s| s.device == d)
                .flat_map(|s| s.ious.iter().copied())
                .collect();
            (d, mean(&ious), net_shortfall(&ious))
        })
        .collect();
    worst_devices.sort_by(|a, b| b.2.total_cmp(&a.2));

    Diagnosis {
        scenario: scenario.to_string(),
        devices: device_ids.len() as u64,
        frames: samples.len() as u64,
        slo: *slo,
        mean_iou,
        iou_samples: all_ious.len() as u64,
        p99_latency_ms: p99,
        iou_ok,
        latency_ok,
        top_violation,
        reference_iou,
        total_shortfall,
        attribution,
        worst_devices,
        burn_alerts,
        burn_gauges,
    }
}

/// Records a conformance matrix scenario and diagnoses it in-process.
/// `frames` overrides the pinned smoke length — the urban_rush demo uses
/// a longer horizon so the map death/rebirth cycle repeats on the
/// recording instead of starting just before the cut.
///
/// # Errors
///
/// Returns an error naming the known scenarios when `name` is not in
/// the matrix.
pub fn diagnose_matrix(name: &str, frames: Option<usize>) -> Result<Diagnosis, String> {
    let scenarios = edgeis_conformance::matrix_scenarios();
    let Some(m) = scenarios.iter().find(|m| m.name == name) else {
        let known: Vec<&str> = scenarios.iter().map(|m| m.name).collect();
        return Err(format!("unknown scenario {name:?}; known: {known:?}"));
    };
    let trace = m.record_seeded(m.seed, frames.unwrap_or(m.frames));
    let samples = samples_from_trace(&trace);
    Ok(diagnose(name, &m.slo, &samples, Vec::new(), Vec::new()))
}

/// Renders the diagnosis as pretty-printed JSON (the `diagnosis.json`
/// artifact).
pub fn diagnosis_json(d: &Diagnosis) -> String {
    json::document(|o| {
        o.str("scenario", &d.scenario);
        o.int("devices", d.devices as i64);
        o.int("frames", d.frames as i64);
        o.inline_object("slo", |s| {
            s.num("min_iou", d.slo.min_iou, 4);
            s.num("max_p99_ms", d.slo.max_p99_ms, 3);
        });
        o.inline_object("measured", |s| {
            s.num("mean_iou", d.mean_iou, 4);
            s.int("iou_samples", d.iou_samples as i64);
            s.num("p99_latency_ms", d.p99_latency_ms, 3);
        });
        o.inline_object("verdict", |s| {
            s.bool("iou_ok", d.iou_ok);
            s.bool("latency_ok", d.latency_ok);
            s.str("top_violation", &d.top_violation);
        });
        o.object("attribution", |a| {
            a.num("reference_iou", d.reference_iou, 4);
            a.num("total_shortfall", d.total_shortfall, 4);
            a.array("by_outcome", |arr| {
                for row in &d.attribution {
                    arr.inline_object(|r| {
                        r.str("outcome", &row.label);
                        r.int("frames", row.frames as i64);
                        r.int("iou_samples", row.iou_samples as i64);
                        r.num("mean_iou", row.mean_iou, 4);
                        r.num("shortfall", row.shortfall, 4);
                        r.num("share", row.share, 4);
                    });
                }
            });
        });
        o.array("worst_devices", |arr| {
            for &(dev, mean_iou, shortfall) in &d.worst_devices {
                arr.inline_object(|r| {
                    r.int("device", dev as i64);
                    r.num("mean_iou", mean_iou, 4);
                    r.num("shortfall", shortfall, 4);
                });
            }
        });
        o.object("burn", |b| {
            b.int("alerts", d.burn_alerts.len() as i64);
            b.array("alert_timeline", |arr| {
                for a in &d.burn_alerts {
                    arr.inline_object(|r| {
                        r.int("device", a.device as i64);
                        r.num("ts_ms", a.ts_ms, 3);
                    });
                }
            });
            b.array("gauges", |arr| {
                for g in &d.burn_gauges {
                    arr.inline_object(|r| {
                        r.str("labels", &g.labels);
                        r.num("value", g.value, 4);
                    });
                }
            });
        });
    })
}

/// Renders the human-facing summary printed next to `diagnosis.json`.
pub fn human_summary(d: &Diagnosis) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "diagnosis: {} — {} frames on {} device(s)\n",
        d.scenario, d.frames, d.devices
    ));
    out.push_str(&format!(
        "  accuracy: mean IoU {:.3} vs floor {:.3} ({}); latency p99 {:.1} ms vs {:.1} ms ({})\n",
        d.mean_iou,
        d.slo.min_iou,
        if d.iou_ok { "OK" } else { "VIOLATED" },
        d.p99_latency_ms,
        d.slo.max_p99_ms,
        if d.latency_ok { "OK" } else { "VIOLATED" },
    ));
    out.push_str(&format!("  top violation: {}\n", d.top_violation));
    out.push_str(&format!(
        "  shortfall vs healthy reference ({:.3}): {:.2} IoU-points total\n",
        d.reference_iou, d.total_shortfall
    ));
    for row in &d.attribution {
        out.push_str(&format!(
            "    {:>15}  {:>4} frames  mean IoU {:.3}  shortfall {:.2} ({:.0}%)\n",
            row.label,
            row.frames,
            row.mean_iou,
            row.shortfall,
            row.share * 100.0
        ));
    }
    if !d.burn_alerts.is_empty() {
        out.push_str(&format!(
            "  slo.burn alerts: {} (first at {:.0} ms)\n",
            d.burn_alerts.len(),
            d.burn_alerts[0].ts_ms
        ));
    }
    if !d.burn_gauges.is_empty() {
        let worst = d
            .burn_gauges
            .iter()
            .max_by(|a, b| a.value.total_cmp(&b.value))
            .expect("non-empty");
        out.push_str(&format!(
            "  final burn gauges: {} series, worst {{{}}} = {:.2}\n",
            d.burn_gauges.len(),
            worst.labels,
            worst.value
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(outcome: &str, ious: &[f64]) -> FrameSample {
        FrameSample {
            device: 0,
            frame: 0,
            time_ms: 0.0,
            outcome: outcome.to_string(),
            ious: ious.to_vec(),
            response_latency_ms: None,
        }
    }

    #[test]
    fn shortfall_is_charged_to_the_labelled_cause() {
        let slo = ScenarioSlo {
            min_iou: 0.5,
            max_p99_ms: 100.0,
        };
        let samples = vec![
            sample("healthy", &[0.8, 0.8]),
            sample("tracking_lost", &[0.0]),
            sample("reinit", &[0.4]),
        ];
        let d = diagnose("t", &slo, &samples, Vec::new(), Vec::new());
        assert!((d.reference_iou - 0.8).abs() < 1e-12);
        assert!((d.total_shortfall - (0.8 + 0.4)).abs() < 1e-12);
        let lost = d
            .attribution
            .iter()
            .find(|a| a.label == "tracking_lost")
            .unwrap();
        assert!((lost.share - 0.8 / 1.2).abs() < 1e-12);
        // Canonical order: tracking_lost before reinit before healthy.
        let labels: Vec<&str> = d.attribution.iter().map(|a| a.label.as_str()).collect();
        assert_eq!(labels, vec!["tracking_lost", "reinit", "healthy"]);
    }

    #[test]
    fn top_violation_picks_the_worse_relative_miss() {
        let slo = ScenarioSlo {
            min_iou: 0.5,
            max_p99_ms: 100.0,
        };
        let mut s = sample("healthy", &[0.9]);
        s.response_latency_ms = Some(300.0);
        let d = diagnose("t", &slo, &[s], Vec::new(), Vec::new());
        assert_eq!(d.top_violation, "latency");
        let d = diagnose(
            "t",
            &slo,
            &[sample("tracking_lost", &[0.0])],
            Vec::new(),
            Vec::new(),
        );
        assert_eq!(d.top_violation, "iou");
        let d = diagnose(
            "t",
            &slo,
            &[sample("healthy", &[0.9])],
            Vec::new(),
            Vec::new(),
        );
        assert_eq!(d.top_violation, "none");
    }

    #[test]
    fn frames_jsonl_round_trips() {
        let slo = ScenarioSlo {
            min_iou: 0.25,
            max_p99_ms: 400.0,
        };
        let mut a = sample("healthy", &[0.75]);
        a.response_latency_ms = Some(42.5);
        let b = sample("shed", &[]);
        let doc = frames_jsonl("smoke", &slo, &[a.clone(), b.clone()]);
        let (name, slo2, back) = parse_frames_jsonl(&doc).expect("round-trip");
        assert_eq!(name, "smoke");
        assert!((slo2.min_iou - 0.25).abs() < 1e-9);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].outcome, "healthy");
        assert_eq!(back[0].response_latency_ms, Some(42.5));
        assert_eq!(back[1].outcome, "shed");
        assert!(back[1].ious.is_empty());
    }

    #[test]
    fn burn_artifacts_parse_from_export_formats() {
        let spans = concat!(
            "{\"type\":\"span\",\"trace_id\":\"00ab\",\"span_id\":1,\"parent_id\":null,\"device\":0,\"name\":\"frame\",\"start_ms\":0.0,\"end_ms\":1.0,\"args\":{}}\n",
            "{\"type\":\"event\",\"trace_id\":\"00ab\",\"parent_id\":null,\"device\":1,\"name\":\"slo.burn\",\"ts_ms\":850.5,\"args\":{\"fast_burn\":4.0}}\n",
            "{\"type\":\"event\",\"trace_id\":\"00ab\",\"parent_id\":null,\"device\":1,\"name\":\"health.transition\",\"ts_ms\":900.0,\"args\":{}}\n",
        );
        let alerts = parse_burn_events(spans).expect("parse");
        assert_eq!(
            alerts,
            vec![BurnAlert {
                device: 1,
                ts_ms: 850.5
            }]
        );

        let prom = "# HELP edgeis_slo_burn_rate h\n# TYPE edgeis_slo_burn_rate gauge\n\
                    edgeis_slo_burn_rate{device=\"0\"} 3.25\n\
                    edgeis_slo_burn_rate{edge=\"1\"} 0\n\
                    edgeis_frames_total 10\n";
        let gauges = parse_burn_gauges(prom);
        assert_eq!(gauges.len(), 2);
        assert_eq!(gauges[0].labels, "device=\"0\"");
        assert!((gauges[0].value - 3.25).abs() < 1e-12);
        assert_eq!(gauges[1].labels, "edge=\"1\"");
    }

    #[test]
    fn diagnosis_json_parses_and_carries_attribution() {
        let slo = ScenarioSlo {
            min_iou: 0.5,
            max_p99_ms: 100.0,
        };
        let d = diagnose(
            "t",
            &slo,
            &[sample("healthy", &[0.8]), sample("tracking_lost", &[0.1])],
            vec![BurnAlert {
                device: 0,
                ts_ms: 500.0,
            }],
            vec![BurnGauge {
                labels: "device=\"0\"".to_string(),
                value: 2.5,
            }],
        );
        let doc = diagnosis_json(&d);
        let v = json::parse(&doc).expect("diagnosis.json must parse");
        assert_eq!(v.get("scenario").and_then(JsonValue::as_str), Some("t"));
        let by = v
            .get("attribution")
            .and_then(|a| a.get("by_outcome"))
            .and_then(JsonValue::as_arr)
            .expect("by_outcome");
        assert_eq!(by.len(), 2);
        assert_eq!(
            by[0].get("outcome").and_then(JsonValue::as_str),
            Some("tracking_lost")
        );
        assert_eq!(
            v.get("burn")
                .and_then(|b| b.get("alerts"))
                .and_then(JsonValue::as_f64),
            Some(1.0)
        );
        let summary = human_summary(&d);
        assert!(summary.contains("tracking_lost"));
        assert!(summary.contains("slo.burn alerts: 1"));
    }
}
