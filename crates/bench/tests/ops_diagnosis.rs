//! End-to-end checks of the `edgeis_ops` diagnosis engine.
//!
//! The headline acceptance: on `urban_rush` — the paper's hardest regime,
//! where the map dies and rebuilds repeatedly — the attribution model
//! must charge the majority of the IoU shortfall to the death/rebirth
//! cycle (`tracking_lost` + `reinit`), machine-checked here rather than
//! eyeballed from the human summary.

use edgeis_bench::json::{self, JsonValue};
use edgeis_bench::ops;

/// Horizon for the urban_rush diagnosis: long enough that the track-loss
/// → map-reset → re-init cycle repeats on the recording (the pinned
/// 72-frame smoke cuts just after the first loss begins).
const URBAN_RUSH_FRAMES: usize = 240;

#[test]
fn urban_rush_shortfall_is_majority_map_death_and_rebirth() {
    let d = ops::diagnose_matrix("urban_rush", Some(URBAN_RUSH_FRAMES)).expect("known scenario");

    assert!(
        d.total_shortfall > 0.0,
        "urban_rush should show an accuracy gap to attribute"
    );
    let cycle_share: f64 = d
        .attribution
        .iter()
        .filter(|a| a.label == "tracking_lost" || a.label == "reinit")
        .map(|a| a.share)
        .sum();
    assert!(
        cycle_share > 0.5,
        "map death/rebirth must carry the majority of the shortfall, got {:.0}% \
         (attribution: {:?})",
        cycle_share * 100.0,
        d.attribution
            .iter()
            .map(|a| (a.label.as_str(), a.share))
            .collect::<Vec<_>>()
    );
    // Both halves of the cycle must actually appear: losses and the
    // post-recovery rebuild window.
    for label in ["tracking_lost", "reinit"] {
        let row = d
            .attribution
            .iter()
            .find(|a| a.label == label)
            .unwrap_or_else(|| panic!("no {label} frames recorded"));
        assert!(row.frames > 0);
        assert!(
            row.mean_iou < d.reference_iou,
            "{label} frames should score below the healthy reference"
        );
    }

    // The artifact itself must parse and carry the same verdict.
    let doc = ops::diagnosis_json(&d);
    let v = json::parse(&doc).expect("diagnosis.json parses");
    assert_eq!(
        v.get("scenario").and_then(JsonValue::as_str),
        Some("urban_rush")
    );
    let by = v
        .get("attribution")
        .and_then(|a| a.get("by_outcome"))
        .and_then(JsonValue::as_arr)
        .expect("by_outcome array");
    let json_cycle_share: f64 = by
        .iter()
        .filter(|r| {
            matches!(
                r.get("outcome").and_then(JsonValue::as_str),
                Some("tracking_lost") | Some("reinit")
            )
        })
        .filter_map(|r| r.get("share").and_then(JsonValue::as_f64))
        .sum();
    assert!(json_cycle_share > 0.5);
}

#[test]
fn diagnosis_round_trips_through_frames_jsonl() {
    let d = ops::diagnose_matrix("urban_rush", Some(URBAN_RUSH_FRAMES)).expect("known scenario");

    // Re-record to get the raw samples the diagnosis was computed from.
    let m = edgeis_conformance::matrix_scenarios()
        .into_iter()
        .find(|m| m.name == "urban_rush")
        .expect("matrix has urban_rush");
    let trace = m.record_seeded(m.seed, URBAN_RUSH_FRAMES);
    let samples = ops::samples_from_trace(&trace);

    let doc = ops::frames_jsonl("urban_rush", &m.slo, &samples);
    let (name, slo, back) = ops::parse_frames_jsonl(&doc).expect("round-trip");
    assert_eq!(name, "urban_rush");
    assert_eq!(back.len(), samples.len());
    // Floats travel at fixed precision; identity and labels are exact.
    for (a, b) in samples.iter().zip(&back) {
        assert_eq!(
            (a.device, a.frame, &a.outcome),
            (b.device, b.frame, &b.outcome)
        );
        assert_eq!(a.ious.len(), b.ious.len());
    }

    let d2 = ops::diagnose(&name, &slo, &back, Vec::new(), Vec::new());
    assert!((d2.mean_iou - d.mean_iou).abs() < 1e-4);
    assert!((d2.total_shortfall - d.total_shortfall).abs() < 1e-2);
    assert_eq!(d2.attribution.len(), d.attribution.len());
}
