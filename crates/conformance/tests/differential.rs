//! Differential oracles: the same scenario run under different serving
//! configurations must produce bit-identical traces, and the shipped ORB
//! detector must match its clamped reference oracle on every frame.
//! Every failure names the first diverging frame and field with both
//! values.

use edgeis::hash::fnv1a64;
use edgeis::serving::{ServingConfig, ServingRuntime};
use edgeis_conformance::scenario::detector_divergence;
use edgeis_conformance::{write_divergence_report, Divergence};

fn expect_identical(context: &str, d: Option<Divergence>) {
    if let Some(d) = d {
        let report = write_divergence_report(context, "differential", &d);
        panic!("{context}: {d}\nreport: {}", report.display());
    }
}

#[test]
fn fast_paths_trace_identical_to_reference_shape() {
    // The shipped detector — fast paths, and SIMD kernels where the CPU
    // has them — against the clamped reference oracle on every frame the
    // `single` recorders render (indoor_simple, seed 11, 45 frames): not
    // one keypoint or descriptor bit may move, so neither can any trace
    // field computed from them.
    expect_identical("fast_paths", detector_divergence(45, 11));
}

mod serving_fixtures {
    use edgeis_imaging::LabelMap;
    use edgeis_segnet::{BBox, EdgeModel, FrameObservation, Guidance, GuidanceBox, ModelKind};
    use std::collections::BTreeMap;

    pub fn model(seed: u64) -> EdgeModel {
        EdgeModel::new(ModelKind::MaskRcnn, 160, 120, seed)
    }

    pub fn observation() -> FrameObservation {
        let mut labels = LabelMap::new(160, 120);
        for y in 40..90 {
            for x in 50..110 {
                labels.set(x, y, 1);
            }
        }
        let mut classes = BTreeMap::new();
        classes.insert(1u16, 2u8);
        FrameObservation::pristine(labels, classes)
    }

    pub fn guidance() -> Guidance {
        Guidance {
            boxes: vec![GuidanceBox {
                bbox: BBox::new(50.0, 40.0, 110.0, 90.0),
                class_id: Some(2),
                instance: Some(1),
            }],
        }
    }
}

/// Runs a fixed submission schedule through one serving configuration and
/// returns the per-request payload digests.
fn serving_payload_digests(config: ServingConfig) -> Vec<u64> {
    use edgeis_netsim::{Link, LinkKind};
    use serving_fixtures::*;

    let mut runtime = ServingRuntime::new(model(7), 42, config);
    let obs = observation();
    let g = guidance();
    let mut link = Link::of_kind(LinkKind::Wifi5, 9);
    let schedule: &[(u64, f64)] = &[
        (0, 0.0),
        (1, 4.0),
        (2, 8.0),
        (0, 40.0),
        (3, 41.0),
        (1, 44.0),
        (2, 80.0),
        (0, 81.0),
    ];
    schedule
        .iter()
        .enumerate()
        .map(|(i, (device, at))| {
            let guide = (i % 2 == 0).then_some(&g);
            let resp = runtime
                .submit(*device, i as u64, &obs, guide, *at, &mut link)
                .expect("no admission deadline in this schedule");
            fnv1a64(&resp.payload)
        })
        .collect()
}

#[test]
fn serving_backends_payload_identical_to_serial_fifo() {
    // Identical submission schedule, identical base seed: the batched,
    // sharded and cache-enabled backends must produce bit-identical
    // response payloads to the serial FIFO — timing may differ, bytes
    // may not (PR 3's per-request seeding contract).
    let serial = serving_payload_digests(ServingConfig::serial_fifo());
    let candidates = [
        (
            "batched",
            ServingConfig {
                lanes: 1,
                max_batch: 8,
                batch_window_ms: 50.0,
                cache_enabled: false,
                cache_tolerance_px: 0.0,
                admission_deadline_ms: f64::INFINITY,
                residency_transfer_ms: 0.0,
                zoo: None,
            },
        ),
        (
            "sharded",
            ServingConfig {
                lanes: 4,
                max_batch: 1,
                batch_window_ms: 0.0,
                cache_enabled: false,
                cache_tolerance_px: 0.0,
                admission_deadline_ms: f64::INFINITY,
                residency_transfer_ms: 0.0,
                zoo: None,
            },
        ),
        (
            "batched+cache",
            ServingConfig {
                lanes: 2,
                max_batch: 4,
                batch_window_ms: 30.0,
                cache_enabled: true,
                cache_tolerance_px: 4.0,
                admission_deadline_ms: f64::INFINITY,
                residency_transfer_ms: 0.0,
                zoo: None,
            },
        ),
    ];
    for (label, config) in candidates {
        let digests = serving_payload_digests(config);
        expect_identical(
            "serving_backends",
            edgeis_conformance::first_slice_divergence("serial_fifo", label, &serial, &digests),
        );
    }
}

#[test]
fn zoo_with_one_tier_payload_identical_to_no_zoo() {
    // The model-zoo routing admission must be a strict generalization of
    // shed-at-admission: a one-tier zoo plans, serves, caches and sheds
    // bit-identically to the single-model runtime, across the serving
    // levers and including a finite deadline that actually sheds.
    use edgeis_segnet::{ModelKind, ZooConfig};
    let variants = [
        ("default", ServingConfig::default()),
        ("serial_fifo", ServingConfig::serial_fifo()),
        (
            "batched+cache",
            ServingConfig {
                lanes: 2,
                max_batch: 4,
                batch_window_ms: 30.0,
                cache_enabled: true,
                cache_tolerance_px: 4.0,
                admission_deadline_ms: f64::INFINITY,
                residency_transfer_ms: 0.0,
                zoo: None,
            },
        ),
        (
            "tight_deadline",
            ServingConfig {
                lanes: 1,
                max_batch: 1,
                batch_window_ms: 0.0,
                cache_enabled: false,
                cache_tolerance_px: 0.0,
                admission_deadline_ms: 40.0,
                residency_transfer_ms: 0.0,
                zoo: None,
            },
        ),
    ];
    for (label, bare) in variants {
        let one_tier = ServingConfig {
            zoo: Some(ZooConfig::single(ModelKind::MaskRcnn)),
            ..bare.clone()
        };
        let reference = serving_payload_digests(bare);
        let zoo = serving_payload_digests(one_tier);
        expect_identical(
            "zoo_one_tier",
            edgeis_conformance::first_slice_divergence(
                &format!("{label}/no_zoo"),
                &format!("{label}/one_tier"),
                &reference,
                &zoo,
            ),
        );
    }
}

/// FNV-folds a run's canonical trace bytes together with every record's
/// outcome label, so one `u64` pins both the golden-visible fields and
/// the forensics labels the canonical trace leaves out.
fn trace_and_outcome_fold(trace: &edgeis_conformance::Trace) -> u64 {
    use edgeis::hash::fnv1a64_extend;
    let mut fold = fnv1a64(trace.canonical_json().as_bytes());
    for frame in &trace.frames {
        fold = fnv1a64_extend(fold, frame.record.outcome.label().as_bytes());
        fold = fnv1a64_extend(fold, b"\n");
    }
    fold
}

#[test]
fn non_default_branches_and_outcome_labels_are_pinned() {
    // Every golden runs `EdgeIsConfig::full`, and the canonical trace
    // leaves out `FrameOutcome`. These folds pin what the goldens do not
    // see: the motion-vector tracker, the no-CFRS and no-CIIA branches,
    // and the per-frame outcome labels of a faulted run.
    use edgeis::experiment::{run_system, ExperimentConfig, SystemKind};
    use edgeis_conformance::{golden_scenarios, Trace};
    use edgeis_netsim::LinkKind;
    use edgeis_scene::datasets;

    let world = datasets::indoor_simple(2);
    let config = ExperimentConfig {
        frames: 60,
        ..Default::default()
    };
    let mut folds: Vec<(&str, u64)> = [
        SystemKind::BestEffort,
        SystemKind::EdgeIsMamtOnly,
        SystemKind::EdgeIsCiiaOnly,
        SystemKind::EdgeIsCfrsOnly,
    ]
    .into_iter()
    .map(|kind| {
        let report = run_system(kind, &world, LinkKind::Wifi5, &config);
        let trace = Trace::from_reports(kind.name(), &[report]);
        (kind.name(), trace_and_outcome_fold(&trace))
    })
    .collect();
    let faulted = golden_scenarios()
        .into_iter()
        .find(|s| s.name == "single_faulted")
        .expect("single_faulted is a golden scenario");
    folds.push(("single_faulted", trace_and_outcome_fold(&faulted.record())));

    // Re-recorded when the edge became one engine (the serial FIFO
    // edge draws per-request seeded noise) and the VO's unrefinable
    // objects fell back to T_co = T_cw; a refactor must leave every fold
    // unchanged.
    let expected: Vec<(&str, u64)> = vec![
        ("best-effort", 0xda409e19d8b80cdc),
        ("baseline+MAMT", 0x48c19016f355b335),
        ("baseline+CIIA", 0x7926f1026e55fa07),
        ("baseline+CFRS", 0x9e18f0bf2a8a1414),
        ("single_faulted", 0xcb4d8be261beba08),
    ];
    assert_eq!(folds, expected);
}
