//! Metamorphic oracles: invariants from the paper that need no reference
//! run. Each failure reports the violating case rather than a bare
//! boolean.
//!
//! * mask-transfer equivariance under rigid scene motion (§III);
//! * CFRS quality monotonicity — higher tile quality never lowers the
//!   annotated IoU or confidence (§V);
//! * RoI-pruning soundness — every pruned RoI is dominated by a survivor
//!   in its area (§IV);
//! * NMS idempotence — a second pass over survivors removes nothing.

use edgeis_conformance::assert_identical;
use edgeis_geometry::{Camera, Vec2, SE3};
use edgeis_imaging::{extract_contours, iou, LabelMap, Mask};
use edgeis_segnet::{
    fast_nms, greedy_nms, prune_rois, BBox, EdgeModel, FrameObservation, ModelKind, Roi,
};
use edgeis_vo::transfer::{transfer_mask, DepthAnchor, TransferConfig};
use std::collections::BTreeMap;

fn shift_mask(mask: &Mask, dx: i64, dy: i64) -> Mask {
    let mut out = Mask::new(mask.width(), mask.height());
    for (x, y) in mask.iter_set() {
        let (nx, ny) = (x as i64 + dx, y as i64 + dy);
        if nx >= 0 && ny >= 0 && (nx as u32) < mask.width() && (ny as u32) < mask.height() {
            out.set(nx as u32, ny as u32, true);
        }
    }
    out
}

#[test]
fn mask_transfer_is_shift_equivariant() {
    // Rigid scene motion that is a pure image-plane shift: transferring a
    // shifted mask (with equally shifted depth anchors) must produce the
    // shifted transfer of the original mask, up to pixel-quantization
    // wobble on the contour.
    let camera = Camera::with_hfov(1.0, 160, 120);
    let config = TransferConfig::default();
    let depth = 2.0;

    let mut base = Mask::new(160, 120);
    base.fill_rect(50, 40, 36, 28);
    let anchors_for = |mask: &Mask| -> Vec<DepthAnchor> {
        let mut anchors = Vec::new();
        for (x, y) in mask.iter_set() {
            if x % 7 == 1 && y % 5 == 2 {
                anchors.push(DepthAnchor {
                    pixel: Vec2::new(x as f64, y as f64),
                    depth,
                });
            }
        }
        anchors
    };

    let out_base = transfer_mask(
        &camera,
        &extract_contours(&base),
        &anchors_for(&base),
        &SE3::identity(),
        &config,
    )
    .expect("base transfer must succeed");

    for (dx, dy) in [(6i64, 4i64), (-9, 3), (14, -8)] {
        let shifted = shift_mask(&base, dx, dy);
        let out_shifted = transfer_mask(
            &camera,
            &extract_contours(&shifted),
            &anchors_for(&shifted),
            &SE3::identity(),
            &config,
        )
        .unwrap_or_else(|| panic!("shifted transfer ({dx},{dy}) must succeed"));
        let expected = shift_mask(&out_base, dx, dy);
        let score = iou(&expected, &out_shifted);
        assert!(
            score >= 0.98,
            "transfer not shift-equivariant for ({dx},{dy}): IoU(shift(transfer(m)), transfer(shift(m))) = {score:.4}, areas {} vs {}",
            expected.area(),
            out_shifted.area()
        );
    }
}

fn single_instance_observation(quality: f64) -> FrameObservation {
    let mut labels = LabelMap::new(160, 120);
    for y in 35..85 {
        for x in 45..115 {
            labels.set(x, y, 1);
        }
    }
    let mut classes = BTreeMap::new();
    classes.insert(1u16, 3u8);
    let mut q = BTreeMap::new();
    q.insert(1u16, quality);
    FrameObservation {
        labels,
        classes,
        quality: q,
    }
}

#[test]
fn cfrs_quality_never_lowers_iou_or_confidence() {
    // §V: a tile encoded at higher quality can only help the edge model.
    // With the seeded (pure) inference path, walking the quality ladder
    // under the same seed must give monotone non-decreasing annotated IoU
    // and confidence for the observed instance.
    let model = EdgeModel::new(ModelKind::MaskRcnn, 160, 120, 99);
    let gt = single_instance_observation(1.0).labels.instance_mask(1);
    for seed in [1u64, 7, 42, 1234] {
        let mut prev: Option<(f64, f64, f64)> = None; // (quality, iou, confidence)
        for q in [0.25, 0.4, 0.55, 0.7, 0.85, 1.0] {
            let obs = single_instance_observation(q);
            let result = model.infer_seeded(&obs, None, seed);
            let det = match result.detections.iter().find(|d| d.instance == 1) {
                Some(det) => det,
                // Presence itself must be monotone: once the instance is
                // detected at some quality, it stays detected above it.
                None => {
                    assert!(
                        prev.is_none(),
                        "seed {seed}: instance detected at quality {:?} but lost at {q}",
                        prev.map(|p| p.0)
                    );
                    continue;
                }
            };
            let score = iou(&gt, &det.mask);
            if let Some((pq, piou, pconf)) = prev {
                assert!(
                    score >= piou - 1e-9,
                    "seed {seed}: IoU dropped from {piou:.4} (quality {pq}) to {score:.4} (quality {q})"
                );
                assert!(
                    det.confidence >= pconf - 1e-12,
                    "seed {seed}: confidence dropped from {pconf:.4} (quality {pq}) to {:.4} (quality {q})",
                    det.confidence
                );
            }
            prev = Some((q, score, det.confidence));
        }
        assert!(
            prev.is_some(),
            "seed {seed}: instance never detected even at quality 1.0"
        );
    }
}

fn synthetic_rois(seed: u64, n: usize, areas: usize) -> Vec<Roi> {
    // Small xorshift generator, same idiom as the segnet unit tests.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let x = next() * 120.0;
            let y = next() * 80.0;
            let w = 8.0 + next() * 40.0;
            let h = 8.0 + next() * 40.0;
            let score = next();
            let area = (next() * (areas as f64 + 0.5)) as usize;
            Roi {
                bbox: BBox::new(x, y, x + w, y + h),
                score,
                area_id: (area < areas).then_some(area),
            }
        })
        .collect()
}

#[test]
fn every_pruned_roi_is_dominated_by_a_survivor() {
    // §IV soundness: pruning may only discard a proposal when a surviving
    // proposal in the same guidance area beats it on *both* confidence and
    // overlap with the area's initial box. (Dominance is a strict partial
    // order, so an undominated dominator always survives.)
    let initial_boxes = [
        BBox::new(10.0, 10.0, 60.0, 60.0),
        BBox::new(50.0, 20.0, 110.0, 70.0),
        BBox::new(20.0, 50.0, 90.0, 100.0),
    ];
    for seed in [3u64, 77, 991] {
        let rois = synthetic_rois(seed, 220, initial_boxes.len());
        let (survivors, pruned) = prune_rois(rois.clone(), &initial_boxes);
        assert_eq!(
            survivors.len() + pruned,
            rois.len(),
            "seed {seed}: RoIs lost or duplicated"
        );
        for (i, r) in rois.iter().enumerate() {
            let survived = survivors.iter().any(|s| s == r);
            let area = match r.area_id {
                Some(a) if a < initial_boxes.len() => a,
                // Unknown-area RoIs must never be pruned.
                _ => {
                    assert!(survived, "seed {seed}: unknown-area RoI {i} was pruned");
                    continue;
                }
            };
            if survived {
                continue;
            }
            let q = r.bbox.iou(&initial_boxes[area]);
            let dominator = survivors.iter().find(|s| {
                s.area_id == Some(area) && s.score > r.score && s.bbox.iou(&initial_boxes[area]) > q
            });
            assert!(
                dominator.is_some(),
                "seed {seed}: RoI {i} (score {:.3}, overlap {q:.3}, area {area}) was pruned but no survivor dominates it",
                r.score
            );
        }
    }
}

#[test]
fn nms_is_idempotent() {
    // NMS output contains no pair above the suppression threshold, so
    // running it again must be the identity — for both implementations.
    for seed in [5u64, 123, 40_961] {
        let rois = synthetic_rois(seed, 180, 3);
        for threshold in [0.3, 0.5, 0.7] {
            let once = greedy_nms(rois.clone(), threshold);
            let twice = greedy_nms(once.clone(), threshold);
            assert_identical(
                &format!("greedy_nms seed {seed} threshold {threshold}"),
                "once",
                "twice",
                &once,
                &twice,
            );
            let once = fast_nms(rois.clone(), threshold);
            let twice = fast_nms(once.clone(), threshold);
            assert_identical(
                &format!("fast_nms seed {seed} threshold {threshold}"),
                "once",
                "twice",
                &once,
                &twice,
            );
        }
    }
}
