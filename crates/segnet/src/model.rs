//! The edge model: full inference pipeline with optional CIIA guidance.

use crate::anchors::{AnchorGrid, FpnConfig, Guidance};
use crate::cost::{CostModel, InferenceStats};
use crate::detect::{box_to_mask, degrade_mask, Detection};
use crate::profile::{ModelKind, ModelProfile};
use crate::proposal::{generate_proposals, ProposalConfig};
use crate::roi::{fast_nms, greedy_nms, prune_rois, BBox, Roi};
use edgeis_imaging::LabelMap;
use edgeis_rng::StdRng;
use std::collections::BTreeMap;

/// What the edge "sees" for one offloaded frame.
///
/// The simulator observes the scene through its ground-truth labels plus a
/// per-instance encoding quality in `[0, 1]` (1 = pristine). Quality comes
/// from the tile codec: heavily compressed regions degrade detection, which
/// is exactly the trade-off CFRS (§V) navigates.
#[derive(Debug, Clone)]
pub struct FrameObservation {
    /// Ground-truth instance labels of the frame content.
    pub labels: LabelMap,
    /// Class id per instance.
    pub classes: BTreeMap<u16, u8>,
    /// Encoding quality per instance (missing = 1.0).
    pub quality: BTreeMap<u16, f64>,
}

impl FrameObservation {
    /// A pristine observation (no compression loss).
    pub fn pristine(labels: LabelMap, classes: BTreeMap<u16, u8>) -> Self {
        Self {
            labels,
            classes,
            quality: BTreeMap::new(),
        }
    }

    fn quality_of(&self, instance: u16) -> f64 {
        self.quality.get(&instance).copied().unwrap_or(1.0)
    }
}

/// Result of one edge inference.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// Final detections (at most one per visible instance).
    pub detections: Vec<Detection>,
    /// Work and latency accounting.
    pub stats: InferenceStats,
}

/// The edge-side model instance.
#[derive(Debug)]
pub struct EdgeModel {
    profile: ModelProfile,
    cost: CostModel,
    grid: AnchorGrid,
    proposal_config: ProposalConfig,
    nms_iou: f64,
    min_instance_area: usize,
    roi_pruning: bool,
    rng: StdRng,
    width: u32,
    height: u32,
}

impl EdgeModel {
    /// Creates a model of the given kind for a frame size.
    pub fn new(kind: ModelKind, width: u32, height: u32, seed: u64) -> Self {
        let profile = ModelProfile::of(kind);
        Self {
            cost: CostModel::new(profile.clone()),
            profile,
            grid: AnchorGrid::new(FpnConfig::default(), width, height),
            proposal_config: ProposalConfig::default(),
            nms_iou: 0.7,
            min_instance_area: 40,
            roi_pruning: true,
            rng: StdRng::seed_from_u64(seed),
            width,
            height,
        }
    }

    /// Enables or disables the §IV-B RoI pruning step (used by the Fig. 14
    /// component breakdown: dynamic anchor placement alone vs. both).
    pub fn set_roi_pruning(&mut self, enabled: bool) {
        self.roi_pruning = enabled;
    }

    /// The model profile in use.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Frame width this model was built for, px.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height this model was built for, px.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Builds a model of another kind for the same frame size.
    ///
    /// Seeded inference ([`Self::infer_seeded`]) is a pure function of
    /// `(obs, guidance, seed)`, so siblings produce bit-identical outputs
    /// regardless of the construction seed; only the evolving-RNG
    /// [`Self::infer`] path depends on it.
    pub fn sibling(&self, kind: ModelKind, seed: u64) -> Self {
        Self::new(kind, self.width, self.height, seed)
    }

    /// Runs inference on an observed frame.
    ///
    /// `guidance` enables CIIA: dynamic anchor placement restricts RPN
    /// evaluation and RoI pruning discards dominated proposals; without it
    /// the model runs its vanilla full-frame pipeline.
    pub fn infer(
        &mut self,
        obs: &FrameObservation,
        guidance: Option<&Guidance>,
    ) -> InferenceResult {
        let mut rng = std::mem::replace(&mut self.rng, StdRng::seed_from_u64(0));
        let result = self.infer_with_rng(obs, guidance, &mut rng);
        self.rng = rng;
        result
    }

    /// Runs inference with all randomness drawn from `seed` instead of the
    /// model's evolving RNG stream.
    ///
    /// This makes the output a pure function of `(obs, guidance, seed)` —
    /// the property the batched serving runtime relies on so a request's
    /// detections are bit-identical whether it is served alone, inside any
    /// batch, or on any GPU lane.
    pub fn infer_seeded(
        &self,
        obs: &FrameObservation,
        guidance: Option<&Guidance>,
        seed: u64,
    ) -> InferenceResult {
        let mut rng = StdRng::seed_from_u64(seed);
        self.infer_with_rng(obs, guidance, &mut rng)
    }

    fn infer_with_rng(
        &self,
        obs: &FrameObservation,
        guidance: Option<&Guidance>,
        rng: &mut StdRng,
    ) -> InferenceResult {
        // Ground-truth instance boxes (visible content of the frame).
        let mut instances: Vec<(u16, BBox, edgeis_imaging::Mask)> = Vec::new();
        for (id, mask) in obs.labels.instance_masks() {
            if mask.area() < self.min_instance_area {
                continue;
            }
            if let Some((x0, y0, x1, y1)) = mask.bounding_box() {
                instances.push((
                    id,
                    BBox::new(x0 as f64, y0 as f64, x1 as f64, y1 as f64),
                    mask,
                ));
            }
        }
        let gt_boxes: Vec<BBox> = instances.iter().map(|(_, b, _)| *b).collect();

        let mut stats = InferenceStats::default();
        let rois: Vec<Roi> = if self.profile.rpn_ms_per_kanchor > 0.0 {
            // Two-stage path (Mask R-CNN).
            let anchors = match guidance {
                Some(g) if !g.is_empty() => self.grid.guided(g, 24.0),
                _ => self.grid.full_frame(),
            };
            stats.anchors_evaluated = anchors.len();
            let proposals = generate_proposals(&anchors, &gt_boxes, &self.proposal_config, rng);
            stats.proposals = proposals.len();
            stats.rois_before_prune = proposals.len();

            let selected = match guidance {
                Some(g) if !g.is_empty() => {
                    // RoI pruning for known areas, Fast NMS for the rest.
                    let initial: Vec<BBox> = g.boxes.iter().map(|b| b.bbox).collect();
                    let (kept, pruned) = if self.roi_pruning {
                        prune_rois(proposals, &initial)
                    } else {
                        (proposals, 0)
                    };
                    stats.rois_pruned = pruned;
                    let (known, unknown): (Vec<Roi>, Vec<Roi>) =
                        kept.into_iter().partition(|r| r.area_id.is_some());
                    let mut out = fast_nms(unknown, self.nms_iou);
                    // Known areas still need duplicate removal after the
                    // dominance prune (non-dominated fronts can hold several
                    // boxes); a cheap per-area NMS finishes the job.
                    out.extend(greedy_nms(known, self.nms_iou));
                    out
                }
                _ => greedy_nms(proposals, self.nms_iou),
            };
            selected
        } else {
            // One-stage path: the model implicitly proposes one RoI per
            // visible instance.
            instances
                .iter()
                .map(|(_, b, _)| Roi {
                    bbox: *b,
                    score: 0.8,
                    area_id: None,
                })
                .collect()
        };
        stats.rois_processed = rois.len();

        let (backbone, rpn, head) = self.cost.evaluate(
            self.width,
            self.height,
            stats.anchors_evaluated,
            stats.rois_processed,
        );
        stats.backbone_ms = backbone;
        stats.rpn_ms = rpn;
        stats.head_ms = head;

        // Second stage: associate surviving RoIs with instances, keep the
        // best per instance, and generate (degraded) masks.
        let mut best: BTreeMap<u16, (f64, BBox)> = BTreeMap::new();
        for roi in &rois {
            let mut best_iou = 0.0;
            let mut best_inst = None;
            for (id, gtb, _) in &instances {
                let v = roi.bbox.iou(gtb);
                if v > best_iou {
                    best_iou = v;
                    best_inst = Some(*id);
                }
            }
            let Some(inst) = best_inst else { continue };
            if best_iou < 0.3 {
                continue;
            }
            let conf = (0.45 + 0.55 * best_iou).min(1.0);
            let entry = best.entry(inst).or_insert((conf, roi.bbox));
            if conf > entry.0 {
                *entry = (conf, roi.bbox);
            }
        }

        let mut detections = Vec::new();
        for (inst, (conf, bbox)) in best {
            let q = obs.quality_of(inst);
            // Quality-dependent misses.
            let miss_p = (self.profile.miss_rate + (1.0 - q) * 0.35).clamp(0.0, 0.95);
            if rng.random_bool(miss_p) {
                continue;
            }
            let (_, _, gt_mask) = instances
                .iter()
                .find(|(id, _, _)| *id == inst)
                .expect("instance exists");
            let effective_iou = self.profile.base_iou * (0.55 + 0.45 * q);
            let mask = if self.profile.produces_masks {
                degrade_mask(gt_mask, effective_iou, rng)
            } else {
                box_to_mask(self.width, self.height, &bbox)
            };
            let class = obs.classes.get(&inst).copied().unwrap_or(6);
            // Rare misclassification, more likely at low quality.
            let class_id = if rng.random_bool(((1.0 - q) * 0.15).clamp(0.0, 0.5)) {
                (class + 1) % 7
            } else {
                class
            };
            detections.push(Detection {
                instance: inst,
                class_id,
                confidence: conf * (0.7 + 0.3 * q),
                bbox,
                mask,
            });
        }

        InferenceResult { detections, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchors::GuidanceBox;
    use edgeis_imaging::iou;

    fn observation(w: u32, h: u32, boxes: &[(u16, u32, u32, u32, u32)]) -> FrameObservation {
        let mut labels = LabelMap::new(w, h);
        let mut classes = BTreeMap::new();
        for &(id, x, y, bw, bh) in boxes {
            for yy in y..(y + bh).min(h) {
                for xx in x..(x + bw).min(w) {
                    labels.set(xx, yy, id);
                }
            }
            classes.insert(id, (id % 7) as u8);
        }
        FrameObservation::pristine(labels, classes)
    }

    #[test]
    fn detects_visible_instances() {
        let obs = observation(320, 240, &[(1, 60, 60, 70, 70), (2, 200, 100, 60, 80)]);
        let mut model = EdgeModel::new(ModelKind::MaskRcnn, 320, 240, 42);
        let result = model.infer(&obs, None);
        let ids: Vec<u16> = result.detections.iter().map(|d| d.instance).collect();
        assert!(
            ids.contains(&1) && ids.contains(&2),
            "missing detections: {ids:?}"
        );
        for d in &result.detections {
            let gt = obs.labels.instance_mask(d.instance);
            let v = iou(&gt, &d.mask);
            assert!(v > 0.75, "instance {} mask IoU {v:.3}", d.instance);
            assert!(d.confidence > 0.5);
        }
    }

    #[test]
    fn guidance_reduces_work_not_quality() {
        let obs = observation(320, 240, &[(1, 100, 80, 80, 80)]);
        let guidance = Guidance {
            boxes: vec![GuidanceBox {
                bbox: BBox::new(95.0, 75.0, 185.0, 165.0),
                class_id: Some(1),
                instance: Some(1),
            }],
        };
        let mut m1 = EdgeModel::new(ModelKind::MaskRcnn, 320, 240, 1);
        let full = m1.infer(&obs, None);
        let mut m2 = EdgeModel::new(ModelKind::MaskRcnn, 320, 240, 1);
        let guided = m2.infer(&obs, Some(&guidance));

        assert!(
            guided.stats.anchors_evaluated * 3 < full.stats.anchors_evaluated,
            "anchors {} vs {}",
            guided.stats.anchors_evaluated,
            full.stats.anchors_evaluated
        );
        assert!(guided.stats.rpn_ms < full.stats.rpn_ms);
        assert!(guided.stats.total_ms() < full.stats.total_ms());
        // Quality preserved.
        let gt = obs.labels.instance_mask(1);
        let dg = guided.detections.iter().find(|d| d.instance == 1).unwrap();
        assert!(iou(&gt, &dg.mask) > 0.75);
    }

    #[test]
    fn roi_pruning_reduces_processed_rois() {
        let obs = observation(320, 240, &[(1, 100, 80, 80, 80)]);
        let guidance = Guidance {
            boxes: vec![GuidanceBox {
                bbox: BBox::new(95.0, 75.0, 185.0, 165.0),
                class_id: Some(1),
                instance: Some(1),
            }],
        };
        let mut model = EdgeModel::new(ModelKind::MaskRcnn, 320, 240, 5);
        let r = model.infer(&obs, Some(&guidance));
        assert!(r.stats.rois_pruned > 0, "nothing pruned");
        assert!(r.stats.rois_processed < r.stats.rois_before_prune);
    }

    #[test]
    fn low_quality_degrades_and_misses() {
        let mut miss_hi = 0;
        let mut miss_lo = 0;
        let mut iou_hi = 0.0;
        let mut iou_lo = 0.0;
        let mut n_hi = 0;
        let mut n_lo = 0;
        for seed in 0..25 {
            let mut obs = observation(320, 240, &[(1, 100, 80, 80, 80)]);
            let mut model = EdgeModel::new(ModelKind::MaskRcnn, 320, 240, seed);
            let hi = model.infer(&obs, None);
            obs.quality.insert(1, 0.25);
            let mut model = EdgeModel::new(ModelKind::MaskRcnn, 320, 240, seed + 1000);
            let lo = model.infer(&obs, None);
            let gt = obs.labels.instance_mask(1);
            match hi.detections.iter().find(|d| d.instance == 1) {
                Some(d) => {
                    iou_hi += iou(&gt, &d.mask);
                    n_hi += 1;
                }
                None => miss_hi += 1,
            }
            match lo.detections.iter().find(|d| d.instance == 1) {
                Some(d) => {
                    iou_lo += iou(&gt, &d.mask);
                    n_lo += 1;
                }
                None => miss_lo += 1,
            }
        }
        assert!(
            miss_lo > miss_hi,
            "low quality should miss more: {miss_lo} vs {miss_hi}"
        );
        if n_hi > 0 && n_lo > 0 {
            assert!(iou_hi / n_hi as f64 > iou_lo / n_lo as f64);
        }
    }

    #[test]
    fn one_stage_models_skip_rpn() {
        let obs = observation(320, 240, &[(1, 100, 80, 60, 60)]);
        let mut model = EdgeModel::new(ModelKind::Yolact, 320, 240, 3);
        let r = model.infer(&obs, None);
        assert_eq!(r.stats.anchors_evaluated, 0);
        assert_eq!(r.stats.rpn_ms, 0.0);
        assert!(!r.detections.is_empty());
    }

    #[test]
    fn yolo_masks_are_boxes() {
        let obs = observation(320, 240, &[(1, 100, 80, 60, 60)]);
        let mut model = EdgeModel::new(ModelKind::YoloV3, 320, 240, 3);
        let r = model.infer(&obs, None);
        let d = &r.detections[0];
        // Filled box: area equals bbox area.
        assert!((d.mask.area() as f64 - d.bbox.area()).abs() < d.bbox.area() * 0.1);
    }

    #[test]
    fn empty_frame_no_detections() {
        let obs = observation(320, 240, &[]);
        let mut model = EdgeModel::new(ModelKind::MaskRcnn, 320, 240, 9);
        let r = model.infer(&obs, None);
        assert!(r.detections.is_empty());
    }

    /// Detection fields compared bit-for-bit (no tolerance anywhere).
    fn assert_detections_identical(a: &[Detection], b: &[Detection]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.instance, y.instance);
            assert_eq!(x.class_id, y.class_id);
            assert_eq!(x.confidence.to_bits(), y.confidence.to_bits());
            assert_eq!(x.bbox.x0.to_bits(), y.bbox.x0.to_bits());
            assert_eq!(x.bbox.y0.to_bits(), y.bbox.y0.to_bits());
            assert_eq!(x.bbox.x1.to_bits(), y.bbox.x1.to_bits());
            assert_eq!(x.bbox.y1.to_bits(), y.bbox.y1.to_bits());
            assert_eq!(x.mask, y.mask);
        }
    }

    #[test]
    fn seeded_inference_is_a_pure_function() {
        let obs = observation(320, 240, &[(1, 60, 60, 70, 70), (2, 200, 100, 60, 80)]);
        let model = EdgeModel::new(ModelKind::MaskRcnn, 320, 240, 42);
        let a = model.infer_seeded(&obs, None, 17);
        let b = model.infer_seeded(&obs, None, 17);
        assert_detections_identical(&a.detections, &b.detections);
        assert_eq!(a.stats, b.stats);
        // A different seed draws different noise (the rolls differ even if
        // all objects happen to be detected both times).
        let c = model.infer_seeded(&obs, None, 18);
        assert_eq!(c.detections.len(), a.detections.len());
    }

    #[test]
    fn mask_rcnn_full_frame_latency_near_paper() {
        // At the 640x480 calibration size the unguided model should cost
        // roughly the paper's 400 ms.
        let obs = observation(640, 480, &[(1, 200, 160, 160, 160)]);
        let mut model = EdgeModel::new(ModelKind::MaskRcnn, 640, 480, 11);
        let r = model.infer(&obs, None);
        let t = r.stats.total_ms();
        assert!((280.0..520.0).contains(&t), "latency {t} ms");
    }
}
