//! Published model profiles (Fig. 2b) and their quality/cost parameters.

/// The models compared in the paper's motivation study (Fig. 2b) on the
/// edge node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Mask R-CNN, ResNet-101-FPN: accurate, slow (≈ 0.92 IoU, ≈ 400 ms).
    MaskRcnn,
    /// INT8-quantized Mask R-CNN (EdgeSAM-style post-training quantization):
    /// same two-stage structure, ≈ 0.6× the latency for a small accuracy
    /// drop (≈ 0.88 IoU, ≈ 250 ms), and quantized kernels batch better.
    MaskRcnnInt8,
    /// YOLACT: real-time-ish one-stage segmentation (≈ 0.75 IoU, ≈ 120 ms).
    Yolact,
    /// YOLOv3: detection only — boxes, no masks (≈ 0.98 box IoU, < 30 ms).
    YoloV3,
    /// A TensorFlow-Lite-style on-device model (the pure-mobile baseline):
    /// heavily compressed, slow on phone CPU/NPU and less accurate.
    MobileLite,
}

impl ModelKind {
    /// Stable lowercase name for traces, telemetry labels, and bench JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelKind::MaskRcnn => "mask_rcnn",
            ModelKind::MaskRcnnInt8 => "mask_rcnn_int8",
            ModelKind::Yolact => "yolact",
            ModelKind::YoloV3 => "yolov3",
            ModelKind::MobileLite => "mobile_lite",
        }
    }
}

/// Quality and cost parameters of a model, calibrated against the paper's
/// reported numbers on the Jetson TX2 edge (and iPhone 11 for
/// [`ModelKind::MobileLite`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Which model this is.
    pub kind: ModelKind,
    /// Mean mask IoU against ground truth at full image quality.
    pub base_iou: f64,
    /// Probability of missing an object entirely (per clearly visible,
    /// full-quality object).
    pub miss_rate: f64,
    /// Whether the model produces masks (YOLOv3 produces boxes only — its
    /// "mask" is the filled detection box).
    pub produces_masks: bool,
    /// Fixed backbone latency for a full 640×480 frame, ms.
    pub backbone_ms: f64,
    /// Fixed RPN overhead per frame (per-level conv heads), ms.
    pub rpn_base_ms: f64,
    /// RPN cost per thousand anchors, ms (0 for one-stage models).
    pub rpn_ms_per_kanchor: f64,
    /// Second-stage cost per RoI, ms.
    pub head_ms_per_roi: f64,
    /// One-stage fixed head cost, ms (for YOLACT / YOLOv3 style models).
    pub fixed_head_ms: f64,
    /// Cross-request batching: marginal backbone cost of each *additional*
    /// frame in a batch, as a fraction of [`Self::backbone_ms`]. Batched
    /// convolutions amortize weight fetch and kernel launch across the
    /// batch, so this is well below 1 on a GPU (YolactEdge reports the
    /// same effect for cross-frame redundancy); 1.0 means batching buys
    /// nothing (e.g. the on-device model).
    pub batch_backbone_marginal: f64,
    /// Marginal RPN+head cost of each *additional* request in a batch, as
    /// a fraction of its unbatched RPN+head cost. Per-RoI work batches
    /// less well than the dense backbone but still amortizes scheduling.
    pub batch_stage_marginal: f64,
    /// Largest batch the edge can hold in GPU memory for this model.
    pub max_batch: usize,
}

impl ModelProfile {
    /// The profile for a model kind.
    ///
    /// Calibration targets (full 640×480 frame, no acceleration):
    /// Mask R-CNN ≈ 400 ms with ≈ 0.92 IoU; YOLACT ≈ 120 ms with ≈ 0.75;
    /// YOLOv3 < 30 ms with ≈ 0.98 box IoU (Fig. 2b); the mobile model is
    /// the pure-on-device baseline whose false rate Fig. 9 reports as
    /// 78.3%.
    pub fn of(kind: ModelKind) -> Self {
        match kind {
            // Full frame at 640x480: ~77k FPN anchors -> RPN ≈ 75 + 84
            // ≈ 160 ms; a few hundred post-NMS RoIs × 0.3 ms ≈ 120 ms
            // heads; backbone 110 ms; total ≈ 400 ms (Fig. 2b).
            ModelKind::MaskRcnn => Self {
                kind,
                base_iou: 0.92,
                miss_rate: 0.02,
                produces_masks: true,
                backbone_ms: 110.0,
                rpn_base_ms: 75.0,
                rpn_ms_per_kanchor: 1.1,
                head_ms_per_roi: 0.30,
                fixed_head_ms: 0.0,
                batch_backbone_marginal: 0.35,
                batch_stage_marginal: 0.85,
                max_batch: 8,
            },
            // INT8 quantization keeps the two-stage structure but shrinks
            // every compute term: the dense backbone gains the most
            // (~1.5x), per-anchor/per-RoI work a bit less. Quantized
            // weights also leave more GPU memory for batching and batch
            // marginally cheaper (weight traffic is a quarter of FP32).
            ModelKind::MaskRcnnInt8 => Self {
                kind,
                base_iou: 0.88,
                miss_rate: 0.03,
                produces_masks: true,
                backbone_ms: 75.0,
                rpn_base_ms: 50.0,
                rpn_ms_per_kanchor: 0.65,
                head_ms_per_roi: 0.18,
                fixed_head_ms: 0.0,
                batch_backbone_marginal: 0.32,
                batch_stage_marginal: 0.82,
                max_batch: 12,
            },
            ModelKind::Yolact => Self {
                kind,
                base_iou: 0.75,
                miss_rate: 0.05,
                produces_masks: true,
                backbone_ms: 70.0,
                rpn_base_ms: 0.0,
                rpn_ms_per_kanchor: 0.0,
                head_ms_per_roi: 0.0,
                fixed_head_ms: 50.0,
                batch_backbone_marginal: 0.30,
                batch_stage_marginal: 0.80,
                max_batch: 16,
            },
            ModelKind::YoloV3 => Self {
                kind,
                base_iou: 0.98,
                miss_rate: 0.02,
                produces_masks: false,
                backbone_ms: 20.0,
                rpn_base_ms: 0.0,
                rpn_ms_per_kanchor: 0.0,
                head_ms_per_roi: 0.0,
                fixed_head_ms: 8.0,
                batch_backbone_marginal: 0.25,
                batch_stage_marginal: 0.75,
                max_batch: 32,
            },
            // On-device: Fig. 2a/9 — hundreds of ms per frame on a phone
            // and markedly lower mask quality. A phone NPU serves one
            // stream; batching buys nothing.
            ModelKind::MobileLite => Self {
                kind,
                base_iou: 0.62,
                miss_rate: 0.15,
                produces_masks: true,
                backbone_ms: 450.0,
                rpn_base_ms: 0.0,
                rpn_ms_per_kanchor: 0.0,
                head_ms_per_roi: 0.0,
                fixed_head_ms: 160.0,
                batch_backbone_marginal: 1.0,
                batch_stage_marginal: 1.0,
                max_batch: 1,
            },
        }
    }

    /// Charged GPU-lane occupancy of the `index`-th member (0-based) of a
    /// cross-request batch, given the member's *unbatched* backbone and
    /// RPN+head costs.
    ///
    /// The first member pays full price; every later member pays only the
    /// marginal fractions, so the batch total is sub-linear in batch size
    /// while per-member completions stay causally computable as members
    /// join (member `i`'s completion never depends on members `> i`).
    pub fn batched_member_ms(&self, index: usize, backbone_ms: f64, stage_ms: f64) -> f64 {
        if index == 0 {
            backbone_ms + stage_ms
        } else {
            backbone_ms * self.batch_backbone_marginal + stage_ms * self.batch_stage_marginal
        }
    }

    /// Profiled full-frame latency estimate, ms: the cost-model total for
    /// a frame evaluating `anchors_k` thousand anchors and `rois` second
    /// stage RoIs. Used for zoo tier ordering; the serving runtime charges
    /// the *actual* per-inference cost, not this estimate.
    pub fn full_frame_estimate_ms(&self, anchors_k: f64, rois: f64) -> f64 {
        self.backbone_ms
            + self.rpn_base_ms
            + self.rpn_ms_per_kanchor * anchors_k
            + self.head_ms_per_roi * rois
            + self.fixed_head_ms
    }

    /// Mask-quality proxy used to order zoo tiers by accuracy: expected IoU
    /// of a detected object, discounted for misses, with a flat penalty for
    /// box-only models whose "mask" is the filled detection box (a typical
    /// object fills roughly half its bounding box).
    pub fn mask_quality_proxy(&self) -> f64 {
        let hit = self.base_iou * (1.0 - self.miss_rate);
        if self.produces_masks {
            hit
        } else {
            hit * 0.55
        }
    }

    /// Boundary-noise severity for [`crate::detect::degrade_mask`] that
    /// realizes `base_iou` on typical object sizes: derived empirically in
    /// the detect module's calibration tests.
    pub fn noise_severity(&self) -> f64 {
        // severity ~ half-width of the corrupted boundary band in pixels.
        (1.0 - self.base_iou) * 18.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_fig2b_ordering() {
        let mrcnn = ModelProfile::of(ModelKind::MaskRcnn);
        let yolact = ModelProfile::of(ModelKind::Yolact);
        let yolo = ModelProfile::of(ModelKind::YoloV3);
        // Accuracy: yolo (boxes) > mrcnn > yolact.
        assert!(yolo.base_iou > mrcnn.base_iou);
        assert!(mrcnn.base_iou > yolact.base_iou);
        // Latency at full frame (see cost module for exact computation).
        assert!(mrcnn.backbone_ms > yolact.backbone_ms);
        assert!(yolact.backbone_ms > yolo.backbone_ms);
        assert!(!yolo.produces_masks);
    }

    #[test]
    fn mask_rcnn_full_frame_is_about_400ms() {
        let p = ModelProfile::of(ModelKind::MaskRcnn);
        let anchors_k = 76.7; // 640x480 FPN (P2-P6, 3 ratios) anchors / 1000
        let total = p.backbone_ms
            + p.rpn_base_ms
            + p.rpn_ms_per_kanchor * anchors_k
            + 400.0 * p.head_ms_per_roi;
        assert!(
            (350.0..460.0).contains(&total),
            "Mask R-CNN full-frame latency {total} ms out of band"
        );
    }

    #[test]
    fn yolact_is_about_120ms() {
        let p = ModelProfile::of(ModelKind::Yolact);
        let total = p.backbone_ms + p.fixed_head_ms;
        assert!((100.0..140.0).contains(&total));
    }

    #[test]
    fn yolo_is_under_30ms() {
        let p = ModelProfile::of(ModelKind::YoloV3);
        assert!(p.backbone_ms + p.fixed_head_ms < 30.0);
    }

    #[test]
    fn batch_first_member_pays_full_price() {
        let p = ModelProfile::of(ModelKind::MaskRcnn);
        assert_eq!(p.batched_member_ms(0, 110.0, 200.0), 310.0);
    }

    #[test]
    fn batch_total_is_sublinear_and_monotone() {
        let p = ModelProfile::of(ModelKind::MaskRcnn);
        let member = (110.0, 200.0);
        let mut prev = 0.0;
        for batch in 1..=p.max_batch {
            let total: f64 = (0..batch)
                .map(|i| p.batched_member_ms(i, member.0, member.1))
                .sum();
            let serial = batch as f64 * (member.0 + member.1);
            assert!(total > prev, "batch {batch} total must grow");
            if batch > 1 {
                assert!(
                    total < serial,
                    "batch {batch}: {total} ms not below serial {serial} ms"
                );
            }
            prev = total;
        }
    }

    #[test]
    fn mobile_profile_does_not_batch() {
        let p = ModelProfile::of(ModelKind::MobileLite);
        assert_eq!(p.max_batch, 1);
        let total: f64 = (0..2).map(|i| p.batched_member_ms(i, 450.0, 160.0)).sum();
        assert!((total - 2.0 * 610.0).abs() < 1e-9, "marginal must be 1.0");
    }

    #[test]
    fn int8_tier_sits_between_mask_rcnn_and_yolact() {
        let fp32 = ModelProfile::of(ModelKind::MaskRcnn);
        let int8 = ModelProfile::of(ModelKind::MaskRcnnInt8);
        let yolact = ModelProfile::of(ModelKind::Yolact);
        let (anchors_k, rois) = (76.7, 400.0);
        let l_fp32 = fp32.full_frame_estimate_ms(anchors_k, rois);
        let l_int8 = int8.full_frame_estimate_ms(anchors_k, rois);
        let l_yolact = yolact.full_frame_estimate_ms(anchors_k, rois);
        assert!(
            l_fp32 > l_int8 && l_int8 > l_yolact,
            "latency order broken: {l_fp32} / {l_int8} / {l_yolact}"
        );
        assert!((200.0..300.0).contains(&l_int8), "INT8 ≈ 250 ms: {l_int8}");
        assert!(fp32.mask_quality_proxy() > int8.mask_quality_proxy());
        assert!(int8.mask_quality_proxy() > yolact.mask_quality_proxy());
    }

    #[test]
    fn severity_monotone_in_error() {
        assert!(
            ModelProfile::of(ModelKind::Yolact).noise_severity()
                > ModelProfile::of(ModelKind::MaskRcnn).noise_severity()
        );
    }
}
