//! Model zoo: an ordered set of segmentation tiers for deadline-aware
//! anytime routing.
//!
//! The paper's edge runs a single profiled model, so a saturated serving
//! runtime can only *shed* requests that miss their deadline. The related
//! work names a whole latency/accuracy spectrum — Mask R-CNN down through
//! an INT8-quantized variant, YOLACT, and box-only YOLOv3 — and because
//! the serving runtime knows every request's completion time exactly, it
//! can instead route each request to the **largest tier that still meets
//! the deadline**. This module defines the tier list ([`ZooConfig`]) and
//! the resolved per-tier model instances ([`TierSet`]); the routing rule
//! itself lives in `edgeis::serving`.
//!
//! Tiers are ordered largest (most accurate, slowest) first. Tier 0 is
//! the "full" tier: a response served from any later tier is *degraded*
//! but still far better than a shed (the mobile coasts on mask tracking
//! either way, but a degraded mask re-anchors it).

use crate::model::EdgeModel;
use crate::profile::{ModelKind, ModelProfile};

/// Ordered tier list for the serving runtime's routing admission stage.
///
/// Invariants expected (and property-tested) of a useful zoo: tiers are
/// strictly ordered by profiled latency *and* by mask-quality proxy, so no
/// tier is dominated and routing degrades monotonically under load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZooConfig {
    /// Tier kinds, largest (slowest, most accurate) first.
    pub tiers: Vec<ModelKind>,
}

impl ZooConfig {
    /// The standard 4-tier anytime ladder: Mask R-CNN, its INT8-quantized
    /// variant, YOLACT, and box-only YOLOv3 as the floor.
    pub fn standard() -> Self {
        Self {
            tiers: vec![
                ModelKind::MaskRcnn,
                ModelKind::MaskRcnnInt8,
                ModelKind::Yolact,
                ModelKind::YoloV3,
            ],
        }
    }

    /// A single-tier zoo — routing with this config is equivalent to the
    /// plain single-model runtime (proved by a conformance differential).
    pub fn single(kind: ModelKind) -> Self {
        Self { tiers: vec![kind] }
    }

    /// Number of tiers.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }
}

/// The resolved models an edge serves from: one [`EdgeModel`] per tier.
///
/// This is the single tier/profile resolution path of the edge's
/// `ServingRuntime` (one model without a zoo, one per zoo tier), so every
/// serving configuration answers "which model and profile serves tier
/// `t`?" identically.
#[derive(Debug)]
pub struct TierSet {
    models: Vec<EdgeModel>,
}

impl TierSet {
    /// Resolves a zoo against a primary model: one sibling per tier at the
    /// primary's frame size. With `zoo = None` the set is just the primary.
    ///
    /// All siblings share `seed`; seeded inference does not depend on the
    /// construction seed, so fleet replicas built from the same
    /// `(primary, zoo, seed)` serve bit-identical payloads.
    pub fn resolve(primary: EdgeModel, zoo: Option<&ZooConfig>, seed: u64) -> Self {
        let models = match zoo {
            None => vec![primary],
            Some(cfg) => {
                assert!(!cfg.tiers.is_empty(), "zoo must have at least one tier");
                cfg.tiers
                    .iter()
                    .map(|&kind| primary.sibling(kind, seed))
                    .collect()
            }
        };
        Self { models }
    }

    /// Number of tiers (≥ 1).
    pub fn tier_count(&self) -> usize {
        self.models.len()
    }

    /// The model serving tier `tier`.
    pub fn model(&self, tier: usize) -> &EdgeModel {
        &self.models[tier]
    }

    /// The profile of tier `tier`.
    pub fn profile(&self, tier: usize) -> &ModelProfile {
        self.models[tier].profile()
    }

    /// Stable name of tier `tier` for traces and telemetry labels.
    pub fn tier_name(&self, tier: usize) -> &'static str {
        self.models[tier].profile().kind.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_zoo_is_strictly_ordered_on_both_axes() {
        let zoo = ZooConfig::standard();
        assert!(zoo.tier_count() >= 3, "anytime ladder needs ≥ 3 tiers");
        let profiles: Vec<ModelProfile> = zoo.tiers.iter().map(|&k| ModelProfile::of(k)).collect();
        for pair in profiles.windows(2) {
            let (big, small) = (&pair[0], &pair[1]);
            // Full-frame latency at the paper's 640x480 calibration point.
            assert!(
                big.full_frame_estimate_ms(76.7, 400.0) > small.full_frame_estimate_ms(76.7, 400.0),
                "{:?} not slower than {:?}",
                big.kind,
                small.kind
            );
            assert!(
                big.mask_quality_proxy() > small.mask_quality_proxy(),
                "{:?} not more accurate than {:?}",
                big.kind,
                small.kind
            );
        }
    }

    #[test]
    fn tier_ordering_holds_across_operating_points() {
        // Property: the latency order is not an artifact of one
        // calibration point — sweep anchor/RoI loads from tiny crops to
        // 4K-ish frames with an LCG and require strict monotonicity on
        // latency at every point (quality is load-independent).
        let zoo = ZooConfig::standard();
        let profiles: Vec<ModelProfile> = zoo.tiers.iter().map(|&k| ModelProfile::of(k)).collect();
        let mut lcg: u64 = 0x5EED;
        for _ in 0..64 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let anchors_k = 1.0 + (lcg >> 33) as f64 % 300.0;
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let rois = (lcg >> 33) as f64 % 1000.0;
            for pair in profiles.windows(2) {
                assert!(
                    pair[0].full_frame_estimate_ms(anchors_k, rois)
                        > pair[1].full_frame_estimate_ms(anchors_k, rois),
                    "{:?} not slower than {:?} at {anchors_k}k anchors / {rois} RoIs",
                    pair[0].kind,
                    pair[1].kind
                );
            }
        }
    }

    #[test]
    fn resolve_without_zoo_is_the_primary_alone() {
        let primary = EdgeModel::new(ModelKind::MaskRcnn, 160, 120, 7);
        let set = TierSet::resolve(primary, None, 7);
        assert_eq!(set.tier_count(), 1);
        assert_eq!(set.profile(0).kind, ModelKind::MaskRcnn);
        assert_eq!(set.tier_name(0), "mask_rcnn");
    }

    #[test]
    fn resolve_builds_one_sibling_per_tier_at_the_primary_frame_size() {
        let primary = EdgeModel::new(ModelKind::MaskRcnn, 320, 240, 7);
        let set = TierSet::resolve(primary, Some(&ZooConfig::standard()), 7);
        assert_eq!(set.tier_count(), 4);
        for t in 0..set.tier_count() {
            assert_eq!(set.model(t).width(), 320);
            assert_eq!(set.model(t).height(), 240);
        }
        assert_eq!(set.profile(3).kind, ModelKind::YoloV3);
    }

    #[test]
    fn siblings_serve_bit_identical_seeded_outputs_regardless_of_seed() {
        use crate::model::FrameObservation;
        use edgeis_imaging::LabelMap;
        use std::collections::BTreeMap;
        let mut labels = LabelMap::new(160, 120);
        for y in 40..90 {
            for x in 50..110 {
                labels.set(x, y, 1);
            }
        }
        let obs = FrameObservation::pristine(labels, BTreeMap::from([(1u16, 2u8)]));
        let a = EdgeModel::new(ModelKind::Yolact, 160, 120, 1);
        let b = a.sibling(ModelKind::Yolact, 999);
        let ra = a.infer_seeded(&obs, None, 42);
        let rb = b.infer_seeded(&obs, None, 42);
        assert_eq!(
            format!("{:?}", ra.detections),
            format!("{:?}", rb.detections)
        );
    }
}
