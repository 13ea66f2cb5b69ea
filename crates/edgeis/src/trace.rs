//! Canonical per-frame trace capture for the conformance suite.
//!
//! Every [`FrameOutput`](crate::system::FrameOutput) carries a
//! [`FrameTrace`]: a compact, digest-based summary of what the system
//! *decided* and *produced* on that frame — pose, rendered masks, the
//! CFRS transmit decision and tile plan, the uplink bytes, and the
//! responses that arrived. Digests are FNV-1a 64 so two runs can be
//! compared field-by-field without storing megabytes of pixels; the
//! `edgeis-conformance` crate serializes these into golden traces and
//! diffs them across configurations.
//!
//! Everything in a trace is *virtual-clock deterministic*: wall-clock
//! stage timings ([`StageBreakdownMs`](crate::metrics::StageBreakdownMs))
//! are deliberately excluded, because they differ on every host.

use edgeis_geometry::SE3;
use edgeis_imaging::Mask;

// The digests themselves come from the workspace's single FNV-1a
// implementation; re-exported here because the trace module is where the
// conformance suite historically imported them from.
pub use crate::hash::{fnv1a64, fnv1a64_extend, FNV_OFFSET, FNV_PRIME};

/// Canonical digest of a rendered mask set: labels in ascending order,
/// each hashed with its mask dimensions and set-pixel coordinates.
/// Insensitive to render order, sensitive to every pixel.
pub fn digest_masks(masks: &[(u16, Mask)]) -> u64 {
    let mut order: Vec<usize> = (0..masks.len()).collect();
    order.sort_by_key(|&i| masks[i].0);
    let mut h = FNV_OFFSET;
    for i in order {
        let (label, mask) = &masks[i];
        let width = mask.width();
        h = fnv1a64_extend(h, &label.to_le_bytes());
        h = fnv1a64_extend(h, &width.to_le_bytes());
        h = fnv1a64_extend(h, &mask.height().to_le_bytes());
        // Set pixels in raster order, walked run by run: the RLE scan
        // skips empty stretches a chunk at a time, and x/y step without a
        // division per pixel.
        let mut pos = 0u32;
        let mut set = false;
        mask.for_each_rle_run(|run| {
            if set {
                let (mut x, mut y) = (pos % width, pos / width);
                for _ in 0..run {
                    h = fnv1a64_extend(h, &x.to_le_bytes());
                    h = fnv1a64_extend(h, &y.to_le_bytes());
                    x += 1;
                    if x == width {
                        x = 0;
                        y += 1;
                    }
                }
            }
            pos += run;
            set = !set;
        });
    }
    h
}

/// Digest of an uplink payload: the tile plan's per-level counts plus the
/// per-tile byte sizes, in tile order. Catches any change to the encode
/// path or the CFRS tile-plan decision.
pub fn digest_uplink(level_counts: (usize, usize, usize, usize), tile_bytes: &[usize]) -> u64 {
    let mut h = FNV_OFFSET;
    for c in [
        level_counts.0,
        level_counts.1,
        level_counts.2,
        level_counts.3,
    ] {
        h = fnv1a64_extend(h, &(c as u64).to_le_bytes());
    }
    for &b in tile_bytes {
        h = fnv1a64_extend(h, &(b as u64).to_le_bytes());
    }
    h
}

/// Pose as a 6-vector `[log(R), t]` (axis-angle rotation, translation) —
/// the canonical trace representation of an [`SE3`].
pub fn pose_vector(pose: &SE3) -> [f64; 6] {
    let w = pose.rotation.log();
    let t = pose.translation;
    [w.x, w.y, w.z, t.x, t.y, t.z]
}

/// Deterministic per-frame trace of one system's decisions and outputs.
///
/// Serialized (by `edgeis-conformance`) into golden traces; compared
/// field-by-field by the differential oracles. All fields are virtual-
/// clock deterministic — no wall-clock values belong here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameTrace {
    /// Camera pose estimate `[log(R), t]`, when the tracker has one.
    pub pose: Option<[f64; 6]>,
    /// Digest of the rendered mask set (labels + pixels).
    pub mask_digest: u64,
    /// Number of masks rendered this frame.
    pub mask_count: u32,
    /// Transmit decision: `"hold"` or `"transmit:<Reason>"`.
    pub decision: String,
    /// Tile counts per quality level `[high, medium, low, skip]`
    /// (all zero when nothing was transmitted).
    pub tile_levels: [u32; 4],
    /// Digest of the encoded uplink (tile plan + per-tile bytes);
    /// zero when nothing was transmitted.
    pub uplink_digest: u64,
    /// Non-shed responses that arrived this frame.
    pub responses: u32,
    /// Digest of every non-shed response payload that arrived this frame,
    /// in arrival order.
    pub response_digest: u64,
    /// Digest of the response payloads actually applied to the tracker
    /// (corrupt and stale-dropped responses are excluded).
    pub applied_digest: u64,
    /// Resilience health state after this frame's delivery pass.
    pub health: String,
    /// Zoo tier of the last response applied this frame (empty for
    /// no-zoo edges and shed frames). Routing must be trace-visible: a tier switch changes the
    /// applied mask, so the tier rides beside the digest that proves it.
    pub tier: String,
}

impl FrameTrace {
    /// FNV-1a digest of every field, so a whole trace collapses to one
    /// comparable word. Two frames digest equal iff the system made the
    /// same decisions and produced the same outputs on them — the
    /// chaos sweep compares these per-frame on devices a fault schedule
    /// was supposed to leave untouched.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        match &self.pose {
            None => h = fnv1a64_extend(h, &[0]),
            Some(v) => {
                h = fnv1a64_extend(h, &[1]);
                for c in v {
                    h = fnv1a64_extend(h, &c.to_bits().to_le_bytes());
                }
            }
        }
        h = fnv1a64_extend(h, &self.mask_digest.to_le_bytes());
        h = fnv1a64_extend(h, &self.mask_count.to_le_bytes());
        h = fnv1a64_extend(h, self.decision.as_bytes());
        h = fnv1a64_extend(h, &[0xff]);
        for l in &self.tile_levels {
            h = fnv1a64_extend(h, &l.to_le_bytes());
        }
        h = fnv1a64_extend(h, &self.uplink_digest.to_le_bytes());
        h = fnv1a64_extend(h, &self.responses.to_le_bytes());
        h = fnv1a64_extend(h, &self.response_digest.to_le_bytes());
        h = fnv1a64_extend(h, &self.applied_digest.to_le_bytes());
        h = fnv1a64_extend(h, self.health.as_bytes());
        h = fnv1a64_extend(h, &[0xff]);
        h = fnv1a64_extend(h, self.tier.as_bytes());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_trace_digest_separates_every_field() {
        let base = FrameTrace {
            pose: Some([0.1, 0.2, 0.3, 1.0, 2.0, 3.0]),
            mask_digest: 11,
            mask_count: 2,
            decision: "transmit:Keyframe".to_string(),
            tile_levels: [4, 2, 1, 0],
            uplink_digest: 22,
            responses: 1,
            response_digest: 33,
            applied_digest: 44,
            health: "healthy".to_string(),
            tier: "mask_rcnn".to_string(),
        };
        assert_eq!(base.digest(), base.clone().digest(), "digest is pure");
        let mut variants = vec![base.clone()];
        variants.push(FrameTrace {
            pose: None,
            ..base.clone()
        });
        variants.push(FrameTrace {
            mask_digest: 12,
            ..base.clone()
        });
        variants.push(FrameTrace {
            decision: "hold".to_string(),
            ..base.clone()
        });
        variants.push(FrameTrace {
            tile_levels: [4, 2, 0, 1],
            ..base.clone()
        });
        variants.push(FrameTrace {
            responses: 0,
            ..base.clone()
        });
        variants.push(FrameTrace {
            health: "outage".to_string(),
            ..base.clone()
        });
        variants.push(FrameTrace {
            tier: "yolact".to_string(),
            ..base.clone()
        });
        let digests: Vec<u64> = variants.iter().map(FrameTrace::digest).collect();
        for i in 0..digests.len() {
            for j in (i + 1)..digests.len() {
                assert_ne!(digests[i], digests[j], "variants {i} and {j} collide");
            }
        }
    }

    #[test]
    fn mask_digest_hashes_set_pixels_in_raster_order() {
        // The definition, pixel by pixel; `digest_masks` walks RLE runs.
        fn per_pixel(masks: &[(u16, Mask)]) -> u64 {
            let mut sorted: Vec<&(u16, Mask)> = masks.iter().collect();
            sorted.sort_by_key(|(label, _)| *label);
            let mut h = FNV_OFFSET;
            for (label, mask) in sorted {
                h = fnv1a64_extend(h, &label.to_le_bytes());
                h = fnv1a64_extend(h, &mask.width().to_le_bytes());
                h = fnv1a64_extend(h, &mask.height().to_le_bytes());
                for (x, y) in mask.iter_set() {
                    h = fnv1a64_extend(h, &x.to_le_bytes());
                    h = fnv1a64_extend(h, &y.to_le_bytes());
                }
            }
            h
        }
        // 70 px wide, so runs cross both row ends and 64-pixel chunks.
        let mut wide = Mask::new(70, 5);
        wide.fill_rect(60, 0, 10, 2);
        wide.fill_rect(0, 1, 5, 3);
        wide.set(69, 4, true);
        let mut full = Mask::new(64, 2);
        full.fill_rect(0, 0, 64, 2);
        let empty = Mask::new(8, 8);
        let sets = [
            vec![(3, wide.clone()), (1, full.clone())],
            vec![(1, full), (3, wide)],
            vec![(2, empty)],
            vec![],
        ];
        for masks in &sets {
            assert_eq!(digest_masks(masks), per_pixel(masks));
        }
    }
}
