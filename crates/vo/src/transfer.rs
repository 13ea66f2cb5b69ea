//! Contour-projection mask transfer (§III-C).
//!
//! The shape of a mask is determined by its contour; if the contour pixels
//! can be located in the new frame, the mask follows. Each contour pixel
//! borrows its depth from the `k` nearest in-mask features (the paper's
//! observation: a small neighbourhood of the mask "is not likely to
//! experience shape changes in depth", k = 5), is unprojected in the source
//! camera frame, moved through the relative transform and re-projected.

use edgeis_geometry::{Camera, Vec2, SE3};
use edgeis_imaging::{fill_polygon, Contour, Mask};

/// A feature anchored inside the source mask with a known depth in the
/// source camera frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthAnchor {
    /// Pixel location in the source frame.
    pub pixel: Vec2,
    /// Depth (camera-frame z) of the corresponding 3-D point at source
    /// time.
    pub depth: f64,
}

/// How a contour pixel's borrowed depth is folded from its k nearest
/// anchors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepthStat {
    /// Arithmetic mean of the k depths (the paper's formulation).
    Mean,
    /// Median of the k depths (middle by rank; mean of the two middles for
    /// even k). Robust when a contour pixel's neighbourhood straddles an
    /// occlusion boundary and some anchors sit on a *different* surface:
    /// the mean drags the borrowed depth toward the outlier surface and
    /// warps that stretch of contour, the median ignores it.
    Median,
}

impl DepthStat {
    /// Folds depths listed in (distance, index) rank order. The median
    /// reorders `depths` in place.
    fn fold(self, depths: &mut [f64]) -> f64 {
        debug_assert!(!depths.is_empty());
        match self {
            DepthStat::Mean => depths.iter().sum::<f64>() / depths.len() as f64,
            DepthStat::Median => {
                // Rank order is by pixel distance, not depth.
                depths.sort_by(f64::total_cmp);
                let mid = depths.len() / 2;
                if depths.len() % 2 == 1 {
                    depths[mid]
                } else {
                    (depths[mid - 1] + depths[mid]) / 2.0
                }
            }
        }
    }
}

/// Configuration for [`transfer_mask`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferConfig {
    /// Number of nearest anchors folded per contour pixel (paper: 5).
    pub k_nearest: usize,
    /// How the k borrowed depths are folded into one.
    pub depth_stat: DepthStat,
    /// Maximum contour vertices projected per component (controls cost).
    pub max_contour_points: usize,
    /// Minimum fraction of contour points that must project in front of the
    /// camera for the transfer to be considered valid.
    pub min_valid_fraction: f64,
}

impl Default for TransferConfig {
    fn default() -> Self {
        Self {
            k_nearest: 5,
            depth_stat: DepthStat::Mean,
            max_contour_points: 160,
            min_valid_fraction: 0.6,
        }
    }
}

/// Transfers a source mask, given as its `contours`
/// ([`edgeis_imaging::extract_contours`] of the mask), into the current
/// frame.
///
/// * `t_rel` maps source-camera-frame coordinates to current-camera-frame
///   coordinates. For a static object this is
///   `T_cw(now) · T_cw(src)⁻¹`; for a dynamic one the camera poses are
///   taken relative to the object frame (Eq. 6–7).
/// * `anchors` are in-mask features with known depths at source time.
///
/// Returns `None` when there are no anchors or too few contour pixels
/// project validly (object left the view or the geometry degenerated).
pub fn transfer_mask(
    camera: &Camera,
    contours: &[Contour],
    anchors: &[DepthAnchor],
    t_rel: &SE3,
    config: &TransferConfig,
) -> Option<Mask> {
    if anchors.is_empty() || contours.is_empty() {
        return None;
    }

    let mut out: Option<Mask> = None;
    let mut total_pts = 0usize;
    let mut valid_pts = 0usize;

    let mut polygon: Vec<(f64, f64)> = Vec::new();
    let mut scratch = KnnScratch::default();

    for contour in contours {
        if contour.len() < 3 {
            continue;
        }
        let contour = contour.subsample(config.max_contour_points);
        polygon.clear();
        polygon.reserve(contour.len());
        for &(sx, sy) in &contour.points {
            total_pts += 1;
            let s = Vec2::new(sx as f64, sy as f64);
            let depth = scratch.depth(s, anchors, config.k_nearest, config.depth_stat);
            if depth <= 1e-9 {
                continue;
            }
            let p_src = camera.unproject(s, depth);
            let p_now = t_rel.transform(p_src);
            if let Some(px) = camera.project_camera(p_now) {
                polygon.push((px.x, px.y));
                valid_pts += 1;
            }
        }
        if polygon.len() < 3 {
            continue;
        }
        let filled = fill_polygon(camera.width, camera.height, &polygon);
        match &mut out {
            None => out = Some(filled),
            Some(acc) => acc.union_with(&filled),
        }
    }

    if total_pts == 0 || (valid_pts as f64) < config.min_valid_fraction * total_pts as f64 {
        return None;
    }
    out.filter(|m| !m.is_empty())
}

/// Mean depth of the `k` anchors nearest to `pixel`, O(n·log n) in the
/// anchor count. Ties on distance rank by anchor index (stable sort).
pub fn knn_depth_linear(pixel: Vec2, anchors: &[DepthAnchor], k: usize) -> f64 {
    knn_depth_linear_stat(pixel, anchors, k, DepthStat::Mean)
}

/// [`knn_depth_linear`] with a selectable fold over the k depths.
pub fn knn_depth_linear_stat(
    pixel: Vec2,
    anchors: &[DepthAnchor],
    k: usize,
    stat: DepthStat,
) -> f64 {
    KnnScratch::default().depth(pixel, anchors, k, stat)
}

/// Buffers for the k-NN depth fold, reused across the contour points of
/// one [`transfer_mask`] call.
#[derive(Default)]
struct KnnScratch {
    /// `(pixel distance, depth)` of every anchor.
    dists: Vec<(f64, f64)>,
    /// The k nearest depths, in rank order.
    depths: Vec<f64>,
}

impl KnnScratch {
    /// [`knn_depth_linear_stat`] into these buffers.
    fn depth(&mut self, pixel: Vec2, anchors: &[DepthAnchor], k: usize, stat: DepthStat) -> f64 {
        debug_assert!(!anchors.is_empty());
        let k = k.max(1).min(anchors.len());
        self.dists.clear();
        self.dists
            .extend(anchors.iter().map(|a| (a.pixel.distance(pixel), a.depth)));
        self.dists
            .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        self.depths.clear();
        self.depths
            .extend(self.dists.iter().take(k).map(|&(_, d)| d));
        stat.fold(&mut self.depths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeis_geometry::{Vec3, SO3};
    use edgeis_imaging::{extract_contours, iou};

    fn cam() -> Camera {
        Camera::new(120.0, 120.0, 80.0, 60.0, 160, 120)
    }

    /// Transfers `mask` with the default configuration.
    fn transfer(mask: &Mask, anchors: &[DepthAnchor], t_rel: &SE3) -> Option<Mask> {
        transfer_mask(
            &cam(),
            &extract_contours(mask),
            anchors,
            t_rel,
            &TransferConfig::default(),
        )
    }

    /// Builds a square mask plus a grid of anchors at constant depth.
    fn square_fixture(depth: f64) -> (Mask, Vec<DepthAnchor>) {
        let mut mask = Mask::new(160, 120);
        mask.fill_rect(60, 40, 40, 40);
        let mut anchors = Vec::new();
        for gy in 0..5 {
            for gx in 0..5 {
                anchors.push(DepthAnchor {
                    pixel: Vec2::new(62.0 + gx as f64 * 9.0, 42.0 + gy as f64 * 9.0),
                    depth,
                });
            }
        }
        (mask, anchors)
    }

    #[test]
    fn identity_transform_reproduces_mask() {
        let (mask, anchors) = square_fixture(3.0);
        let out = transfer(&mask, &anchors, &SE3::identity()).unwrap();
        assert!(iou(&mask, &out) > 0.9, "IoU {}", iou(&mask, &out));
    }

    #[test]
    fn translation_shifts_mask() {
        let (mask, anchors) = square_fixture(3.0);
        // Camera moves right by 0.25 m: t_rel = [I | (-0.25, 0, 0)] maps
        // source camera coords to current camera coords.
        let t_rel = SE3::new(SO3::identity(), Vec3::new(-0.25, 0.0, 0.0));
        let out = transfer(&mask, &anchors, &t_rel).unwrap();
        // Expected pixel shift: fx * tx / z = 120 * -0.25 / 3 = -10 px.
        let mut expected = Mask::new(160, 120);
        expected.fill_rect(50, 40, 40, 40);
        assert!(iou(&expected, &out) > 0.8, "IoU {}", iou(&expected, &out));
    }

    #[test]
    fn forward_motion_scales_mask_up() {
        let (mask, anchors) = square_fixture(3.0);
        // Camera moves 1m toward the object.
        let t_rel = SE3::new(SO3::identity(), Vec3::new(0.0, 0.0, -1.0));
        let out = transfer(&mask, &anchors, &t_rel).unwrap();
        assert!(
            out.area() as f64 > mask.area() as f64 * 1.5,
            "area {} -> {}",
            mask.area(),
            out.area()
        );
        // Still centered.
        let (cx, cy) = out.centroid().unwrap();
        assert!((cx - 80.0).abs() < 4.0 && (cy - 60.0).abs() < 4.0);
    }

    #[test]
    fn no_anchors_gives_none() {
        let (mask, _) = square_fixture(3.0);
        assert!(transfer(&mask, &[], &SE3::identity()).is_none());
    }

    #[test]
    fn object_leaving_view_gives_none() {
        let (mask, anchors) = square_fixture(2.0);
        // Moving the camera 5 m forward, past the object, puts it behind
        // the camera: z = 2 - 5 < 0 in current-camera coordinates.
        let t_rel = SE3::new(SO3::identity(), Vec3::new(0.0, 0.0, -5.0));
        assert!(transfer(&mask, &anchors, &t_rel).is_none());
    }

    #[test]
    fn knn_depth_averages_nearest() {
        let anchors = vec![
            DepthAnchor {
                pixel: Vec2::new(0.0, 0.0),
                depth: 1.0,
            },
            DepthAnchor {
                pixel: Vec2::new(1.0, 0.0),
                depth: 2.0,
            },
            DepthAnchor {
                pixel: Vec2::new(100.0, 0.0),
                depth: 50.0,
            },
        ];
        let d = knn_depth_linear(Vec2::new(0.5, 0.0), &anchors, 2);
        assert!((d - 1.5).abs() < 1e-12);
    }

    #[test]
    fn knn_depth_k_larger_than_anchor_count() {
        let anchors = vec![DepthAnchor {
            pixel: Vec2::ZERO,
            depth: 4.0,
        }];
        assert_eq!(knn_depth_linear(Vec2::new(3.0, 3.0), &anchors, 5), 4.0);
    }

    /// A deterministic pseudo-random anchor cloud (no external RNG so the
    /// fixture is stable).
    fn anchor_cloud(seed: u64, n: usize) -> Vec<DepthAnchor> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| DepthAnchor {
                pixel: Vec2::new(next() * 300.0, next() * 200.0),
                depth: 0.5 + next() * 9.5,
            })
            .collect()
    }

    #[test]
    fn median_depth_ignores_outlier_surface() {
        // Four anchors on the object at depth 3, one borrowed from a far
        // background surface at depth 30: the mean is dragged to 8.4, the
        // median stays on the object.
        let anchors: Vec<DepthAnchor> = [3.0, 3.0, 3.0, 3.0, 30.0]
            .iter()
            .enumerate()
            .map(|(i, &depth)| DepthAnchor {
                pixel: Vec2::new(i as f64, 0.0),
                depth,
            })
            .collect();
        let q = Vec2::new(2.0, 0.0);
        let mean = knn_depth_linear_stat(q, &anchors, 5, DepthStat::Mean);
        let median = knn_depth_linear_stat(q, &anchors, 5, DepthStat::Median);
        assert!((mean - 8.4).abs() < 1e-12);
        assert_eq!(median, 3.0);
        // Even k averages the two middles.
        let median4 = knn_depth_linear_stat(q, &anchors, 4, DepthStat::Median);
        assert_eq!(median4, 3.0);
    }

    #[test]
    fn knn_handles_duplicate_positions() {
        // Coincident anchors tie on distance: the lower index ranks first,
        // and the tied pair is summed in index order.
        let mut anchors = anchor_cloud(5, 30);
        for i in 0..10 {
            anchors.push(DepthAnchor {
                depth: anchors[i].depth + 1.0,
                ..anchors[i]
            });
        }
        for i in 0..10 {
            let q = anchors[i].pixel;
            assert_eq!(knn_depth_linear(q, &anchors, 1), anchors[i].depth);
            let pair = (anchors[i].depth + anchors[30 + i].depth) / 2.0;
            assert_eq!(knn_depth_linear(q, &anchors, 2).to_bits(), pair.to_bits());
        }
    }

    #[test]
    fn rotation_transfers_mask() {
        let (mask, anchors) = square_fixture(3.0);
        // Small camera yaw.
        let t_rel = SE3::new(SO3::from_yaw(0.05), Vec3::ZERO);
        let out = transfer(&mask, &anchors, &t_rel).unwrap();
        let (cx, _) = out.centroid().unwrap();
        // Yaw about +Y moves the projection; just require a clear shift.
        assert!((cx - 80.0).abs() > 2.0, "centroid barely moved: {cx}");
        assert!((out.area() as f64 - mask.area() as f64).abs() < mask.area() as f64 * 0.3);
    }

    #[test]
    fn varying_depth_anchors_respected() {
        // Anchors encode a slanted surface; nearer side should move more
        // under camera translation.
        let mut mask = Mask::new(160, 120);
        mask.fill_rect(40, 40, 80, 40);
        let mut anchors = Vec::new();
        for gx in 0..9 {
            let px = 42.0 + gx as f64 * 9.5;
            let depth = 2.0 + gx as f64 * 0.25; // left near, right far
            for gy in 0..4 {
                anchors.push(DepthAnchor {
                    pixel: Vec2::new(px, 43.0 + gy as f64 * 11.0),
                    depth,
                });
            }
        }
        let t_rel = SE3::new(SO3::identity(), Vec3::new(-0.3, 0.0, 0.0));
        let out = transfer(&mask, &anchors, &t_rel).unwrap();
        let bbox = out.bounding_box().unwrap();
        let src_bbox = mask.bounding_box().unwrap();
        // Left (near) edge shifts more than right (far) edge.
        let left_shift = src_bbox.0 as i64 - bbox.0 as i64;
        let right_shift = src_bbox.2 as i64 - bbox.2 as i64;
        assert!(
            left_shift > right_shift,
            "near edge should shift more: left {left_shift}, right {right_shift}"
        );
    }
}
