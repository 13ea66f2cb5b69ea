//! Property tests for §III-C depth borrowing: every contour pixel takes
//! the mean depth of its k nearest in-mask features (paper: k = 5). The
//! estimate must always be a finite depth inside the anchors' range, must
//! not depend on the order features happened to be extracted in. And the
//! transfer, with its reused k-NN buffers and row-OR union, must equal
//! the per-point allocating transfer kept below as an oracle.

use edgeis_geometry::{Camera, Vec2, Vec3, SE3, SO3};
use edgeis_imaging::{extract_contours, fill_polygon, Mask};
use edgeis_rng::{for_each_case, StdRng};
use edgeis_vo::transfer::{
    knn_depth_linear, knn_depth_linear_stat, transfer_mask, DepthAnchor, DepthStat, TransferConfig,
};

/// 1 to 39 anchors scattered over a 160×120 image.
fn anchors(rng: &mut StdRng) -> Vec<DepthAnchor> {
    let n = rng.random_range(1..40);
    (0..n)
        .map(|_| DepthAnchor {
            pixel: Vec2::new(rng.random_range(0.0..160.0), rng.random_range(0.0..120.0)),
            depth: rng.random_range(0.5..6.0),
        })
        .collect()
}

/// A query pixel; queries may fall outside the anchor hull (contour
/// pixels often do).
fn query(rng: &mut StdRng) -> Vec2 {
    Vec2::new(
        rng.random_range(-20.0..180.0),
        rng.random_range(-20.0..140.0),
    )
}

/// Distances from `pixel` to every anchor are pairwise distinct — the
/// precondition for order-independence (ties are broken by input order,
/// deliberately, to match the stable sort of the reference scan).
fn distances_distinct(pixel: Vec2, anchors: &[DepthAnchor]) -> bool {
    let mut d: Vec<f64> = anchors.iter().map(|a| a.pixel.distance(pixel)).collect();
    d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    d.windows(2).all(|w| w[1] - w[0] > 1e-9)
}

#[test]
fn knn_depth_is_finite_and_inside_anchor_range() {
    for_each_case(|rng| {
        let (anchors, pixel, k) = (anchors(rng), query(rng), rng.random_range(1usize..9));
        let d = knn_depth_linear(pixel, &anchors, k);
        assert!(d.is_finite(), "k={k}, {} anchors: got {d}", anchors.len());
        let min = anchors
            .iter()
            .map(|a| a.depth)
            .fold(f64::INFINITY, f64::min);
        let max = anchors.iter().map(|a| a.depth).fold(0.0, f64::max);
        // A mean of borrowed depths can never leave the borrowed range.
        assert!(
            d >= min - 1e-12 && d <= max + 1e-12,
            "k={k}: depth {d} outside anchor range [{min}, {max}]"
        );
    });
}

#[test]
fn knn_depth_is_permutation_invariant() {
    for_each_case(|rng| {
        let (anchors, pixel, rot) = (anchors(rng), query(rng), rng.random_range(0usize..40));
        if !distances_distinct(pixel, &anchors) {
            return;
        }
        let reference = knn_depth_linear(pixel, &anchors, 5);

        let mut reversed = anchors.clone();
        reversed.reverse();
        let mut rotated = anchors.clone();
        rotated.rotate_left(rot % anchors.len());

        // With distinct distances the k selected anchors — and the order
        // their depths are summed in — are fully determined, so the result
        // is bit-identical, not merely close.
        assert_eq!(
            reference.to_bits(),
            knn_depth_linear(pixel, &reversed, 5).to_bits(),
            "depth changed under reversal: {reference} vs {}",
            knn_depth_linear(pixel, &reversed, 5)
        );
        assert_eq!(
            reference.to_bits(),
            knn_depth_linear(pixel, &rotated, 5).to_bits(),
            "depth changed under rotation by {rot}: {reference} vs {}",
            knn_depth_linear(pixel, &rotated, 5)
        );
    });
}

/// Two fresh vectors per query: every distance, then the k nearest depths.
fn knn_depth_oracle(pixel: Vec2, anchors: &[DepthAnchor], k: usize, stat: DepthStat) -> f64 {
    let k = k.max(1).min(anchors.len());
    let mut dists: Vec<(f64, f64)> = anchors
        .iter()
        .map(|a| (a.pixel.distance(pixel), a.depth))
        .collect();
    dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let depths: Vec<f64> = dists.iter().take(k).map(|&(_, d)| d).collect();
    match stat {
        DepthStat::Mean => depths.iter().sum::<f64>() / depths.len() as f64,
        DepthStat::Median => {
            let mut sorted = depths.to_vec();
            sorted.sort_by(f64::total_cmp);
            let mid = sorted.len() / 2;
            if sorted.len() % 2 == 1 {
                sorted[mid]
            } else {
                (sorted[mid - 1] + sorted[mid]) / 2.0
            }
        }
    }
}

/// The transfer with a k-NN allocation per contour point and a per-pixel
/// union of the components' fills.
fn transfer_oracle(
    camera: &Camera,
    source_mask: &Mask,
    anchors: &[DepthAnchor],
    t_rel: &SE3,
    config: &TransferConfig,
) -> Option<Mask> {
    if anchors.is_empty() {
        return None;
    }
    let contours = extract_contours(source_mask);
    let mut out: Option<Mask> = None;
    let (mut total_pts, mut valid_pts) = (0usize, 0usize);
    for contour in &contours {
        if contour.len() < 3 {
            continue;
        }
        let contour = contour.subsample(config.max_contour_points);
        let mut polygon = Vec::new();
        for &(sx, sy) in &contour.points {
            total_pts += 1;
            let s = Vec2::new(sx as f64, sy as f64);
            let depth = knn_depth_oracle(s, anchors, config.k_nearest, config.depth_stat);
            if depth <= 1e-9 {
                continue;
            }
            let p_now = t_rel.transform(camera.unproject(s, depth));
            if let Some(px) = camera.project_camera(p_now) {
                polygon.push((px.x, px.y));
                valid_pts += 1;
            }
        }
        if polygon.len() < 3 {
            continue;
        }
        let filled = fill_polygon(camera.width, camera.height, &polygon);
        out = Some(match out {
            None => filled,
            Some(mut acc) => {
                for (x, y) in filled.iter_set() {
                    acc.set(x, y, true);
                }
                acc
            }
        });
    }
    if total_pts == 0 || (valid_pts as f64) < config.min_valid_fraction * total_pts as f64 {
        return None;
    }
    out.filter(|m| !m.is_empty())
}

#[test]
fn knn_depth_matches_the_allocating_oracle() {
    for_each_case(|rng| {
        let (anchors, pixel, k) = (anchors(rng), query(rng), rng.random_range(1usize..9));
        for stat in [DepthStat::Mean, DepthStat::Median] {
            assert_eq!(
                knn_depth_linear_stat(pixel, &anchors, k, stat).to_bits(),
                knn_depth_oracle(pixel, &anchors, k, stat).to_bits(),
                "k={k} {stat:?}"
            );
        }
    });
}

#[test]
fn transfer_matches_the_allocating_oracle() {
    let camera = Camera::new(120.0, 120.0, 80.0, 60.0, 160, 120);
    for_each_case(|rng| {
        // One to three blocks, some overlapping, some off to the side.
        let mut mask = Mask::new(160, 120);
        for _ in 0..rng.random_range(1u32..4) {
            mask.fill_rect(
                rng.random_range(0u32..150),
                rng.random_range(0u32..110),
                rng.random_range(1u32..60),
                rng.random_range(1u32..50),
            );
        }
        // Anchors on set pixels; a few runs have none.
        let mut anchors = Vec::new();
        let set: Vec<(u32, u32)> = mask.iter_set().collect();
        for _ in 0..rng.random_range(0usize..25) {
            let (x, y) = set[rng.random_range(0..set.len())];
            anchors.push(DepthAnchor {
                pixel: Vec2::new(x as f64 + 0.25, y as f64 - 0.25),
                depth: rng.random_range(0.8..6.0),
            });
        }
        let t_rel = SE3::new(
            SO3::from_yaw(rng.random_range(-0.2..0.2)),
            Vec3::new(
                rng.random_range(-0.6..0.6),
                rng.random_range(-0.3..0.3),
                rng.random_range(-1.5..1.0),
            ),
        );
        let config = TransferConfig {
            k_nearest: rng.random_range(1usize..8),
            depth_stat: if rng.random_bool(0.5) {
                DepthStat::Mean
            } else {
                DepthStat::Median
            },
            max_contour_points: rng.random_range(3usize..200),
            ..TransferConfig::default()
        };
        assert_eq!(
            transfer_mask(&camera, &extract_contours(&mask), &anchors, &t_rel, &config),
            transfer_oracle(&camera, &mask, &anchors, &t_rel, &config),
            "{config:?}"
        );
    });
}
