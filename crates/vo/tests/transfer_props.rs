//! Property tests for §III-C depth borrowing: every contour pixel takes
//! the mean depth of its k nearest in-mask features (paper: k = 5). The
//! estimate must always be a finite depth inside the anchors' range, must
//! not depend on the order features happened to be extracted in.

use edgeis_geometry::Vec2;
use edgeis_rng::{for_each_case, StdRng};
use edgeis_vo::transfer::{knn_depth_linear, DepthAnchor};

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
