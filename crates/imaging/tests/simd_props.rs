//! Property-based SIMD-vs-scalar equivalence: for random images and
//! descriptor sets, every SIMD kernel must produce output bit-identical
//! to its scalar reference — same keypoints, same descriptors, same
//! blurred bytes — and the matcher must report exact Hamming nearest
//! neighbours. CI runs this suite under the default thread count *and*
//! `EDGEIS_THREADS=1`, so the parallel merge cannot mask (or cause) a
//! divergence.
//!
//! The detector properties pin the dispatcher with `force_caps`: the
//! native arm to the detected capabilities, the scalar arm to
//! [`SimdCaps::SCALAR`] (the feature-absent fallback). Forcing is
//! process-global, so both arms take the same lock and a concurrent
//! forced section can never turn the native arm scalar; the guard
//! restores detection on exit.

use edgeis_imaging::features::reference;
use edgeis_imaging::simd::{detected_caps, force_caps};
use edgeis_imaging::{
    detect_orb, match_descriptors, Descriptor, GrayImage, Keypoint, MatchConfig, OrbConfig,
    ScratchArena, SimdCaps,
};
use edgeis_rng::{for_each_case, StdRng};

/// A deterministic textured image: smooth gradients (blur-friendly
/// content) plus hash noise (dense FAST corners), fully determined by
/// `(w, h, seed)`.
fn textured(w: u32, h: u32, seed: u64) -> GrayImage {
    let mut img = GrayImage::new(w, h);
    let mut state = seed | 1;
    for y in 0..h {
        for x in 0..w {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 56) as u32;
            let grad = (x * 2 + y * 3) % 256;
            img.set(x, y, ((grad + noise / 2) % 256) as u8);
        }
    }
    img
}

fn image(rng: &mut StdRng) -> GrayImage {
    let (w, h) = (rng.random_range(48u32..160), rng.random_range(40u32..120));
    textured(w, h, rng.random_range(0u64..1_000_000))
}

/// A descriptor set whose size is drawn from `n`.
fn descriptors(rng: &mut StdRng, n: core::ops::Range<usize>) -> Vec<Descriptor> {
    (0..rng.random_range(n))
        .map(|_| {
            let (a, b) = (rng.random_range(0..u64::MAX), rng.random_range(0..u64::MAX));
            Descriptor([a, b, a ^ b, a.rotate_left(17)])
        })
        .collect()
}

type Detections = (Vec<Keypoint>, Vec<Descriptor>);

/// Detects on `img` with the dispatcher pinned to `caps`.
fn detect_with(img: &GrayImage, caps: SimdCaps) -> Detections {
    let _caps = force_caps(caps);
    detect_orb(img, &OrbConfig::default())
}

fn assert_detections_equal(a: &Detections, b: &Detections, what: &str) {
    let ((kps_a, descs_a), (kps_b, descs_b)) = (a, b);
    assert_eq!(descs_a, descs_b, "{what}: descriptors diverged");
    assert_eq!(kps_a.len(), kps_b.len(), "{what}: keypoint count diverged");
    for (p, q) in kps_a.iter().zip(kps_b) {
        // Bit-exact, not approximate: the SIMD kernels promise identical
        // IEEE operation order.
        assert!(
            p.x.to_bits() == q.x.to_bits()
                && p.y.to_bits() == q.y.to_bits()
                && p.level == q.level
                && p.response.to_bits() == q.response.to_bits()
                && p.angle.to_bits() == q.angle.to_bits(),
            "{what}: keypoint diverged: {p:?} vs {q:?}"
        );
    }
}

#[test]
fn orb_simd_matches_scalar() {
    for_each_case(|rng| {
        let img = image(rng);
        assert_detections_equal(
            &detect_with(&img, detected_caps()),
            &detect_with(&img, SimdCaps::SCALAR),
            "native vs forced-scalar dispatch",
        );
    });
}

#[test]
fn blur_simd_matches_reference() {
    for_each_case(|rng| {
        let img = image(rng);
        let arena = ScratchArena::default();
        let mut simd = GrayImage::new(1, 1);
        let mut fast = GrayImage::new(1, 1);
        img.box_blur3_simd_into(&mut simd, &arena);
        img.box_blur3_fast_arena_into(&mut fast, &arena);
        assert_eq!(&simd, &fast, "simd vs scalar column-sum blur");
        assert_eq!(&simd, &img.box_blur3(), "simd vs nine-load reference blur");
    });
}

#[test]
fn matcher_distances_are_exact_hamming() {
    for_each_case(|rng| {
        let query = descriptors(rng, 1..24);
        let train = descriptors(rng, 1..24);
        // Independent oracle: every reported distance must equal the
        // plain popcount Hamming distance of the named pair, and the
        // named train index must be the true argmin for that query.
        let config = MatchConfig {
            cross_check: false,
            ..MatchConfig::default()
        };
        for m in match_descriptors(&query, &train, &config) {
            let d = query[m.query_idx].distance(&train[m.train_idx]);
            assert_eq!(
                m.distance, d,
                "reported distance is not the exact Hamming distance"
            );
            let best = train
                .iter()
                .map(|t| query[m.query_idx].distance(t))
                .min()
                .unwrap();
            assert_eq!(d, best, "match is not the true nearest neighbour");
        }
    });
}

#[test]
fn forced_scalar_caps_fall_back_identically() {
    for_each_case(|rng| {
        let img = image(rng);
        // With detection pinned to no-SIMD the scalar fast paths run
        // alone; they must reproduce the clamped reference detector on
        // every shape, odd sizes (the downsample's clamped fallback)
        // included.
        assert_detections_equal(
            &detect_with(&img, SimdCaps::SCALAR),
            &reference::detect_orb(&img, &OrbConfig::default()),
            "forced-scalar dispatch vs reference detector",
        );
    });
}
