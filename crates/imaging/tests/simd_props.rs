//! Property-based SIMD-vs-scalar equivalence: for random images and
//! descriptor sets, every SIMD kernel must produce output bit-identical
//! to its scalar reference — same keypoints, same descriptors, same
//! blurred bytes — and the matcher must report exact Hamming nearest
//! neighbours.
//!
//! The detector properties pin the dispatcher with `force_caps`: the
//! native arm to the detected capabilities, the scalar arm to
//! [`SimdCaps::SCALAR`] (the feature-absent fallback). Forcing is
//! process-global, so both arms take the same lock and a concurrent
//! forced section can never turn the native arm scalar; the guard
//! restores detection on exit.
//!
//! The descriptor properties check every shipped descriptor, one by one,
//! against the clamped oracle `reference::brief_descriptor` at its own
//! keypoint, under both dispatch arms: keypoints described in place and
//! those described from a clamp-to-edge border patch alike.

use edgeis_imaging::features::reference;
use edgeis_imaging::simd::{
    brief_fits, detected_caps, force_caps, BriefPattern, BRIEF_PATCH, BRIEF_REACH,
};
use edgeis_imaging::{
    detect_orb, match_descriptors, Descriptor, GrayImage, Keypoint, MatchConfig, OrbConfig,
    SimdCaps,
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
        let mut colsum = Vec::new();
        let mut simd = GrayImage::new(1, 1);
        let mut fast = GrayImage::new(1, 1);
        img.box_blur3_simd_into(&mut simd, &mut colsum);
        img.box_blur3_fast_into(&mut fast, &mut colsum);
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

/// What a descriptor check covered: shipped keypoints per pyramid level,
/// those described from a border patch, and level-2 keypoints 16–23 px
/// from each border (left, top, right, bottom).
#[derive(Debug, Default)]
struct Coverage {
    levels: [usize; 3],
    patched: usize,
    level2_band: [usize; 4],
}

/// Asserts that every descriptor the detector ships for `img` under
/// `caps` equals the clamped oracle's at its keypoint.
fn check_every_descriptor(img: &GrayImage, caps: SimdCaps, cov: &mut Coverage) {
    let cfg = OrbConfig::default();
    let (kps, descs) = detect_with(img, caps);
    let want = reference::descriptors_at(img, &cfg, &kps);
    let levels = reference::pyramid(img, cfg.n_levels);
    for (k, (kp, (got, want))) in kps.iter().zip(descs.iter().zip(&want)).enumerate() {
        assert_eq!(got, want, "{caps:?}: descriptor {k} at {kp:?}");
        let level = &levels[kp.level as usize];
        let scale = (1u64 << kp.level) as f64;
        let (x, y) = ((kp.x / scale) as usize, (kp.y / scale) as usize);
        let (w, h) = (level.width() as usize, level.height() as usize);
        cov.levels[kp.level as usize] += 1;
        cov.patched += !brief_fits(w * h, w, x, y) as usize;
        if kp.level == 2 {
            for (b, d) in [x, y, w - 1 - x, h - 1 - y].into_iter().enumerate() {
                cov.level2_band[b] += (16..=23).contains(&d) as usize;
            }
        }
    }
}

#[test]
fn every_descriptor_matches_clamped_oracle() {
    // Large enough for a 3-level pyramid (level 2 needs 32 px a side).
    let mut cov = Coverage::default();
    for_each_case(|rng| {
        let (w, h) = (rng.random_range(128u32..200), rng.random_range(128u32..176));
        let img = textured(w, h, rng.random_range(0u64..1_000_000));
        for caps in [detected_caps(), SimdCaps::SCALAR] {
            check_every_descriptor(&img, caps, &mut cov);
        }
    });
    assert!(
        cov.levels.iter().all(|&n| n > 0) && cov.patched > 0,
        "a level or the border patch went unchecked: {cov:?}"
    );
}

#[test]
fn border_band_corners_match_clamped_oracle() {
    // Bright 6×6 squares on the level-2 grid of a 320×240 frame (80×60
    // at level 2), drawn as 24×24 blocks at full resolution, with a
    // corner 16 and 23 px from each border of level 2: both ends of the
    // band between FAST's 16 px border and the kernel's in-place window.
    let mut img = GrayImage::new(320, 240);
    img.fill(40);
    let (w2, h2) = (80u32, 60u32);
    let mut square = |x2: u32, y2: u32| {
        for y in y2 * 4..(y2 + 6) * 4 {
            for x in x2 * 4..(x2 + 6) * 4 {
                img.set(x, y, 220);
            }
        }
    };
    for (i, d) in [16u32, 23].into_iter().enumerate() {
        let along = 30 + 10 * i as u32;
        square(d, along.min(h2 - 30)); // left edge at d
        square(along, d); // top edge at d
        square(w2 - 1 - d - 5, along.min(h2 - 30)); // right edge at d
        square(along, h2 - 1 - d - 5); // bottom edge at d
    }
    let mut cov = Coverage::default();
    for caps in [detected_caps(), SimdCaps::SCALAR] {
        check_every_descriptor(&img, caps, &mut cov);
    }
    assert!(
        cov.level2_band.iter().all(|&n| n > 0),
        "a level-2 border band went unchecked: {cov:?}"
    );
}

#[test]
fn brief_patch_covers_reach_and_gather_slack() {
    // A rotated pattern offset has magnitude ≤ 15·√2 < BRIEF_REACH, so
    // its floor lies in -BRIEF_REACH..BRIEF_REACH: checked on the real
    // pattern at every keypoint column of a QVGA level and a dense sweep
    // of f32 angles.
    let pairs = reference::brief_pattern();
    BriefPattern::from_pairs(&pairs); // every offset in [-15, 15]
    assert!(15.0 * 2f64.sqrt() < BRIEF_REACH as f64);
    let reach = BRIEF_REACH as i64;
    for step in 0..2048 {
        let angle = (step as f32 / 2048.0 - 0.5) * 2.0 * std::f32::consts::PI;
        let (sin, cos) = (angle as f64).sin_cos();
        for x in [16u32, 17, 160, 303] {
            let xf = x as f64;
            for &((ax, ay), (bx, by)) in &pairs {
                for (px, py) in [(ax, ay), (bx, by)] {
                    for s in [xf + (cos * px - sin * py), xf + (sin * px + cos * py)] {
                        let d = s.floor() as i64 - x as i64;
                        assert!((-reach..reach).contains(&d), "offset {d} at angle {angle}");
                    }
                }
            }
        }
    }
    // The patch is a valid window around its keypoint: the full reach on
    // every side, the footprint's second row, and the two bytes each
    // 4-byte row gather reads past a footprint's right column.
    assert!(brief_fits(
        BRIEF_PATCH * BRIEF_PATCH,
        BRIEF_PATCH,
        BRIEF_REACH,
        BRIEF_REACH
    ));
}
