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
//! keypoint, under both dispatch arms, keypoints on FAST's border band
//! included.

use edgeis_imaging::features::{reference, FAST_BORDER};
use edgeis_imaging::simd::{
    brief_fits, detected_caps, fast9_corner_mask, force_caps, BriefPattern,
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

/// Longest circular run of circle pixels passing `test`.
fn longest_run(circle: &[u8; 16], test: impl Fn(i32) -> bool) -> usize {
    let (mut run, mut best) = (0, 0);
    for i in 0..32 {
        run = if test(circle[i % 16] as i32) {
            run + 1
        } else {
            0
        };
        best = best.max(run);
    }
    best.min(16)
}

/// The FAST-9 decision, written from its definition: at least 9
/// contiguous circle pixels brighter than `c + t`, or darker than `c − t`.
fn is_corner(c: u8, circle: &[u8; 16], t: u8) -> bool {
    let (c, t) = (c as i32, t as i32);
    longest_run(circle, |v| v > c + t) >= 9 || longest_run(circle, |v| v < c - t) >= 9
}

/// Circle pixels `set` where `mask` has a bit, `fill` elsewhere.
fn circle_of(mask: u32, set: u8, fill: u8) -> [u8; 16] {
    std::array::from_fn(|i| if mask >> i & 1 == 1 { set } else { fill })
}

/// Sixteen independent lanes in one buffer: row 0 holds the centers and
/// row `i + 1` circle pixel `i` of every lane, so any lane's circle can
/// take any values.
struct LaneBlock {
    data: [u8; 17 * 16],
}

impl LaneBlock {
    /// Circle pixel `i` of lane `k` sits at `16 * (i + 1) + k`.
    fn offsets() -> [isize; 16] {
        std::array::from_fn(|i| 16 * (i as isize + 1))
    }

    fn set(&mut self, lane: usize, c: u8, circle: &[u8; 16]) {
        self.data[lane] = c;
        for (i, &v) in circle.iter().enumerate() {
            self.data[16 * (i + 1) + lane] = v;
        }
    }

    /// Asserts that the kernel's mask is the decision, lane by lane.
    fn check(&self, t: u8, what: &dyn Fn() -> String) {
        let mask = fast9_corner_mask(&self.data, 0, &Self::offsets(), t);
        for lane in 0..16 {
            let circle = std::array::from_fn(|i| self.data[16 * (i + 1) + lane]);
            assert_eq!(
                mask >> lane & 1 == 1,
                is_corner(self.data[lane], &circle, t),
                "lane {lane}, t {t}, {}: c {} circle {circle:?}",
                what(),
                self.data[lane]
            );
        }
    }
}

#[test]
fn fast9_corner_mask_matches_scalar_decision() {
    // Every 16-bit bright mask and every dark mask, one per lane, at
    // ordinary and saturating (c, t): c + t above and at 255, c − t below
    // and at 0, t = 0. Set pixels sit one step past the threshold; the
    // others sit exactly on it (v == c ± t is neither), at the center,
    // or one step past the opposite threshold. Then random lanes whose
    // centers and pixels mix all of those levels with 0 and 255. Both
    // dispatch arms.
    for caps in [detected_caps(), SimdCaps::SCALAR] {
        let _caps = force_caps(caps);
        let mut block = LaneBlock { data: [0; 17 * 16] };
        for (c, t) in [
            (100u8, 20u8),
            (250, 20),
            (235, 20),
            (10, 20),
            (20, 20),
            (77, 0),
        ] {
            let above = c.saturating_add(t);
            let below = c.saturating_sub(t);
            let kinds = [
                (above.saturating_add(1), [above, c, below.saturating_sub(1)]),
                (below.saturating_sub(1), [below, c, above.saturating_add(1)]),
            ];
            for (set, fills) in kinds {
                for fill in fills {
                    for first in (0..1u32 << 16).step_by(16) {
                        for lane in 0..16 {
                            let circle = circle_of(first + lane as u32, set, fill);
                            block.set(lane, c, &circle);
                        }
                        block.check(t, &|| format!("{caps:?} masks from {first:#06x}"));
                    }
                }
            }
        }
        for_each_case(|rng| {
            let t = [0u8, 1, 20, 127, 255][rng.random_range(0..5usize)];
            for _ in 0..16 {
                for lane in 0..16 {
                    let c = rng.random_range(0u8..=255);
                    let levels = [
                        c.saturating_sub(t).saturating_sub(1),
                        c.saturating_sub(t),
                        c,
                        c.saturating_add(t),
                        c.saturating_add(t).saturating_add(1),
                        0,
                        255,
                    ];
                    let circle = std::array::from_fn(|_| levels[rng.random_range(0..7usize)]);
                    block.set(lane, c, &circle);
                }
                block.check(t, &|| format!("{caps:?} random"));
            }
        });
    }
}

/// What a descriptor check covered, per pyramid level: shipped keypoints
/// and those 16–22 px from the nearest level edge, where the widest
/// pattern points sample the edge's neighbourhood; and level-2 keypoints
/// 16–23 px from each border (left, top, right, bottom).
#[derive(Debug, Default)]
struct Coverage {
    levels: [usize; 3],
    band: [usize; 3],
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
        let edges = [x, y, w - 1 - x, h - 1 - y];
        cov.levels[kp.level as usize] += 1;
        cov.band[kp.level as usize] += (16..=22).contains(edges.iter().min().unwrap()) as usize;
        if kp.level == 2 {
            for (b, d) in edges.into_iter().enumerate() {
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
        cov.levels.iter().chain(&cov.band).all(|&n| n > 0),
        "a level or its border band went unchecked: {cov:?}"
    );
}

#[test]
fn border_band_corners_match_clamped_oracle() {
    // Bright 6×6 squares on the level-2 grid of a 320×240 frame (80×60
    // at level 2), drawn as 24×24 blocks at full resolution, with a
    // corner 16 and 23 px from each border of level 2: both ends of the
    // band next to FAST's 16 px border where the widest pattern points
    // sample the level edge's neighbourhood.
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
fn brief_reach_and_gathers_stay_inside_level() {
    // The shipped pattern at keypoints on FAST's border of a QVGA level
    // (x = 16 and w − 17, likewise y), over a dense sweep of f32 angles:
    // every bilinear footprint lies in the level, and so does every
    // 4-byte row gather, which reads two bytes past the footprint's
    // right column. `brief_fits` accepts exactly the keypoints FAST can
    // emit.
    let pairs = reference::brief_pattern();
    BriefPattern::from_pairs(&pairs); // every point within the border
    let (w, h) = (320i64, 240i64);
    let b = FAST_BORDER as i64;
    let fits = |x: i64, y: i64| brief_fits((w * h) as usize, w as usize, x as usize, y as usize);
    let corners = [
        (b, b),
        (w - 1 - b, b),
        (b, h - 1 - b),
        (w - 1 - b, h - 1 - b),
    ];
    for (x, y) in corners {
        assert!(fits(x, y), "({x}, {y}) is on the border");
        for (ox, oy) in [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)] {
            let inside = (b..w - b).contains(&ox) && (b..h - b).contains(&oy);
            assert_eq!(fits(ox, oy), inside, "({ox}, {oy})");
        }
    }
    let steps = 1 << 14;
    for step in 0..=steps {
        let angle = std::f32::consts::PI * (2.0 * step as f32 / steps as f32 - 1.0);
        let (sin, cos) = (angle as f64).sin_cos();
        for (x, y) in corners {
            let (xf, yf) = (x as f64, y as f64);
            for &((ax, ay), (bx, by)) in &pairs {
                for (px, py) in [(ax, ay), (bx, by)] {
                    let x0 = (xf + (cos * px - sin * py)).floor() as i64;
                    let y0 = (yf + (sin * px + cos * py)).floor() as i64;
                    assert!(
                        x0 >= 0 && x0 + 1 < w && y0 >= 0 && y0 + 1 < h,
                        "footprint ({x0}, {y0}) of ({x}, {y}) at angle {angle}"
                    );
                    let last_gather_byte = (y0 + 1) * w + x0 + 3;
                    assert!(
                        last_gather_byte < w * h,
                        "gather past the level at ({x}, {y}), angle {angle}"
                    );
                }
            }
        }
    }
}
