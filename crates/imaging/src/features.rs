//! ORB features: FAST-9 corners with non-maximum suppression, intensity-
//! centroid orientation and rotated BRIEF descriptors over an image pyramid.
//!
//! The paper uses ORB "for its efficiency in computing and robustness
//! against the change of viewpoints" (§III-A); this is a from-scratch
//! implementation with the same structure.

use crate::image::GrayImage;
use edgeis_rng::StdRng;

/// A detected keypoint in full-resolution image coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Keypoint {
    /// Sub-pixel x in the original image.
    pub x: f64,
    /// Sub-pixel y in the original image.
    pub y: f64,
    /// Pyramid level the keypoint was detected at (0 = full resolution).
    pub level: u8,
    /// FAST corner response (sum of absolute differences over the arc).
    pub response: f32,
    /// Orientation angle in radians from the intensity centroid.
    pub angle: f32,
}

/// A 256-bit binary descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Descriptor(pub [u64; 4]);

impl Descriptor {
    /// Hamming distance to another descriptor (0..=256).
    #[inline]
    pub fn distance(&self, other: &Descriptor) -> u32 {
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Hamming distance with an early exit at the half-way point: the
    /// return value is exact when below `cap` and otherwise only guaranteed
    /// to be `>= cap`, which is all a best-two scan needs to discard the
    /// candidate. A single mid-point check is used because a branch per
    /// word costs more than the two XOR+popcounts it saves. On the brute
    /// matcher's dense scans even that single check measured slower than
    /// the plain four-word sum, so `match_descriptors` always takes the
    /// full distance (the opt-in toggle was measured, rejected and
    /// removed — see DESIGN.md §14); the spatial matcher keeps using this
    /// against its running second-best, where candidate lists are short
    /// and the cap is usually tight.
    #[inline]
    pub fn distance_capped(&self, other: &Descriptor, cap: u32) -> u32 {
        let half = (self.0[0] ^ other.0[0]).count_ones() + (self.0[1] ^ other.0[1]).count_ones();
        if half >= cap {
            return half;
        }
        half + (self.0[2] ^ other.0[2]).count_ones() + (self.0[3] ^ other.0[3]).count_ones()
    }
}

/// Configuration for [`detect_orb`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbConfig {
    /// FAST intensity threshold.
    pub fast_threshold: u8,
    /// Maximum keypoints kept (highest response first).
    pub max_features: usize,
    /// Number of pyramid levels (1 = no pyramid).
    pub n_levels: u8,
    /// Suppression radius in pixels for greedy non-maximum suppression.
    pub nms_radius: u32,
}

impl Default for OrbConfig {
    fn default() -> Self {
        Self {
            fast_threshold: 20,
            max_features: 500,
            n_levels: 3,
            nms_radius: 4,
        }
    }
}

/// Bresenham circle of radius 3 used by FAST-9 (16 pixels).
const FAST_CIRCLE: [(i64, i64); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// The FAST-9 test for interior pixels (the clamped form is
/// `reference::fast9_response`): the scan border (16 px) exceeds
/// the circle radius (3 px), so every circle pixel is in-bounds and the
/// clamped loads reduce to direct indexing with per-level linear offsets.
/// Only the 4 compass pixels are loaded on the reject path (the
/// overwhelmingly common case); a contiguous arc of 9 always covers at
/// least 2 of the 4 points spaced 4 apart, so the decision — and on accept
/// the response, computed from the same pixel values — is bit-identical
/// to the reference path.
fn fast9_response_fast(
    data: &[u8],
    center: usize,
    threshold: i32,
    offsets: &[isize; 16],
) -> Option<f32> {
    let c = data[center] as i32;
    let t = threshold;
    let at = |i: usize| data[(center as isize + offsets[i]) as usize] as i32;
    let mut nb = 0u32;
    let mut nd = 0u32;
    for i in [0usize, 4, 8, 12] {
        let v = at(i);
        if v > c + t {
            nb += 1;
        } else if v < c - t {
            nd += 1;
        }
    }
    if nb < 2 && nd < 2 {
        return None;
    }
    let mut bright_mask = 0u16;
    let mut dark_mask = 0u16;
    let mut diffs = [0i32; 16];
    for (i, d) in diffs.iter_mut().enumerate() {
        let v = at(i);
        *d = v - c;
        bright_mask |= ((v > c + t) as u16) << i;
        dark_mask |= ((v < c - t) as u16) << i;
    }
    // Compass quick-reject on the same bits (positions 0, 4, 8, 12 =
    // mask 0x1111) — repeats the prefilter's decision, like the reference
    // path repeats its compass count.
    if (bright_mask & 0x1111).count_ones() < 2 && (dark_mask & 0x1111).count_ones() < 2 {
        return None;
    }
    if has_circular_run9(bright_mask) || has_circular_run9(dark_mask) {
        let response: i32 = diffs.iter().map(|d| d.abs()).sum();
        Some(response as f32)
    } else {
        None
    }
}

/// True iff the 16-bit circular mask contains ≥ 9 contiguous set bits —
/// the same predicate as `longest_arc(flags) >= 9`, evaluated with eight
/// shift-ANDs on the doubled mask instead of a 32-iteration loop: bit `i`
/// of the accumulator survives iff bits `i..=i+8` of the doubled mask are
/// all set, i.e. a wrapping run of 9 starts at `i`.
#[inline]
fn has_circular_run9(mask: u16) -> bool {
    let m = (mask as u32) | ((mask as u32) << 16);
    let mut acc = m;
    for k in 1..9 {
        acc &= m >> k;
    }
    acc & 0xFFFF != 0
}

/// Intensity-centroid orientation in a circular patch of radius `r`, for
/// keypoints at least `r` pixels from every border
/// (guaranteed by the scan border, 16 ≥ r = 7): walks each row only across
/// its in-disc extent with direct loads. The pixels visited, their visit
/// order and the f64 accumulation are exactly those of the reference loop,
/// so the angle is bit-identical.
fn orientation_fast(img: &GrayImage, x: u32, y: u32, r: i64) -> f32 {
    let data = img.as_bytes();
    let w = img.width() as i64;
    let mut m01 = 0.0f64;
    let mut m10 = 0.0f64;
    for dy in -r..=r {
        // Largest |dx| with dx² + dy² ≤ r² — the same pixels the reference
        // loop keeps after its in-disc test.
        let mut ext = 0i64;
        while (ext + 1) * (ext + 1) + dy * dy <= r * r {
            ext += 1;
        }
        let base = (y as i64 + dy) * w + x as i64;
        for dx in -ext..=ext {
            let v = data[(base + dx) as usize] as f64;
            m10 += dx as f64 * v;
            m01 += dy as f64 * v;
        }
    }
    m01.atan2(m10) as f32
}

/// The 256 BRIEF sampling pairs, generated once from a fixed seed inside a
/// 31×31 patch (σ = 5 Gaussian-ish via clamped normal draws).
fn brief_pattern() -> Vec<BriefPair> {
    let mut rng = StdRng::seed_from_u64(0x0b5e55ed);
    let draw = |rng: &mut StdRng| -> f64 {
        // Approximate normal via sum of uniforms, clamped to the patch.
        let s: f64 = (0..4).map(|_| rng.random_range(-1.0..1.0)).sum::<f64>() * 3.75;
        s.clamp(-15.0, 15.0)
    };
    (0..256)
        .map(|_| {
            (
                (draw(&mut rng), draw(&mut rng)),
                (draw(&mut rng), draw(&mut rng)),
            )
        })
        .collect()
}

use crate::simd::BriefPair;

/// Computes the rotated BRIEF descriptor at a keypoint location on the
/// level image where it was detected.
fn brief_descriptor(
    img: &GrayImage,
    x: f64,
    y: f64,
    angle: f32,
    pattern: &[BriefPair],
) -> Descriptor {
    let (sin, cos) = (angle as f64).sin_cos();
    let mut bits = [0u64; 4];
    for (i, &((ax, ay), (bx, by))) in pattern.iter().enumerate() {
        let ra = (cos * ax - sin * ay, sin * ax + cos * ay);
        let rb = (cos * bx - sin * by, sin * bx + cos * by);
        let va = img.sample_bilinear(x + ra.0, y + ra.1);
        let vb = img.sample_bilinear(x + rb.0, y + rb.1);
        if va < vb {
            bits[i / 64] |= 1u64 << (i % 64);
        }
    }
    Descriptor(bits)
}

/// Minimum distance from every border (in pixels) for the direct-indexing
/// BRIEF path. Pattern offsets are clamped to ±15 per axis, so a rotated
/// offset has magnitude ≤ 15·√2 ≈ 21.22; at ≥ 23 px from each edge both
/// bilinear footprint columns/rows of every sample are strictly in-bounds
/// and clamping can never engage.
const BRIEF_FAST_MARGIN: u32 = 23;

/// [`brief_descriptor`] for keypoints at least [`BRIEF_FAST_MARGIN`] from
/// every border: bilinear sampling with direct loads, mirroring
/// `GrayImage::sample_bilinear`'s f64 arithmetic term for term so the
/// descriptor bits are identical. Callers fall back to the clamped
/// reference sampler nearer the border, where the two would diverge.
fn brief_descriptor_fast(
    img: &GrayImage,
    x: f64,
    y: f64,
    angle: f32,
    pattern: &[BriefPair],
) -> Descriptor {
    let data = img.as_bytes();
    let w = img.width() as usize;
    // `sx`/`sy` are strictly positive here (margin ≥ 23 minus the ≤ 21.22
    // rotated offset), so `as usize` truncation equals `floor()`; the
    // interpolation expression below is term-for-term the reference one,
    // keeping every f64 rounding step identical.
    let sample = |sx: f64, sy: f64| -> f64 {
        let x0 = sx as usize;
        let y0 = sy as usize;
        let fx = sx - x0 as f64;
        let fy = sy - y0 as f64;
        let base = y0 * w + x0;
        let r0 = &data[base..base + 2];
        let r1 = &data[base + w..base + w + 2];
        let p00 = r0[0] as f64;
        let p10 = r0[1] as f64;
        let p01 = r1[0] as f64;
        let p11 = r1[1] as f64;
        p00 * (1.0 - fx) * (1.0 - fy)
            + p10 * fx * (1.0 - fy)
            + p01 * (1.0 - fx) * fy
            + p11 * fx * fy
    };
    // Three straight-line phases over the whole pattern — rotate, sample,
    // compare — so the rotation loop vectorizes and the gather-bound
    // sample loop runs branch-free. Each sample's arithmetic is unchanged,
    // only regrouped across iterations, so every value (and bit) matches
    // the reference loop.
    let (sin, cos) = (angle as f64).sin_cos();
    let mut coords = [0.0f64; 1024];
    for (i, &((ax, ay), (bx, by))) in pattern.iter().enumerate() {
        coords[4 * i] = x + (cos * ax - sin * ay);
        coords[4 * i + 1] = y + (sin * ax + cos * ay);
        coords[4 * i + 2] = x + (cos * bx - sin * by);
        coords[4 * i + 3] = y + (sin * bx + cos * by);
    }
    let mut vals = [0.0f64; 512];
    for (v, c) in vals.iter_mut().zip(coords.chunks_exact(2)) {
        *v = sample(c[0], c[1]);
    }
    let mut bits = [0u64; 4];
    for (i, p) in vals.chunks_exact(2).enumerate() {
        bits[i >> 6] |= ((p[0] < p[1]) as u64) << (i & 63);
    }
    if crate::test_hooks::brief_fast_corruption_enabled() {
        bits[0] ^= 1;
    }
    Descriptor(bits)
}

/// [`brief_descriptor_fast`] with the rotate and sample phases running
/// through the SIMD kernels ([`crate::simd::brief_rotate`],
/// [`crate::simd::brief_sample_pairs`]): the same three-phase structure
/// and the same per-element IEEE operations two lanes at a time, so the
/// descriptor bits are identical. Same interior-margin contract as the
/// scalar fast path; callers must have checked
/// [`crate::simd::brief_available`].
fn brief_descriptor_simd(
    img: &GrayImage,
    x: f64,
    y: f64,
    angle: f32,
    pattern: &[BriefPair],
) -> Descriptor {
    let (sin, cos) = (angle as f64).sin_cos();
    let mut coords = [0.0f64; 1024];
    crate::simd::brief_rotate(x, y, sin, cos, pattern, &mut coords);
    let mut vals = [0.0f64; 512];
    crate::simd::brief_sample_pairs(img.as_bytes(), img.width() as usize, &coords, &mut vals);
    let mut bits = [0u64; 4];
    for (i, p) in vals.chunks_exact(2).enumerate() {
        bits[i >> 6] |= ((p[0] < p[1]) as u64) << (i & 63);
    }
    // The conformance canary corrupts every fast-path sampler — this one
    // included — so a silently diverged SIMD BRIEF is provably caught.
    if crate::test_hooks::brief_fast_corruption_enabled() {
        bits[0] ^= 1;
    }
    Descriptor(bits)
}

/// Reusable buffers for [`detect_orb_with_scratch`]: the BRIEF pattern,
/// the per-level NMS suppression plane (sized once for level 0, shared by
/// the smaller levels), the FAST candidate/winner lists and the pyramid
/// level images. Holding one of these per tracker removes every per-frame
/// allocation from the detector's steady state.
#[derive(Debug, Default, Clone)]
pub struct OrbScratch {
    pattern: Vec<BriefPair>,
    suppressed: Vec<bool>,
    candidates: Vec<(u32, u32, f32)>,
    winners: Vec<(u32, u32, f32, u8)>,
    selected: Vec<(u32, u32, f32, u8)>,
    levels: Vec<GrayImage>,
    /// Pooled transient buffers (per-stripe blur column sums, the
    /// selection order) that live inside parallel closures and so cannot
    /// be plain fields; see [`crate::arena`].
    arena: crate::ScratchArena,
}

impl OrbScratch {
    /// Peak scratch footprint in bytes (an allocation proxy for the perf
    /// harness; counts buffer capacities, not live lengths, and includes
    /// the arena pools' high-water mark).
    pub fn peak_bytes(&self) -> usize {
        self.suppressed.capacity()
            + self.candidates.capacity() * std::mem::size_of::<(u32, u32, f32)>()
            + (self.winners.capacity() + self.selected.capacity())
                * std::mem::size_of::<(u32, u32, f32, u8)>()
            + self.pattern.capacity() * std::mem::size_of::<BriefPair>()
            + self.arena.peak_bytes()
            + self
                .levels
                .iter()
                .map(|i| (i.width() * i.height()) as usize)
                .sum::<usize>()
    }
}

/// Detects ORB features over a pyramid and computes descriptors.
///
/// Returns keypoints (full-resolution coordinates) with aligned descriptors.
/// Results are deterministic for a given image and configuration — the
/// FAST scan and the descriptor pass run row-striped across threads with
/// an ordered merge, so the output is bit-identical for any thread count
/// (see `edgeis-parallel`).
pub fn detect_orb(img: &GrayImage, config: &OrbConfig) -> (Vec<Keypoint>, Vec<Descriptor>) {
    detect_orb_with_scratch(img, config, &mut OrbScratch::default())
}

/// [`detect_orb`] with caller-owned scratch buffers, reused across frames.
///
/// Each SIMD kernel (blur row, FAST compass pre-test, BRIEF rotate/sample)
/// runs when its CPU feature is present and falls back to the scalar fast
/// path otherwise; [`crate::simd::force_caps`] pins the fallback. Every
/// combination is bit-identical to the clamped [`reference`] detector
/// (test-enforced).
pub fn detect_orb_with_scratch(
    img: &GrayImage,
    config: &OrbConfig,
    scratch: &mut OrbScratch,
) -> (Vec<Keypoint>, Vec<Descriptor>) {
    if scratch.pattern.is_empty() {
        scratch.pattern = brief_pattern();
    }
    let simd_fast = crate::simd::fast_available();
    let simd_brief = crate::simd::brief_available();
    let n_levels = (config.n_levels as usize).max(1);
    while scratch.levels.len() < n_levels {
        scratch.levels.push(GrayImage::new(1, 1));
    }
    img.box_blur3_simd_into(&mut scratch.levels[0], &scratch.arena);
    // Suppression plane sized once for the largest (first) level; smaller
    // levels reuse its prefix.
    scratch.suppressed.resize(
        (scratch.levels[0].width() * scratch.levels[0].height()) as usize,
        false,
    );

    // Pass 1: FAST scan + NMS per pyramid level. Orientation and
    // descriptors are deferred until after the max_features selection so
    // they are only ever computed for keypoints that survive it.
    scratch.winners.clear();
    for level in 0..config.n_levels {
        let width = scratch.levels[level as usize].width();
        let height = scratch.levels[level as usize].height();
        if width < 32 || height < 32 {
            break;
        }
        let border = 16u32;
        let scan_rows = (height - 2 * border) as usize;

        // FAST-9 scan, row-striped: each stripe emits candidates in scan
        // order and stripes are concatenated in order, matching the serial
        // y-then-x loop exactly.
        scratch.candidates.clear();
        {
            let data = scratch.levels[level as usize].as_bytes();
            let threshold = config.fast_threshold;
            // Circle pixel positions as linear offsets into this level's
            // row-major buffer, for the direct-indexing scan.
            let circle_offsets: [isize; 16] =
                FAST_CIRCLE.map(|(dx, dy)| (dy * width as i64 + dx) as isize);
            let found = edgeis_parallel::par_collect_ranges(scan_rows, 8, |range| {
                let mut out: Vec<(u32, u32, f32)> = Vec::new();
                let end = (width - border) as usize;
                for y in (border + range.start as u32)..(border + range.end as u32) {
                    let row = y as usize * width as usize;
                    let mut x = border as usize;
                    if simd_fast {
                        // 16 scan positions at a time: the SIMD compass
                        // pre-test rejects exactly the pixels the scalar
                        // compass rejects; survivors (rare) run the
                        // unchanged scalar decision in ascending-x order,
                        // so the candidate stream is identical.
                        while x + 16 <= end {
                            let mut survivors = crate::simd::fast_compass_mask(
                                data,
                                row,
                                x,
                                width as usize,
                                threshold,
                            );
                            while survivors != 0 {
                                let k = survivors.trailing_zeros() as usize;
                                survivors &= survivors - 1;
                                if let Some(resp) = fast9_response_fast(
                                    data,
                                    row + x + k,
                                    threshold as i32,
                                    &circle_offsets,
                                ) {
                                    out.push(((x + k) as u32, y, resp));
                                }
                            }
                            x += 16;
                        }
                    }
                    for x in x..end {
                        if let Some(resp) =
                            fast9_response_fast(data, row + x, threshold as i32, &circle_offsets)
                        {
                            out.push((x as u32, y, resp));
                        }
                    }
                }
                out
            });
            scratch.candidates.extend(found);
        }

        let plane = (width * height) as usize;
        suppress_non_maxima(
            &mut scratch.candidates,
            &mut scratch.suppressed[..plane],
            (width, height),
            config.nms_radius,
            level,
            &mut scratch.winners,
        );

        if (level as usize) + 1 < n_levels {
            let (built, rest) = scratch.levels.split_at_mut(level as usize + 1);
            built[level as usize].downsample_half_fast_into(&mut rest[0]);
        }
    }

    // Keep the strongest max_features across all levels: the same stable
    // response ranking the reference flow applies after computing every
    // descriptor — hoisting it before the descriptor pass only skips work
    // for keypoints that were going to be dropped anyway.
    scratch.selected.clear();
    if scratch.winners.len() > config.max_features {
        let mut order = scratch.arena.take::<usize>(0);
        order.extend(0..scratch.winners.len());
        order.sort_by(|&a, &b| {
            scratch.winners[b]
                .2
                .partial_cmp(&scratch.winners[a].2)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order.truncate(config.max_features);
        order.sort_unstable();
        scratch
            .selected
            .extend(order.iter().map(|&i| scratch.winners[i]));
    } else {
        scratch.selected.extend_from_slice(&scratch.winners);
    }

    // Pass 2: orientation + descriptor per selected keypoint is pure, so
    // it parallelizes with an ordered merge.
    let computed = {
        let levels = &scratch.levels;
        let pattern = &scratch.pattern;
        edgeis_parallel::par_map(&scratch.selected, 4, |&(x, y, _, level)| {
            let level_ref = &levels[level as usize];
            let angle = orientation_fast(level_ref, x, y, 7);
            let interior = x >= BRIEF_FAST_MARGIN
                && y >= BRIEF_FAST_MARGIN
                && x + BRIEF_FAST_MARGIN < level_ref.width()
                && y + BRIEF_FAST_MARGIN < level_ref.height();
            let desc = if interior && simd_brief {
                brief_descriptor_simd(level_ref, x as f64, y as f64, angle, pattern)
            } else if interior {
                brief_descriptor_fast(level_ref, x as f64, y as f64, angle, pattern)
            } else {
                brief_descriptor(level_ref, x as f64, y as f64, angle, pattern)
            };
            (angle, desc)
        })
    };

    let mut keypoints = Vec::with_capacity(scratch.selected.len());
    let mut descriptors = Vec::with_capacity(scratch.selected.len());
    for (&(x, y, resp, level), (angle, desc)) in scratch.selected.iter().zip(computed) {
        // Powers of two are exact in f64, so this matches the reference
        // flow's per-level `scale *= 2.0` accumulator bit for bit.
        let scale = (1u64 << level) as f64;
        keypoints.push(Keypoint {
            x: x as f64 * scale,
            y: y as f64 * scale,
            level,
            response: resp,
            angle,
        });
        descriptors.push(desc);
    }
    (keypoints, descriptors)
}

/// Greedy NMS over one level's FAST candidates: strongest first, suppress
/// a disc around each winner and append it to `winners`. Inherently
/// sequential (each winner changes the suppression state seen by later
/// candidates), so it stays serial; the stable sort keeps scan order among
/// equal responses. `suppressed` is the level's `width × height` plane.
fn suppress_non_maxima(
    candidates: &mut [(u32, u32, f32)],
    suppressed: &mut [bool],
    (width, height): (u32, u32),
    radius: u32,
    level: u8,
    winners: &mut Vec<(u32, u32, f32, u8)>,
) {
    candidates.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    suppressed.fill(false);
    let r = radius as i64;
    let w = width as i64;
    let h = height as i64;
    for &(x, y, resp) in candidates.iter() {
        if suppressed[(y as i64 * w + x as i64) as usize] {
            continue;
        }
        for dy in -r..=r {
            for dx in -r..=r {
                let nx = x as i64 + dx;
                let ny = y as i64 + dy;
                if nx >= 0 && ny >= 0 && nx < w && ny < h {
                    suppressed[(ny * w + nx) as usize] = true;
                }
            }
        }
        winners.push((x, y, resp, level));
    }
}

/// The clamped pre-optimization ORB detector: the oracle the shipped fast
/// paths and SIMD kernels are proven bit-identical against (the unit tests
/// below, the conformance differential and its broken-fast-path canary).
/// Not a production path; hidden from docs.
#[doc(hidden)]
pub mod reference {
    use super::{
        brief_descriptor, brief_pattern, suppress_non_maxima, Descriptor, GrayImage, Keypoint,
        OrbConfig, FAST_CIRCLE,
    };

    /// [`super::detect_orb`] in its original shape, serial: nine-load
    /// clamped blur and 2×2 clamped downsample, a FAST-9 scan that loads
    /// the whole clamped circle at every pixel, bounding-square
    /// orientation, clamped BRIEF sampling for every NMS winner, and the
    /// `max_features` selection applied after the descriptors.
    pub fn detect_orb(img: &GrayImage, config: &OrbConfig) -> (Vec<Keypoint>, Vec<Descriptor>) {
        let pattern = brief_pattern();
        let mut level_img = img.box_blur3();
        let mut keypoints = Vec::new();
        let mut descriptors = Vec::new();
        let mut scale = 1.0f64;
        for level in 0..config.n_levels {
            let (width, height) = (level_img.width(), level_img.height());
            if width < 32 || height < 32 {
                break;
            }
            let border = 16u32;
            let mut candidates = Vec::new();
            for y in border..height - border {
                for x in border..width - border {
                    if let Some(resp) = fast9_response(&level_img, x, y, config.fast_threshold) {
                        candidates.push((x, y, resp));
                    }
                }
            }
            let mut suppressed = vec![false; (width * height) as usize];
            let mut winners = Vec::new();
            suppress_non_maxima(
                &mut candidates,
                &mut suppressed,
                (width, height),
                config.nms_radius,
                level,
                &mut winners,
            );
            for (x, y, response, level) in winners {
                let angle = orientation(&level_img, x, y, 7);
                keypoints.push(Keypoint {
                    x: x as f64 * scale,
                    y: y as f64 * scale,
                    level,
                    response,
                    angle,
                });
                descriptors.push(brief_descriptor(
                    &level_img, x as f64, y as f64, angle, &pattern,
                ));
            }
            level_img = level_img.downsample_half();
            scale *= 2.0;
        }

        if keypoints.len() > config.max_features {
            let mut order: Vec<usize> = (0..keypoints.len()).collect();
            order.sort_by(|&a, &b| {
                keypoints[b]
                    .response
                    .partial_cmp(&keypoints[a].response)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            order.truncate(config.max_features);
            order.sort_unstable();
            let kps = order.iter().map(|&i| keypoints[i]).collect();
            let descs = order.iter().map(|&i| descriptors[i]).collect();
            return (kps, descs);
        }
        (keypoints, descriptors)
    }

    /// Longest circular run of `true` over the 16 circle flags.
    pub(super) fn longest_arc(flags: &[bool; 16]) -> usize {
        let mut best = 0;
        let mut run = 0;
        for i in 0..32 {
            if flags[i % 16] {
                run += 1;
                best = best.max(run);
                if best >= 16 {
                    break;
                }
            } else {
                run = 0;
            }
        }
        best.min(16)
    }

    /// Shared FAST-9 decision on the loaded circle: compass quick-reject, then
    /// the ≥ 9 contiguous arc test, then the SAD response.
    fn fast9_decide(brighter: &[bool; 16], darker: &[bool; 16], diffs: &[i32; 16]) -> Option<f32> {
        // Quick reject using the 4 compass points: a contiguous arc of 9 always
        // covers at least 2 of the 4 points spaced 4 apart.
        let compass = [0usize, 4, 8, 12];
        let nb = compass.iter().filter(|&&i| brighter[i]).count();
        let nd = compass.iter().filter(|&&i| darker[i]).count();
        if nb < 2 && nd < 2 {
            return None;
        }
        if longest_arc(brighter) >= 9 || longest_arc(darker) >= 9 {
            let response: i32 = diffs.iter().map(|d| d.abs()).sum();
            Some(response as f32)
        } else {
            None
        }
    }

    /// FAST-9 corner test: returns the response if ≥ 9 contiguous circle pixels
    /// are all brighter or all darker than center ± threshold. Reference
    /// implementation: loads the full 16-pixel circle through the clamping
    /// accessor before deciding.
    fn fast9_response(img: &GrayImage, x: u32, y: u32, threshold: u8) -> Option<f32> {
        let c = img.get(x, y) as i32;
        let t = threshold as i32;
        let mut brighter = [false; 16];
        let mut darker = [false; 16];
        let mut diffs = [0i32; 16];
        for (i, &(dx, dy)) in FAST_CIRCLE.iter().enumerate() {
            let v = img.get_clamped(x as i64 + dx, y as i64 + dy) as i32;
            diffs[i] = v - c;
            brighter[i] = v > c + t;
            darker[i] = v < c - t;
        }
        fast9_decide(&brighter, &darker, &diffs)
    }

    /// Intensity-centroid orientation in a circular patch of radius `r`.
    /// Reference implementation: scans the bounding square and skips pixels
    /// outside the disc, loading through the clamping accessor.
    fn orientation(img: &GrayImage, x: u32, y: u32, r: i64) -> f32 {
        let mut m01 = 0.0f64;
        let mut m10 = 0.0f64;
        for dy in -r..=r {
            for dx in -r..=r {
                if dx * dx + dy * dy > r * r {
                    continue;
                }
                let v = img.get_clamped(x as i64 + dx, y as i64 + dy) as f64;
                m10 += dx as f64 * v;
                m01 += dy as f64 * v;
            }
        }
        m01.atan2(m10) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders scattered bright squares on a dark background (square corners
    /// are strong FAST corners, unlike ideal checkerboard saddles whose
    /// contiguous arc is exactly 8 < 9).
    fn textured_image(w: u32, h: u32, phase: f64) -> GrayImage {
        let mut img = GrayImage::new(w, h);
        img.fill(30);
        let mut sx = 20i64;
        let mut sy = 20i64;
        let mut k = 0u32;
        while sy + 12 < h as i64 {
            let x0 = sx + phase.round() as i64;
            for yy in sy..sy + 10 {
                for xx in x0..x0 + 10 {
                    if xx >= 0 && yy >= 0 && (xx as u32) < w && (yy as u32) < h {
                        img.set(xx as u32, yy as u32, 200 + ((k * 13) % 50) as u8);
                    }
                }
            }
            sx += 28;
            k += 1;
            if sx + 12 >= w as i64 {
                sx = 20 + ((k % 3) as i64) * 6;
                sy += 26;
            }
        }
        img
    }

    #[test]
    fn detects_corners_of_squares() {
        let img = textured_image(128, 128, 0.0);
        let (kps, descs) = detect_orb(&img, &OrbConfig::default());
        assert!(!kps.is_empty(), "no features detected");
        assert_eq!(kps.len(), descs.len());
        // Every keypoint should sit near a square boundary: its local
        // sharpness must be well above the flat background's.
        for k in &kps {
            if k.level == 0 {
                assert!(
                    img.sharpness(k.x as u32, k.y as u32, 3) > 5.0,
                    "keypoint at ({:.0},{:.0}) in flat area",
                    k.x,
                    k.y
                );
            }
        }
    }

    #[test]
    fn no_features_on_flat_image() {
        let mut img = GrayImage::new(64, 64);
        img.fill(128);
        let (kps, _) = detect_orb(&img, &OrbConfig::default());
        assert!(kps.is_empty());
    }

    #[test]
    fn descriptor_distance_self_is_zero() {
        let img = textured_image(96, 96, 0.0);
        let (_, descs) = detect_orb(&img, &OrbConfig::default());
        assert!(descs[0].distance(&descs[0]) == 0);
    }

    #[test]
    fn descriptors_stable_under_small_shift() {
        // The same physical corner viewed with a small sub-checker shift
        // should produce similar descriptors at the matching location.
        let a = textured_image(128, 128, 0.0);
        let b = textured_image(128, 128, 2.0);
        let cfg = OrbConfig::default();
        let (ka, da) = detect_orb(&a, &cfg);
        let (kb, db) = detect_orb(&b, &cfg);
        // For each keypoint in a, find the spatially nearest in b and check
        // the descriptor distance beats a random pairing on average.
        let mut matched = 0;
        let mut total = 0;
        for (i, kp) in ka.iter().enumerate() {
            if kp.level != 0 {
                continue;
            }
            let mut best_j = None;
            let mut best_d2 = f64::INFINITY;
            for (j, kq) in kb.iter().enumerate() {
                if kq.level != 0 {
                    continue;
                }
                let d2 = (kp.x - (kq.x - 2.0)).powi(2) + (kp.y - kq.y).powi(2);
                if d2 < best_d2 {
                    best_d2 = d2;
                    best_j = Some(j);
                }
            }
            if let Some(j) = best_j {
                if best_d2 < 25.0 {
                    total += 1;
                    if da[i].distance(&db[j]) < 80 {
                        matched += 1;
                    }
                }
            }
        }
        assert!(total > 5, "too few co-located keypoints: {total}");
        assert!(
            matched * 10 >= total * 6,
            "only {matched}/{total} descriptors stable"
        );
    }

    #[test]
    fn fast_paths_off_detects_identically() {
        // The direct-indexing scan/orientation/BRIEF fast paths must be
        // bit-identical to the clamped reference detector — keypoints,
        // responses, angles and descriptor bits alike.
        for phase in [0.0, 1.0, 3.0] {
            let img = textured_image(160, 160, phase);
            let fast = detect_orb(&img, &OrbConfig::default());
            let slow = reference::detect_orb(&img, &OrbConfig::default());
            assert_eq!(fast, slow, "phase {phase}");
        }
    }

    #[test]
    fn simd_feature_absent_fallback_detects_identically() {
        // Pin the dispatcher to no-SIMD: every kernel (blur row, FAST
        // compass pre-test, BRIEF rotate/sample) must fall back to the
        // scalar fast paths with identical output — the portable behavior
        // on hosts without the CPU features.
        for phase in [0.0, 1.0, 3.0] {
            let img = textured_image(160, 160, phase);
            // Both arms hold the forcing lock, so a concurrent forced
            // section cannot turn the native arm scalar.
            let detect_with = |caps| {
                let _caps = crate::simd::force_caps(caps);
                detect_orb(&img, &OrbConfig::default())
            };
            let native = detect_with(crate::simd::detected_caps());
            let forced = detect_with(crate::simd::SimdCaps::SCALAR);
            assert!(!native.0.is_empty());
            assert_eq!(native, forced, "phase {phase}");
        }
    }

    #[test]
    fn fast_paths_identical_near_borders() {
        // Keypoints between the 16 px scan border and the 23 px BRIEF
        // margin exercise the clamped-sampler fallback; squares packed
        // against the border put winners in that band.
        let mut img = GrayImage::new(96, 96);
        img.fill(30);
        for &(sx, sy) in &[(17u32, 17u32), (70, 17), (17, 70), (70, 70), (44, 44)] {
            for yy in sy..sy + 9 {
                for xx in sx..sx + 9 {
                    img.set(xx, yy, 210);
                }
            }
        }
        let fast = detect_orb(&img, &OrbConfig::default());
        let slow = reference::detect_orb(&img, &OrbConfig::default());
        assert!(!fast.0.is_empty(), "border fixture detected nothing");
        assert_eq!(fast, slow);
    }

    #[test]
    fn max_features_is_respected() {
        let img = textured_image(256, 256, 0.0);
        let cfg = OrbConfig {
            max_features: 50,
            ..Default::default()
        };
        let (kps, descs) = detect_orb(&img, &cfg);
        assert!(kps.len() <= 50);
        assert_eq!(kps.len(), descs.len());
    }

    #[test]
    fn determinism() {
        let img = textured_image(128, 128, 0.0);
        let cfg = OrbConfig::default();
        let (k1, d1) = detect_orb(&img, &cfg);
        let (k2, d2) = detect_orb(&img, &cfg);
        assert_eq!(k1.len(), k2.len());
        assert_eq!(d1, d2);
        assert_eq!(k1, k2);
    }

    #[test]
    fn parallel_bit_identical_to_serial_across_seeds() {
        // Satellite: every parallelized path must be bit-identical to the
        // one-thread run, across several distinct inputs.
        let cfg = OrbConfig::default();
        for phase in [0.0, 1.0, 3.0] {
            let img = textured_image(160, 160, phase);
            edgeis_conformance::assert_parallel_matches_serial(
                &format!("imaging::detect_orb phase {phase}"),
                &[2, 4, 8],
                || detect_orb(&img, &cfg),
            );
        }
    }

    #[test]
    fn scratch_reuse_is_transparent() {
        // The same scratch carried across frames of different content (and
        // the pyramid buffers it retains) must not leak state into results.
        let cfg = OrbConfig::default();
        let mut scratch = OrbScratch::default();
        for phase in [2.0, 0.0, 5.0] {
            let img = textured_image(144, 144, phase);
            let reused = detect_orb_with_scratch(&img, &cfg, &mut scratch);
            let fresh = detect_orb(&img, &cfg);
            assert_eq!(reused, fresh);
        }
        assert!(scratch.peak_bytes() > 0);
    }

    #[test]
    fn capped_distance_exact_below_cap() {
        let img = textured_image(96, 96, 0.0);
        let (_, descs) = detect_orb(&img, &OrbConfig::default());
        for a in descs.iter().take(8) {
            for b in descs.iter().take(8) {
                let full = a.distance(b);
                assert_eq!(a.distance_capped(b, u32::MAX), full);
                assert_eq!(a.distance_capped(b, full + 1), full);
                assert!(a.distance_capped(b, full / 2) >= full / 2);
            }
        }
    }

    #[test]
    fn circular_run9_matches_longest_arc_exhaustively() {
        // Exhaustive proof over all 2^16 masks that the shift-AND arc test
        // agrees with the reference longest-run loop.
        for mask in 0u32..=0xFFFF {
            let mut flags = [false; 16];
            for (i, f) in flags.iter_mut().enumerate() {
                *f = (mask >> i) & 1 == 1;
            }
            assert_eq!(
                has_circular_run9(mask as u16),
                reference::longest_arc(&flags) >= 9,
                "mask {mask:04x}"
            );
        }
    }

    #[test]
    fn fast_circle_has_16_unique_offsets() {
        let mut set = std::collections::HashSet::new();
        for p in FAST_CIRCLE {
            assert!(set.insert(p));
            let r2 = p.0 * p.0 + p.1 * p.1;
            assert!(
                (8..=10).contains(&r2),
                "offset {p:?} not on radius-3 circle"
            );
        }
        assert_eq!(set.len(), 16);
    }
}
