//! ORB features: FAST-9 corners with non-maximum suppression, intensity-
//! centroid orientation and rotated BRIEF descriptors over an image pyramid.
//!
//! The paper uses ORB "for its efficiency in computing and robustness
//! against the change of viewpoints" (§III-A); this is a from-scratch
//! implementation with the same structure.

use crate::image::GrayImage;

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

/// FAST's scan border: keypoints are detected only at least this many
/// pixels from every edge of their pyramid level. It holds the FAST
/// circle (3 px), the orientation disc (7 px) and every BRIEF footprint
/// ([`BriefPattern::from_pairs`] keeps each point less than this far
/// from its keypoint), so none of them reads past a level edge.
pub const FAST_BORDER: u32 = 16;

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
/// to the reference path. It is the scalar twin of
/// [`crate::simd::fast9_corner_mask`], lane by lane.
pub(crate) fn fast9_response_fast(
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
    for i in 0..16 {
        let v = at(i);
        bright_mask |= ((v > c + t) as u16) << i;
        dark_mask |= ((v < c - t) as u16) << i;
    }
    (has_circular_run9(bright_mask) || has_circular_run9(dark_mask))
        .then(|| fast9_response_at(data, center, offsets))
}

/// The FAST response of a corner: the sum of |v − c| over its 16 circle
/// pixels, as the reference's `diffs` sum.
fn fast9_response_at(data: &[u8], center: usize, offsets: &[isize; 16]) -> f32 {
    let c = data[center] as i32;
    let sad: i32 = offsets
        .iter()
        .map(|&o| (data[(center as isize + o) as usize] as i32 - c).abs())
        .sum();
    sad as f32
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

/// Half-width of each row `dy = −7 ..= 7` of the radius-7 orientation
/// disc: the largest `|dx|` with `dx² + dy² ≤ 7²`, the pixels the
/// reference loop keeps after its in-disc test.
const DISC_EXTENT: [i16; 15] = [0, 3, 4, 5, 6, 6, 6, 7, 6, 6, 6, 5, 4, 3, 0];

/// Per disc row `dy`, the weights of the 16 lanes `x − 7 ..= x + 8`:
/// `dx` and `dy` for the pixels inside the row's extent, 0 elsewhere
/// (lane 15 is always outside; it holds no pixel).
const DISC_WEIGHTS: [[[i16; 16]; 2]; 15] = {
    let mut weights = [[[0; 16]; 2]; 15];
    let mut row = 0;
    while row < 15 {
        let dy = row as i16 - 7;
        let mut lane = 0;
        while lane < 15 {
            let dx = lane as i16 - 7;
            if dx.abs() <= DISC_EXTENT[row] {
                weights[row][0][lane] = dx;
                weights[row][1][lane] = dy;
            }
            lane += 1;
        }
        row += 1;
    }
    weights
};

/// Intensity-centroid orientation in the radius-7 disc, for keypoints at
/// least 7 pixels from every border (guaranteed by the scan border,
/// 16 ≥ 7): each row's 15 pixels are loaded whole and weighted by
/// [`DISC_WEIGHTS`], so only the pixels the reference loop keeps count.
/// The moments accumulate per lane in `i16` over the 15 rows and are
/// summed once: a lane's `m10` part is at most 7 · 15 · 255 = 26,775 and
/// its `m01` part at most (1 + … + 7) · 2 · 255 = 14,280 in magnitude.
///
/// The angle is bit-identical to the reference's f64 accumulation: every
/// term `dx·v`, `dy·v` is an integer with magnitude ≤ 7·255 = 1785 and
/// every partial sum stays far below 2⁵³, so each f64 add is exact and
/// the reference's sums are these integers (in any grouping, hence the
/// lane sums here). Its accumulators start at +0.0 and a sum that is
/// exactly zero rounds to +0.0, so a zero moment is +0.0 on both paths,
/// which is what `atan2` sees.
fn orientation_fast(img: &GrayImage, x: u32, y: u32) -> f32 {
    let data = img.as_bytes();
    let w = img.width() as usize;
    let mut moments = [[0i16; 16]; 2];
    for (dy, weights) in (-7i32..=7).zip(&DISC_WEIGHTS) {
        let start = (y as i32 + dy) as usize * w + x as usize - 7;
        let mut row = [0u8; 16];
        row[..15].copy_from_slice(&data[start..start + 15]);
        for (moment, weight) in moments.iter_mut().zip(weights) {
            for lane in 0..16 {
                moment[lane] += weight[lane] * row[lane] as i16;
            }
        }
    }
    let [m10, m01] = moments.map(|m| m.iter().map(|&v| v as i32).sum::<i32>());
    (m01 as f64).atan2(m10 as f64) as f32
}

use crate::simd::BriefPattern;

/// The shipped rotated-BRIEF descriptor of the keypoint at level pixel
/// `(x, y)`, read from the level in place: FAST's scan border keeps every
/// footprint inside it ([`BriefPattern`]), so the bits equal the clamped
/// oracle [`reference::brief_descriptor`]'s.
fn brief_descriptor(
    img: &GrayImage,
    (x, y): (u32, u32),
    angle: f32,
    pattern: &BriefPattern,
) -> Descriptor {
    let w = img.width() as usize;
    let mut bits = crate::simd::brief_bits(img.as_bytes(), w, (x, y), angle, pattern);
    // The conformance canary corrupts every shipped descriptor, so a
    // silently diverged kernel is provably caught.
    if crate::test_hooks::brief_fast_corruption_enabled() {
        bits[0] ^= 1;
    }
    Descriptor(bits)
}

/// Reusable buffers for [`detect_orb_with_scratch`]: the BRIEF pattern,
/// the per-level NMS suppression plane (sized once for level 0, shared by
/// the smaller levels), the FAST candidate/winner lists, the pyramid
/// level images, the blur's column sums and the selection order. Holding
/// one of these per tracker removes every per-frame allocation from the
/// detector's steady state.
#[derive(Debug, Clone)]
pub struct OrbScratch {
    pattern: Box<BriefPattern>,
    suppressed: Vec<bool>,
    candidates: Vec<(u32, u32, f32)>,
    winners: Vec<(u32, u32, f32, u8)>,
    selected: Vec<(u32, u32, f32, u8)>,
    levels: Vec<GrayImage>,
    colsum: Vec<u16>,
    order: Vec<usize>,
}

impl Default for OrbScratch {
    fn default() -> Self {
        Self {
            pattern: Box::new(BriefPattern::from_pairs(&reference::brief_pattern())),
            suppressed: Vec::new(),
            candidates: Vec::new(),
            winners: Vec::new(),
            selected: Vec::new(),
            levels: Vec::new(),
            colsum: Vec::new(),
            order: Vec::new(),
        }
    }
}

impl OrbScratch {
    /// Peak scratch footprint in bytes (an allocation proxy for the perf
    /// harness; counts buffer capacities, not live lengths).
    pub fn peak_bytes(&self) -> usize {
        self.suppressed.capacity()
            + self.candidates.capacity() * std::mem::size_of::<(u32, u32, f32)>()
            + (self.winners.capacity() + self.selected.capacity())
                * std::mem::size_of::<(u32, u32, f32, u8)>()
            + std::mem::size_of::<BriefPattern>()
            + self.colsum.capacity() * std::mem::size_of::<u16>()
            + self.order.capacity() * std::mem::size_of::<usize>()
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
/// Results are deterministic for a given image and configuration.
pub fn detect_orb(img: &GrayImage, config: &OrbConfig) -> (Vec<Keypoint>, Vec<Descriptor>) {
    detect_orb_with_scratch(img, config, &mut OrbScratch::default())
}

/// [`detect_orb`] with caller-owned scratch buffers, reused across frames.
///
/// Each SIMD kernel (blur row, FAST-9 segment test, BRIEF) runs when its
/// CPU feature is present and falls back to its scalar twin otherwise;
/// [`crate::simd::force_caps`] pins the fallback. Every combination is
/// bit-identical to the clamped [`reference`](mod@reference) detector (test-enforced).
pub fn detect_orb_with_scratch(
    img: &GrayImage,
    config: &OrbConfig,
    scratch: &mut OrbScratch,
) -> (Vec<Keypoint>, Vec<Descriptor>) {
    let n_levels = (config.n_levels as usize).max(1);
    while scratch.levels.len() < n_levels {
        scratch.levels.push(GrayImage::new(1, 1));
    }
    img.box_blur3_simd_into(&mut scratch.levels[0], &mut scratch.colsum);
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
        let border = FAST_BORDER;

        // FAST-9 scan, y-then-x: candidates are pushed in scan order.
        scratch.candidates.clear();
        {
            let data = scratch.levels[level as usize].as_bytes();
            let threshold = config.fast_threshold;
            // Circle pixel positions as linear offsets into this level's
            // row-major buffer, for the direct-indexing scan.
            let circle_offsets: [isize; 16] =
                FAST_CIRCLE.map(|(dx, dy)| (dy * width as i64 + dx) as isize);
            let end = (width - border) as usize;
            for y in border..height - border {
                let row = y as usize * width as usize;
                let mut x = border as usize;
                // 16 scan positions at a time: the segment test kernel
                // finds exactly the pixels the per-pixel test accepts,
                // and their responses are pushed in ascending-x order, so
                // the candidate stream is identical.
                while x + 16 <= end {
                    let mut corners =
                        crate::simd::fast9_corner_mask(data, row + x, &circle_offsets, threshold);
                    while corners != 0 {
                        let k = corners.trailing_zeros() as usize;
                        corners &= corners - 1;
                        let resp = fast9_response_at(data, row + x + k, &circle_offsets);
                        scratch.candidates.push(((x + k) as u32, y, resp));
                    }
                    x += 16;
                }
                for x in x..end {
                    if let Some(resp) =
                        fast9_response_fast(data, row + x, threshold as i32, &circle_offsets)
                    {
                        scratch.candidates.push((x as u32, y, resp));
                    }
                }
            }
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
    // descriptor (by the bits of the non-negative responses, as in NMS) —
    // hoisting it before the descriptor pass only skips work for
    // keypoints that were going to be dropped anyway.
    scratch.selected.clear();
    if scratch.winners.len() > config.max_features {
        let order = &mut scratch.order;
        order.clear();
        order.extend(0..scratch.winners.len());
        order.sort_by_key(|&i| std::cmp::Reverse(scratch.winners[i].2.to_bits()));
        order.truncate(config.max_features);
        order.sort_unstable();
        scratch
            .selected
            .extend(order.iter().map(|&i| scratch.winners[i]));
    } else {
        scratch.selected.extend_from_slice(&scratch.winners);
    }

    // Pass 2: orientation + descriptor per selected keypoint.
    let pattern = &scratch.pattern;
    let mut keypoints = Vec::with_capacity(scratch.selected.len());
    let mut descriptors = Vec::with_capacity(scratch.selected.len());
    for &(x, y, resp, level) in &scratch.selected {
        let level_ref = &scratch.levels[level as usize];
        let angle = orientation_fast(level_ref, x, y);
        let desc = brief_descriptor(level_ref, (x, y), angle, pattern);
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
/// the square of half-width `radius` around each winner and append it to
/// `winners`. Inherently sequential (each winner changes the suppression
/// state seen by later candidates); the stable sort keeps scan order
/// among equal responses. Responses are non-negative integers held in an
/// `f32`, so their bit patterns sort as their values do. The square is
/// one clamped row slice per row, the pixels the reference's
/// bounds-checked writes set. `suppressed` is the level's `width ×
/// height` plane.
fn suppress_non_maxima(
    candidates: &mut [(u32, u32, f32)],
    suppressed: &mut [bool],
    (width, height): (u32, u32),
    radius: u32,
    level: u8,
    winners: &mut Vec<(u32, u32, f32, u8)>,
) {
    candidates.sort_by_key(|c| std::cmp::Reverse(c.2.to_bits()));
    suppressed.fill(false);
    let (w, h, r) = (width as usize, height as usize, radius as usize);
    for &(x, y, resp) in candidates.iter() {
        let (cx, cy) = (x as usize, y as usize);
        if suppressed[cy * w + cx] {
            continue;
        }
        let (x0, x1) = (cx.saturating_sub(r), (cx + r).min(w - 1));
        for ny in cy.saturating_sub(r)..=(cy + r).min(h - 1) {
            suppressed[ny * w + x0..=ny * w + x1].fill(true);
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
    use super::{Descriptor, GrayImage, Keypoint, OrbConfig, FAST_BORDER, FAST_CIRCLE};
    use edgeis_rng::StdRng;

    pub use crate::simd::BriefPair;

    /// The 256 BRIEF sampling pairs, generated once from a fixed seed
    /// inside a 31×31 patch (σ = 5 Gaussian-ish via clamped normal draws).
    /// The shipped detector transposes them into a
    /// [`crate::simd::BriefPattern`].
    pub fn brief_pattern() -> Vec<BriefPair> {
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

    /// The pyramid the reference detects on: the nine-load blur of `img`,
    /// then `n_levels − 1` clamped 2×2 downsamples.
    pub fn pyramid(img: &GrayImage, n_levels: u8) -> Vec<GrayImage> {
        let mut levels = vec![img.box_blur3()];
        for _ in 1..n_levels {
            let next = levels[levels.len() - 1].downsample_half();
            levels.push(next);
        }
        levels
    }

    /// The clamped oracle descriptor of each of `keypoints` (as
    /// [`super::detect_orb`] returned them for `img` under `config`):
    /// [`brief_descriptor`] on the keypoint's [`pyramid`] level, at its
    /// level coordinates and angle. Shipped descriptors must equal these
    /// one for one.
    pub fn descriptors_at(
        img: &GrayImage,
        config: &OrbConfig,
        keypoints: &[Keypoint],
    ) -> Vec<Descriptor> {
        let pattern = brief_pattern();
        let levels = pyramid(img, config.n_levels);
        keypoints
            .iter()
            .map(|kp| {
                let scale = (1u64 << kp.level) as f64;
                let level = &levels[kp.level as usize];
                brief_descriptor(level, kp.x / scale, kp.y / scale, kp.angle, &pattern)
            })
            .collect()
    }

    /// The rotated BRIEF descriptor at `(x, y)` of the level image where
    /// the keypoint was detected, sampled through the clamping
    /// `GrayImage::sample_bilinear`.
    pub fn brief_descriptor(
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

    /// [`super::detect_orb`] in its original shape, serial: nine-load
    /// clamped blur and 2×2 clamped downsample, a FAST-9 scan that loads
    /// the whole clamped circle at every pixel, bounding-square
    /// orientation, clamped BRIEF sampling for every NMS winner, and the
    /// `max_features` selection applied after the descriptors.
    pub fn detect_orb(img: &GrayImage, config: &OrbConfig) -> (Vec<Keypoint>, Vec<Descriptor>) {
        let pattern = brief_pattern();
        let mut keypoints = Vec::new();
        let mut descriptors = Vec::new();
        let mut scale = 1.0f64;
        for (level, level_img) in (0..config.n_levels).zip(pyramid(img, config.n_levels)) {
            let (width, height) = (level_img.width(), level_img.height());
            if width < 32 || height < 32 {
                break;
            }
            let border = FAST_BORDER;
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

    /// Greedy NMS in its original shape, the oracle of the shipped
    /// `suppress_non_maxima`: a stable float sort by response (strongest
    /// first, scan order among ties), then a bounds check on every pixel
    /// of the square around each winner. `suppressed` is the level's
    /// `width × height` plane.
    pub fn suppress_non_maxima(
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
    pub(super) fn orientation(img: &GrayImage, x: u32, y: u32, r: i64) -> f32 {
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
        // segment test, BRIEF rotate/sample) must fall back to the
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
        // Squares packed against the 16 px scan border put winners on
        // and near it, where the widest BRIEF points sample the level's
        // edge pixels.
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
    fn orientation_fast_matches_reference_bits() {
        // A 15×15 image is the radius-7 disc's bounding square around
        // (7, 7). Random patches, plus one-hot patches and patches whose
        // moments are zero on one or both axes (all-0, all-255, mirror-
        // symmetric), so atan2 sees signed zeros.
        let mut s = 0x0_5eedu64;
        let mut rand = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as u8
        };
        let mut patches = vec![vec![0u8; 225], vec![255u8; 225]];
        for i in 0..225 {
            let mut p = vec![0u8; 225];
            p[i] = 255;
            patches.push(p);
        }
        for case in 0..300 {
            let p: Vec<u8> = (0..225).map(|_| rand()).collect();
            let mirrored: Vec<u8> = (0..225)
                .map(|i| {
                    let (x, y) = (i % 15, i / 15);
                    let mx = if case % 3 != 1 { x.min(14 - x) } else { x };
                    let my = if case % 3 != 0 { y.min(14 - y) } else { y };
                    p[my * 15 + mx]
                })
                .collect();
            patches.push(p);
            patches.push(mirrored);
        }
        for (k, p) in patches.into_iter().enumerate() {
            let img = GrayImage::from_raw(15, 15, p);
            assert_eq!(
                orientation_fast(&img, 7, 7).to_bits(),
                reference::orientation(&img, 7, 7, 7).to_bits(),
                "patch {k}"
            );
        }
    }

    #[test]
    fn border_band_matches_clamped_oracle_at_full_reach() {
        // The shipped pattern's farthest point is 15.88 px from the
        // keypoint. These pairs sit on the 15.99 px circle, the farthest
        // a pattern may reach: from a keypoint on FAST's 16 px border
        // they sample the level's first and last columns and rows on
        // every angle. Keypoints 16–23 px from each border, both
        // dispatch arms.
        let point = |t: f64| (15.99 * t.cos(), 15.99 * t.sin());
        let pairs: Vec<reference::BriefPair> = (0..256)
            .map(|i| (point(i as f64 * 0.37), point(i as f64 * 1.91 + 2.0)))
            .collect();
        let pattern = BriefPattern::from_pairs(&pairs);
        let mut state = 0x2545_f491u64;
        let noise = (0..64 * 56)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let img = GrayImage::from_raw(64, 56, noise);
        let band = |n: u32| (16..=23).chain(n - 24..=n - 17);
        for caps in [crate::simd::detected_caps(), crate::simd::SimdCaps::SCALAR] {
            let _caps = crate::simd::force_caps(caps);
            for y in band(56) {
                for x in band(64) {
                    for step in 0..12 {
                        let angle = step as f32 * 0.55 - 3.1;
                        assert_eq!(
                            brief_descriptor(&img, (x, y), angle, &pattern),
                            reference::brief_descriptor(&img, x as f64, y as f64, angle, &pairs),
                            "{caps:?} ({x}, {y}) angle {angle}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "reaches FAST's 16 px border")]
    fn brief_pattern_reaching_the_border_is_refused() {
        let mut pairs = reference::brief_pattern();
        pairs[100].1 = (0.0, f64::from(FAST_BORDER));
        BriefPattern::from_pairs(&pairs);
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
    fn scratch_reuse_is_transparent() {
        // The same scratch carried across frames of different content and
        // size (the pyramid, column-sum and selection-order buffers it
        // retains must be resized, not reused at a stale length) must not
        // leak state into results. The capped config makes every frame
        // run the max_features selection.
        let capped = OrbConfig {
            max_features: 24,
            ..Default::default()
        };
        let mut scratch = OrbScratch::default();
        for cfg in [OrbConfig::default(), capped] {
            for (size, phase) in [(144, 2.0), (144, 0.0), (200, 5.0), (96, 1.0), (145, 3.0)] {
                let img = textured_image(size, size, phase);
                let reused = detect_orb_with_scratch(&img, &cfg, &mut scratch);
                let fresh = detect_orb(&img, &cfg);
                assert_eq!(reused, fresh, "{size}x{size} phase {phase}");
            }
        }
        assert!(scratch.peak_bytes() > 0);
    }

    #[test]
    fn capped_selection_matches_reference_on_ties() {
        // Squares of a few contrasts give many corners with equal
        // responses; cutting the ranking at every length up to 80 cuts
        // through tie groups, where scan order decides who stays.
        let img = textured_image(160, 160, 1.0);
        for max_features in 1..=80 {
            let cfg = OrbConfig {
                max_features,
                ..Default::default()
            };
            assert_eq!(
                detect_orb(&img, &cfg),
                reference::detect_orb(&img, &cfg),
                "max_features {max_features}"
            );
        }
    }

    type Nms =
        fn(&mut [(u32, u32, f32)], &mut [bool], (u32, u32), u32, u8, &mut Vec<(u32, u32, f32, u8)>);

    #[test]
    fn nms_matches_reference_on_ties_and_level_edges() {
        // Small levels packed with candidates whose responses take four
        // values, so most suppression contests are ties that scan order
        // decides, and many winners lie within the radius of an edge,
        // where the suppressed square is clamped.
        let (mut ties, mut near_edge) = (0usize, 0usize);
        edgeis_rng::for_each_case(|rng| {
            let (w, h) = (rng.random_range(9u32..48), rng.random_range(9u32..40));
            let radius = [4, 4, 0, 1, 3, 6][rng.random_range(0..6usize)];
            let amount = rng.random_range(0..=(w * h / 3) as usize);
            let mut picked = edgeis_rng::index::sample(rng, (w * h) as usize, amount);
            picked.sort_unstable();
            let candidates: Vec<(u32, u32, f32)> = picked
                .iter()
                .map(|&i| {
                    let resp = rng.random_range(0u32..4) as f32 * 10.0;
                    (i as u32 % w, i as u32 / w, resp)
                })
                .collect();
            let run = |nms: Nms| {
                let mut c = candidates.clone();
                let mut suppressed = vec![true; (w * h) as usize];
                let mut winners = Vec::new();
                nms(&mut c, &mut suppressed, (w, h), radius, 1, &mut winners);
                winners
            };
            let winners = run(suppress_non_maxima);
            assert_eq!(
                winners,
                run(reference::suppress_non_maxima),
                "{w}x{h} r {radius}"
            );
            let distinct: std::collections::BTreeSet<u32> =
                winners.iter().map(|c| c.2.to_bits()).collect();
            ties += winners.len() - distinct.len();
            let r = radius;
            near_edge += winners
                .iter()
                .filter(|&&(x, y, ..)| x < r || y < r || x + r >= w || y + r >= h)
                .count();
        });
        assert!(
            ties > 0 && near_edge > 0,
            "ties {ties}, near an edge {near_edge}"
        );
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
