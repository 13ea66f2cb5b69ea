//! Explicit SIMD hot-path kernels (x86_64 `core::arch` intrinsics with
//! runtime feature detection) for the three detector inner loops: the
//! pyramid box blur's column-sum row kernel, the FAST compass pre-test and
//! the rotated-BRIEF descriptor (rotate, bilinear sample, compare). (The
//! Hamming matcher stays scalar: four hardware `popcnt`s per pair beat
//! AVX2 and AVX-512 popcount scans, DESIGN.md §14.)
//!
//! Every kernel here is **bit-identical** to its scalar counterpart, by
//! construction rather than by tolerance:
//!
//! - *Blur*: the 3-row column sums fit `u16` (≤ 765) and the 3-column
//!   window sums fit ≤ 2295, for which `mulhi_epu16(n, 7282)` is exactly
//!   `n / 9` (proved by the exhaustive test below): writing `n = 9q + r`,
//!   `n·7282 = q·2¹⁶ + 2q + 7282r ≤ q·2¹⁶ + 510 + 58256 < (q+1)·2¹⁶`.
//! - *FAST*: the 16-lane compass pre-test evaluates the same predicate as
//!   the scalar reject (`v > c+t` ⟺ `subs_epu8(v, adds_epu8(c,t)) > 0`
//!   and `v < c−t` ⟺ `subs_epu8(subs_epu8(c,t), v) > 0`, saturation
//!   corners included), and survivors run the unchanged scalar decision.
//! - *BRIEF*: lanewise f64 mul/add/sub and `floor_pd` perform the same
//!   individually-rounded IEEE operations as the scalar twin and the
//!   clamped oracle, in the same per-element order, so every
//!   intermediate bit matches; the gathers read the same four bytes.
//!
//! Dispatch is per-call-site on [`caps`] (detected once, cacheable,
//! overridable from tests via [`force_caps`] to exercise the
//! feature-absent fallbacks on any host). On non-x86_64 targets every
//! entry point reports unavailable and callers keep the scalar paths.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Which instruction-set extensions the dispatcher may use. SSE2 is part
/// of the x86_64 baseline, so `blur`/`fast` only need the architecture;
/// `avx2` gates the wider blur rows and the BRIEF kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdCaps {
    /// x86_64 baseline lanes (SSE2) usable at all.
    pub x86_baseline: bool,
    /// AVX2 for the 256-bit blur rows and the BRIEF gathers.
    pub avx2: bool,
}

impl SimdCaps {
    /// No SIMD at all — the forced-scalar fallback configuration.
    pub const SCALAR: SimdCaps = SimdCaps {
        x86_baseline: false,
        avx2: false,
    };
}

// Bit layout of the cached capability byte: bit7 = initialized, bit6 =
// forced override active, bits 0..=1 mirror the SimdCaps fields.
const CAP_INIT: u8 = 0x80;
const CAP_FORCED: u8 = 0x40;
const CAP_BASE: u8 = 0x01;
const CAP_AVX2: u8 = 0x02;

static CAPS: AtomicU8 = AtomicU8::new(0);

fn encode(caps: SimdCaps) -> u8 {
    (caps.x86_baseline as u8 * CAP_BASE) | (caps.avx2 as u8 * CAP_AVX2)
}

fn decode(bits: u8) -> SimdCaps {
    SimdCaps {
        x86_baseline: bits & CAP_BASE != 0,
        avx2: bits & CAP_AVX2 != 0,
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdCaps {
    SimdCaps {
        x86_baseline: true,
        avx2: is_x86_feature_detected!("avx2"),
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> SimdCaps {
    SimdCaps::SCALAR
}

/// The capability set the dispatcher is currently honoring: the detected
/// CPU features, unless a test override is active.
pub fn caps() -> SimdCaps {
    let bits = CAPS.load(Ordering::Relaxed);
    if bits & CAP_INIT != 0 {
        return decode(bits);
    }
    let detected = detect();
    // Racing initializers write the same value; a concurrent force_caps
    // wins via compare_exchange.
    let _ = CAPS.compare_exchange(
        0,
        CAP_INIT | encode(detected),
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    decode(CAPS.load(Ordering::Relaxed))
}

/// The capability set this CPU has, whatever override is active: pin it
/// with [`force_caps`] to run a "native" arm that a concurrent forced
/// section cannot degrade.
pub fn detected_caps() -> SimdCaps {
    detect()
}

/// Serializes every [`force_caps`] section in the process.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// Holds the dispatcher pinned by [`force_caps`]; dropping it restores
/// detection and releases the process-wide lock.
#[doc(hidden)]
#[must_use = "the capability override ends when the guard drops"]
pub struct CapsGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for CapsGuard {
    fn drop(&mut self) {
        CAPS.store(0, Ordering::SeqCst);
    }
}

/// Test hook: pin the dispatcher to `caps` (e.g. [`SimdCaps::SCALAR`] to
/// prove the feature-absent fallback is bit-identical on a host that
/// *does* have the features) until the returned guard drops. The guard
/// holds one process-wide lock, so concurrent forced sections serialize
/// instead of resetting each other; a thread must not nest them.
#[doc(hidden)]
pub fn force_caps(caps: SimdCaps) -> CapsGuard {
    // The lock guards no data, and a holder that panicked restored
    // detection in its guard's drop, so a poisoned lock is safe to take.
    let lock = FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    CAPS.store(CAP_INIT | CAP_FORCED | encode(caps), Ordering::SeqCst);
    CapsGuard { _lock: lock }
}

/// Magic multiplier for the exact SIMD division by 9: for every
/// `n ≤ 2295`, `(n * 7282) >> 16 == n / 9` (see module docs for the
/// proof; `blur_magic_div9_exhaustive` checks all values).
pub const DIV9_MAGIC: u16 = 7282;

// ---------------------------------------------------------------------
// Box blur row kernel.
// ---------------------------------------------------------------------

/// Whether [`blur_row`] has a vector implementation on this host.
pub fn blur_available() -> bool {
    caps().x86_baseline
}

/// One output row of the 3×3 column-sum box blur: `colsum[x] = ra[x] +
/// rb[x] + rc[x]`, then `out[x] = (colsum[x-1] + colsum[x] +
/// colsum[x+1]) / 9` with the borders mirrored — byte-for-byte the row
/// body of `GrayImage::box_blur3_fast_into`, vectorized. `colsum` is
/// caller-provided scratch of at least `out.len()` u16s.
///
/// # Panics
///
/// Panics if the rows disagree in length or `colsum` is too short.
pub fn blur_row(ra: &[u8], rb: &[u8], rc: &[u8], colsum: &mut [u16], out: &mut [u8]) {
    let w = out.len();
    assert!(
        ra.len() == w && rb.len() == w && rc.len() == w,
        "row length"
    );
    let colsum = &mut colsum[..w];
    #[cfg(target_arch = "x86_64")]
    {
        if caps().avx2 {
            // SAFETY: avx2 was runtime-detected just above.
            unsafe { blur_row_avx2(ra, rb, rc, colsum, out) };
            return;
        }
        if caps().x86_baseline {
            blur_row_sse2(ra, rb, rc, colsum, out);
            return;
        }
    }
    blur_row_scalar(ra, rb, rc, colsum, out);
}

/// Scalar reference for [`blur_row`] (and the non-x86_64 fallback):
/// exactly the `box_blur3_fast_into` row body with u16 column sums.
fn blur_row_scalar(ra: &[u8], rb: &[u8], rc: &[u8], colsum: &mut [u16], out: &mut [u8]) {
    let w = out.len();
    for (s, ((a, b), c)) in colsum
        .iter_mut()
        .zip(ra.iter().zip(rb.iter()).zip(rc.iter()))
    {
        *s = *a as u16 + *b as u16 + *c as u16;
    }
    out[0] = ((colsum[0] as u32 + colsum[0] as u32 + colsum[1.min(w - 1)] as u32) / 9) as u8;
    for (x, win) in colsum.windows(3).enumerate() {
        out[x + 1] = ((win[0] as u32 + win[1] as u32 + win[2] as u32) / 9) as u8;
    }
    if w > 1 {
        out[w - 1] =
            ((colsum[w - 2] as u32 + colsum[w - 1] as u32 + colsum[w - 1] as u32) / 9) as u8;
    }
}

#[cfg(target_arch = "x86_64")]
fn blur_row_sse2(ra: &[u8], rb: &[u8], rc: &[u8], colsum: &mut [u16], out: &mut [u8]) {
    use core::arch::x86_64::*;
    let w = out.len();
    // Phase 1: widen three u8 rows to u16 and add. 16 pixels per step.
    let mut x = 0usize;
    // SAFETY: SSE2 is part of the x86_64 baseline; all loads/stores stay
    // inside the length-checked slices (x + 16 <= w).
    unsafe {
        let zero = _mm_setzero_si128();
        while x + 16 <= w {
            let a = _mm_loadu_si128(ra.as_ptr().add(x) as *const __m128i);
            let b = _mm_loadu_si128(rb.as_ptr().add(x) as *const __m128i);
            let c = _mm_loadu_si128(rc.as_ptr().add(x) as *const __m128i);
            let lo = _mm_add_epi16(
                _mm_add_epi16(_mm_unpacklo_epi8(a, zero), _mm_unpacklo_epi8(b, zero)),
                _mm_unpacklo_epi8(c, zero),
            );
            let hi = _mm_add_epi16(
                _mm_add_epi16(_mm_unpackhi_epi8(a, zero), _mm_unpackhi_epi8(b, zero)),
                _mm_unpackhi_epi8(c, zero),
            );
            _mm_storeu_si128(colsum.as_mut_ptr().add(x) as *mut __m128i, lo);
            _mm_storeu_si128(colsum.as_mut_ptr().add(x + 8) as *mut __m128i, hi);
            x += 16;
        }
    }
    for i in x..w {
        colsum[i] = ra[i] as u16 + rb[i] as u16 + rc[i] as u16;
    }
    // Phase 2: 3-tap window + exact /9. Borders scalar, identical math.
    out[0] = ((colsum[0] as u32 + colsum[0] as u32 + colsum[1.min(w - 1)] as u32) / 9) as u8;
    let mut x = 1usize;
    // SAFETY: loads read colsum[x-1 .. x+9] with x + 8 <= w - 1, all in
    // bounds; the window sums are ≤ 2295 so mulhi by DIV9_MAGIC is the
    // exact quotient (module docs) and fits u8 after division (≤ 255).
    unsafe {
        let magic = _mm_set1_epi16(DIV9_MAGIC as i16);
        while x + 8 <= w.saturating_sub(1) {
            let l = _mm_loadu_si128(colsum.as_ptr().add(x - 1) as *const __m128i);
            let m = _mm_loadu_si128(colsum.as_ptr().add(x) as *const __m128i);
            let r = _mm_loadu_si128(colsum.as_ptr().add(x + 1) as *const __m128i);
            let s = _mm_add_epi16(_mm_add_epi16(l, m), r);
            let q = _mm_mulhi_epu16(s, magic);
            let packed = _mm_packus_epi16(q, q);
            _mm_storel_epi64(out.as_mut_ptr().add(x) as *mut __m128i, packed);
            x += 8;
        }
    }
    while x + 1 < w {
        out[x] = ((colsum[x - 1] as u32 + colsum[x] as u32 + colsum[x + 1] as u32) / 9) as u8;
        x += 1;
    }
    if w > 1 {
        out[w - 1] =
            ((colsum[w - 2] as u32 + colsum[w - 1] as u32 + colsum[w - 1] as u32) / 9) as u8;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn blur_row_avx2(ra: &[u8], rb: &[u8], rc: &[u8], colsum: &mut [u16], out: &mut [u8]) {
    use core::arch::x86_64::*;
    let w = out.len();
    // Phase 1: cvtepu8 keeps lane order, so stores are contiguous.
    let mut x = 0usize;
    while x + 16 <= w {
        let a = _mm256_cvtepu8_epi16(_mm_loadu_si128(ra.as_ptr().add(x) as *const __m128i));
        let b = _mm256_cvtepu8_epi16(_mm_loadu_si128(rb.as_ptr().add(x) as *const __m128i));
        let c = _mm256_cvtepu8_epi16(_mm_loadu_si128(rc.as_ptr().add(x) as *const __m128i));
        let s = _mm256_add_epi16(_mm256_add_epi16(a, b), c);
        _mm256_storeu_si256(colsum.as_mut_ptr().add(x) as *mut __m256i, s);
        x += 16;
    }
    for i in x..w {
        colsum[i] = ra[i] as u16 + rb[i] as u16 + rc[i] as u16;
    }
    // Phase 2: 16 output pixels per step; packus interleaves 128-bit
    // lanes, fixed by the 4x64 permute before the store.
    out[0] = ((colsum[0] as u32 + colsum[0] as u32 + colsum[1.min(w - 1)] as u32) / 9) as u8;
    let mut x = 1usize;
    let magic = _mm256_set1_epi16(DIV9_MAGIC as i16);
    while x + 16 <= w.saturating_sub(1) {
        let l = _mm256_loadu_si256(colsum.as_ptr().add(x - 1) as *const __m256i);
        let m = _mm256_loadu_si256(colsum.as_ptr().add(x) as *const __m256i);
        let r = _mm256_loadu_si256(colsum.as_ptr().add(x + 1) as *const __m256i);
        let s = _mm256_add_epi16(_mm256_add_epi16(l, m), r);
        let q = _mm256_mulhi_epu16(s, magic);
        let packed = _mm256_permute4x64_epi64(_mm256_packus_epi16(q, q), 0b11011000);
        _mm_storeu_si128(
            out.as_mut_ptr().add(x) as *mut __m128i,
            _mm256_castsi256_si128(packed),
        );
        x += 16;
    }
    while x + 1 < w {
        out[x] = ((colsum[x - 1] as u32 + colsum[x] as u32 + colsum[x + 1] as u32) / 9) as u8;
        x += 1;
    }
    if w > 1 {
        out[w - 1] =
            ((colsum[w - 2] as u32 + colsum[w - 1] as u32 + colsum[w - 1] as u32) / 9) as u8;
    }
}

// ---------------------------------------------------------------------
// FAST compass pre-test.
// ---------------------------------------------------------------------

/// Whether [`fast_compass_mask`] has a vector implementation.
pub fn fast_available() -> bool {
    caps().x86_baseline
}

/// Evaluates the FAST-9 compass pre-test for the 16 consecutive scan
/// positions `x .. x + 16` of the row starting at linear index `row`:
/// bit `k` of the result is set iff position `x + k` *survives* the
/// reject (≥ 2 of the 4 compass circle pixels brighter than `c + t`, or
/// ≥ 2 darker than `c − t`) — exactly the scalar predicate at the head
/// of `fast9_response_fast`. Survivors still run the full scalar
/// decision, so detections are bit-identical.
///
/// Callers must guarantee the compass loads are in-bounds:
/// `3 * stride <= row + x` and `row + x + 15 + 3 * stride + 3 <
/// data.len()` (upheld by the detector's 16-pixel scan border).
pub fn fast_compass_mask(data: &[u8], row: usize, x: usize, stride: usize, t: u8) -> u16 {
    #[cfg(target_arch = "x86_64")]
    {
        if caps().x86_baseline {
            return fast_compass_mask_sse2(data, row, x, stride, t);
        }
    }
    fast_compass_mask_scalar(data, row, x, stride, t)
}

/// Scalar reference for [`fast_compass_mask`].
fn fast_compass_mask_scalar(data: &[u8], row: usize, x: usize, stride: usize, t: u8) -> u16 {
    let mut mask = 0u16;
    for k in 0..16 {
        let center = row + x + k;
        let c = data[center] as i32;
        let t = t as i32;
        let compass = [
            data[center - 3 * stride] as i32,
            data[center + 3] as i32,
            data[center + 3 * stride] as i32,
            data[center - 3] as i32,
        ];
        let nb = compass.iter().filter(|&&v| v > c + t).count();
        let nd = compass.iter().filter(|&&v| v < c - t).count();
        if nb >= 2 || nd >= 2 {
            mask |= 1 << k;
        }
    }
    mask
}

#[cfg(target_arch = "x86_64")]
fn fast_compass_mask_sse2(data: &[u8], row: usize, x: usize, stride: usize, t: u8) -> u16 {
    use core::arch::x86_64::*;
    let base = row + x;
    assert!(
        base >= 3 * stride && base + 15 + 3 * stride + 3 < data.len(),
        "compass loads out of bounds"
    );
    // SAFETY: the assert above bounds every 16-byte load; SSE2 is baseline.
    unsafe {
        let p = data.as_ptr();
        let c = _mm_loadu_si128(p.add(base) as *const __m128i);
        let tv = _mm_set1_epi8(t as i8);
        // v > c + t  ⟺  subs_epu8(v, adds_epu8(c, t)) > 0, and
        // v < c − t  ⟺  subs_epu8(subs_epu8(c, t), v) > 0 — both exact
        // under saturation: c + t > 255 makes "brighter" impossible in
        // both forms, c − t < 0 makes "darker" impossible in both.
        let hi = _mm_adds_epu8(c, tv);
        let lo = _mm_subs_epu8(c, tv);
        let zero = _mm_setzero_si128();
        let one = _mm_set1_epi8(1);
        let mut nb = zero;
        let mut nd = zero;
        let s3 = 3 * stride as isize;
        for off in [-s3, 3, s3, -3] {
            let v = _mm_loadu_si128(p.offset(base as isize + off) as *const __m128i);
            // 1 per lane where brighter / darker, else 0.
            let b = _mm_andnot_si128(_mm_cmpeq_epi8(_mm_subs_epu8(v, hi), zero), one);
            let d = _mm_andnot_si128(_mm_cmpeq_epi8(_mm_subs_epu8(lo, v), zero), one);
            nb = _mm_add_epi8(nb, b);
            nd = _mm_add_epi8(nd, d);
        }
        // Keep lanes with nb ≥ 2 or nd ≥ 2 (counts are 0..=4, signed
        // compare is safe).
        let keep = _mm_or_si128(_mm_cmpgt_epi8(nb, one), _mm_cmpgt_epi8(nd, one));
        _mm_movemask_epi8(keep) as u16
    }
}

// ---------------------------------------------------------------------
// Rotated BRIEF: fused rotate, bilinear sample and compare.
// ---------------------------------------------------------------------

/// Whether [`brief_bits`] runs its AVX2 kernel (gathers and 4-lane
/// `floor_pd`) on this host.
pub fn brief_available() -> bool {
    caps().avx2
}

/// How far, in whole pixels, a rotated pattern point can land from its
/// keypoint. Pattern offsets lie in `[-15, 15]` per axis, so a rotated
/// offset has magnitude ≤ 15·√2 ≈ 21.21 and its floor lies in
/// `-BRIEF_REACH..BRIEF_REACH`: a sample's 2×2 footprint stays within
/// `BRIEF_REACH` pixels of the keypoint on every axis.
pub const BRIEF_REACH: usize = 22;

/// Side of the square clamp-to-edge patch a keypoint near a level border
/// is described from, with the keypoint at patch pixel
/// `(BRIEF_REACH, BRIEF_REACH)`: the `2·BRIEF_REACH + 1` footprint
/// columns and rows plus the two bytes each 4-byte row gather reads past
/// a footprint's right column, rounded up to 48.
pub const BRIEF_PATCH: usize = 48;

/// One BRIEF comparison: a pair of (x, y) offsets around the keypoint.
pub type BriefPair = ((f64, f64), (f64, f64));

/// The 256 BRIEF comparison pairs in structure-of-arrays layout, rows
/// `ax`, `ay`, `bx`, `by`. Every offset lies in `[-15, 15]` (checked on
/// construction), which bounds [`brief_bits`]' loads.
#[derive(Debug, Clone, PartialEq)]
pub struct BriefPattern([[f64; 256]; 4]);

impl BriefPattern {
    /// Transposes 256 `((ax, ay), (bx, by))` pairs.
    ///
    /// # Panics
    ///
    /// Panics unless there are exactly 256 pairs, every offset in
    /// `[-15, 15]`.
    pub fn from_pairs(pairs: &[BriefPair]) -> BriefPattern {
        assert_eq!(pairs.len(), 256, "BRIEF has 256 pairs");
        let mut rows = [[0.0f64; 256]; 4];
        for (i, &((ax, ay), (bx, by))) in pairs.iter().enumerate() {
            for (row, v) in rows.iter_mut().zip([ax, ay, bx, by]) {
                assert!(v.abs() <= 15.0, "BRIEF offset {v} outside [-15, 15]");
                row[i] = v;
            }
        }
        BriefPattern(rows)
    }
}

/// Whether [`brief_bits`] can describe the keypoint at `(x, y)` of a
/// row-major buffer `len` bytes long with row stride `stride`: every
/// footprint pixel within [`BRIEF_REACH`] of the keypoint lies in its
/// row, and the last row gather (`(y + BRIEF_REACH) · stride + x +
/// BRIEF_REACH + 2`) lies in the buffer.
pub fn brief_fits(len: usize, stride: usize, x: usize, y: usize) -> bool {
    x >= BRIEF_REACH
        && y >= BRIEF_REACH
        && x + BRIEF_REACH < stride
        && (y + BRIEF_REACH) * stride + x + BRIEF_REACH + 2 < len
}

/// The 256 rotated-BRIEF bits of the keypoint at level pixel `(x, y)`,
/// oriented by `angle`, sampled from `data`: a row-major window of the
/// level with row stride `stride` whose byte 0 is level pixel `origin`.
///
/// Bit `i` is set iff the bilinear sample at rotated point `a_i` is below
/// the one at `b_i`. Each point is `x + (cos·ax − sin·ay)`,
/// `y + (sin·ax + cos·ay)`; each sample floors it, reads the 2×2
/// footprint at `(x0 − origin.0, y0 − origin.1)` of the window and
/// interpolates in `GrayImage::sample_bilinear`'s term order. So the bits
/// equal the clamped oracle's wherever the window holds the level's
/// clamp-to-edge pixels. AVX2 runs four pairs per step; the scalar twin
/// (no AVX2, or `force_caps`) runs the same IEEE operations one at a time.
///
/// # Panics
///
/// Panics if `angle` is not finite, or unless the keypoint
/// [`brief_fits`] the window.
pub fn brief_bits(
    data: &[u8],
    stride: usize,
    origin: (i64, i64),
    (x, y): (u32, u32),
    angle: f32,
    pattern: &BriefPattern,
) -> [u64; 4] {
    let (rx, ry) = (x as i64 - origin.0, y as i64 - origin.1);
    assert!(
        angle.is_finite()
            && rx >= 0
            && ry >= 0
            && data.len() <= i32::MAX as usize
            && data.len() >= 4
            && stride <= data.len() - 4
            && brief_fits(data.len(), stride, rx as usize, ry as usize),
        "BRIEF window does not cover keypoint ({x}, {y}) at angle {angle}"
    );
    let (sin, cos) = (angle as f64).sin_cos();
    let at = Rotation {
        x: x as f64,
        y: y as f64,
        sin,
        cos,
        origin,
    };
    #[cfg(target_arch = "x86_64")]
    {
        if caps().avx2 {
            // SAFETY: avx2 was runtime-detected just above, and the
            // assert above gives the kernel's contract: `data.len()` fits
            // i32 and is at least `stride + 4`, so every gather index it
            // clamps lies in `data`.
            return unsafe { brief_bits_avx2(data, stride, &at, pattern) };
        }
    }
    brief_bits_scalar(data, stride, &at, pattern)
}

/// A keypoint's rotation and window origin, shared by both BRIEF tiers.
struct Rotation {
    x: f64,
    y: f64,
    sin: f64,
    cos: f64,
    origin: (i64, i64),
}

/// Scalar twin of [`brief_bits_avx2`].
fn brief_bits_scalar(
    data: &[u8],
    stride: usize,
    at: &Rotation,
    pattern: &BriefPattern,
) -> [u64; 4] {
    let sample = |px: f64, py: f64| -> f64 {
        let (sx, sy) = rotate_scalar(at, px, py);
        bilinear_scalar(data, stride, at.origin, sx, sy)
    };
    let [ax, ay, bx, by] = &pattern.0;
    let mut bits = [0u64; 4];
    for i in 0..256 {
        bits[i >> 6] |= ((sample(ax[i], ay[i]) < sample(bx[i], by[i])) as u64) << (i & 63);
    }
    bits
}

/// Pattern offset `(px, py)` rotated about the keypoint: the scalar
/// twin of [`rotate4_avx2`].
fn rotate_scalar(at: &Rotation, px: f64, py: f64) -> (f64, f64) {
    (
        at.x + (at.cos * px - at.sin * py),
        at.y + (at.sin * px + at.cos * py),
    )
}

/// Bilinear sample at level point `(sx, sy)` of the window whose byte 0
/// is level pixel `origin`, in `GrayImage::sample_bilinear`'s term
/// order: the scalar twin of [`bilinear4_avx2`].
fn bilinear_scalar(data: &[u8], stride: usize, origin: (i64, i64), sx: f64, sy: f64) -> f64 {
    let (x0, y0) = (sx.floor(), sy.floor());
    let fx = sx - x0;
    let fy = sy - y0;
    let i = (y0 as i64 - origin.1) as usize * stride + (x0 as i64 - origin.0) as usize;
    let (r0, r1) = (&data[i..i + 2], &data[i + stride..i + stride + 2]);
    let (p00, p10) = (r0[0] as f64, r0[1] as f64);
    let (p01, p11) = (r1[0] as f64, r1[1] as f64);
    p00 * (1.0 - fx) * (1.0 - fy) + p10 * fx * (1.0 - fy) + p01 * (1.0 - fx) * fy + p11 * fx * fy
}

/// Four pairs per step: rotate, `floor_pd`, two 4-byte row gathers per
/// point set, interpolate, compare, `movemask` into the bits. Every f64
/// operation is the scalar twin's, lanewise, in the same order.
///
/// # Safety
///
/// The CPU must support AVX2, `data.len()` must fit `i32` and be at
/// least `stride + 4`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn brief_bits_avx2(
    data: &[u8],
    stride: usize,
    at: &Rotation,
    pattern: &BriefPattern,
) -> [u64; 4] {
    use core::arch::x86_64::*;
    let lanes = BriefLanes::new(data, stride, at);
    let [ax, ay, bx, by] = &pattern.0;
    let mut bits = [0u64; 4];
    for i in (0..256).step_by(4) {
        let va = sample4_avx2(
            &lanes,
            _mm256_loadu_pd(ax.as_ptr().add(i)),
            _mm256_loadu_pd(ay.as_ptr().add(i)),
        );
        let vb = sample4_avx2(
            &lanes,
            _mm256_loadu_pd(bx.as_ptr().add(i)),
            _mm256_loadu_pd(by.as_ptr().add(i)),
        );
        let lt = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(va, vb)) as u64;
        bits[i >> 6] |= lt << (i & 63);
    }
    bits
}

/// [`brief_bits_avx2`]'s per-keypoint constants, broadcast once.
#[cfg(target_arch = "x86_64")]
struct BriefLanes {
    x: core::arch::x86_64::__m256d,
    y: core::arch::x86_64::__m256d,
    sin: core::arch::x86_64::__m256d,
    cos: core::arch::x86_64::__m256d,
    stride_pd: core::arch::x86_64::__m256d,
    /// `origin`'s linear index, `oy · stride + ox`.
    origin: core::arch::x86_64::__m128i,
    stride: core::arch::x86_64::__m128i,
    /// Largest in-bounds gather index of a footprint's top row.
    last: core::arch::x86_64::__m128i,
    base: *const i32,
}

#[cfg(target_arch = "x86_64")]
impl BriefLanes {
    /// Broadcasts `at` and the window `data` (row stride `stride`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `data.len()` must fit `i32` and be at
    /// least `stride + 4`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn new(data: &[u8], stride: usize, at: &Rotation) -> BriefLanes {
        use core::arch::x86_64::*;
        BriefLanes {
            x: _mm256_set1_pd(at.x),
            y: _mm256_set1_pd(at.y),
            sin: _mm256_set1_pd(at.sin),
            cos: _mm256_set1_pd(at.cos),
            stride_pd: _mm256_set1_pd(stride as f64),
            origin: _mm_set1_epi32((at.origin.1 * stride as i64 + at.origin.0) as i32),
            stride: _mm_set1_epi32(stride as i32),
            last: _mm_set1_epi32((data.len() - stride - 4) as i32),
            base: data.as_ptr() as *const i32,
        }
    }
}

/// Bilinear samples at four rotated pattern points `(px, py)`.
///
/// # Safety
///
/// The CPU must support AVX2, and `l` must describe a buffer at
/// `l.base` with at least `l.last + stride + 4` bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn sample4_avx2(
    l: &BriefLanes,
    px: core::arch::x86_64::__m256d,
    py: core::arch::x86_64::__m256d,
) -> core::arch::x86_64::__m256d {
    let (sx, sy) = rotate4_avx2(l, px, py);
    bilinear4_avx2(l, sx, sy)
}

/// Four pattern offsets `(px, py)` rotated about the keypoint, lanewise
/// [`rotate_scalar`].
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn rotate4_avx2(
    l: &BriefLanes,
    px: core::arch::x86_64::__m256d,
    py: core::arch::x86_64::__m256d,
) -> (core::arch::x86_64::__m256d, core::arch::x86_64::__m256d) {
    use core::arch::x86_64::*;
    let sx = _mm256_add_pd(
        l.x,
        _mm256_sub_pd(_mm256_mul_pd(l.cos, px), _mm256_mul_pd(l.sin, py)),
    );
    let sy = _mm256_add_pd(
        l.y,
        _mm256_add_pd(_mm256_mul_pd(l.sin, px), _mm256_mul_pd(l.cos, py)),
    );
    (sx, sy)
}

/// Bilinear samples at four level points `(sx, sy)`, lanewise
/// [`bilinear_scalar`].
///
/// # Safety
///
/// As [`sample4_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn bilinear4_avx2(
    l: &BriefLanes,
    sx: core::arch::x86_64::__m256d,
    sy: core::arch::x86_64::__m256d,
) -> core::arch::x86_64::__m256d {
    use core::arch::x86_64::*;
    let x0 = _mm256_floor_pd(sx);
    let y0 = _mm256_floor_pd(sy);
    let fx = _mm256_sub_pd(sx, x0);
    let fy = _mm256_sub_pd(sy, y0);
    // (y0 − oy)·stride + (x0 − ox), as y0·stride + x0 in f64 (exact:
    // integers far below 2⁵³) minus the origin's index in i32.
    let lin = _mm256_add_pd(_mm256_mul_pd(y0, l.stride_pd), x0);
    let idx = _mm_sub_epi32(_mm256_cvtpd_epi32(lin), l.origin);
    // `brief_fits` already bounds the index; the clamp never engages on
    // a valid pattern and keeps every gather inside the buffer anyway.
    let idx = _mm_min_epi32(_mm_max_epi32(idx, _mm_setzero_si128()), l.last);
    // Little-endian: byte 0 of each gathered word is the footprint's
    // left pixel, byte 1 its right one.
    let r0 = _mm_i32gather_epi32::<1>(l.base, idx);
    let r1 = _mm_i32gather_epi32::<1>(l.base, _mm_add_epi32(idx, l.stride));
    let byte = _mm_set1_epi32(0xff);
    let p00 = _mm256_cvtepi32_pd(_mm_and_si128(r0, byte));
    let p10 = _mm256_cvtepi32_pd(_mm_and_si128(_mm_srli_epi32::<8>(r0), byte));
    let p01 = _mm256_cvtepi32_pd(_mm_and_si128(r1, byte));
    let p11 = _mm256_cvtepi32_pd(_mm_and_si128(_mm_srli_epi32::<8>(r1), byte));
    let one = _mm256_set1_pd(1.0);
    let ofx = _mm256_sub_pd(one, fx);
    let ofy = _mm256_sub_pd(one, fy);
    let t1 = _mm256_mul_pd(_mm256_mul_pd(p00, ofx), ofy);
    let t2 = _mm256_mul_pd(_mm256_mul_pd(p10, fx), ofy);
    let t3 = _mm256_mul_pd(_mm256_mul_pd(p01, ofx), fy);
    let t4 = _mm256_mul_pd(_mm256_mul_pd(p11, fx), fy);
    _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(t1, t2), t3), t4)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn blur_magic_div9_exhaustive() {
        // The full input range of the 3-column window sum (3 × 765).
        for n in 0u32..=2295 {
            assert_eq!((n * DIV9_MAGIC as u32) >> 16, n / 9, "n = {n}");
        }
    }

    #[test]
    fn blur_row_matches_scalar_all_widths() {
        // Every width from degenerate to past both vector strides, random
        // plus all-zeros and all-ones rows (u16 saturation headroom).
        let mut s = 0x5eed_1234u64;
        for w in 1usize..=70 {
            let mk = |s: &mut u64| -> Vec<u8> { (0..w).map(|_| xorshift(s) as u8).collect() };
            for rows in [
                [mk(&mut s), mk(&mut s), mk(&mut s)],
                [vec![0u8; w], vec![0u8; w], vec![0u8; w]],
                [vec![255u8; w], vec![255u8; w], vec![255u8; w]],
            ] {
                let [ra, rb, rc] = rows;
                let mut cs_a = vec![0u16; w];
                let mut cs_b = vec![0u16; w];
                let mut simd = vec![0u8; w];
                let mut scalar = vec![0u8; w];
                blur_row(&ra, &rb, &rc, &mut cs_a, &mut simd);
                blur_row_scalar(&ra, &rb, &rc, &mut cs_b, &mut scalar);
                assert_eq!(simd, scalar, "w = {w}");
            }
        }
    }

    #[test]
    fn compass_mask_matches_scalar_including_saturation() {
        // Random images plus extreme centers/thresholds that drive c + t
        // past 255 and c − t below 0.
        let stride = 48usize;
        let mut s = 0xabcdu64;
        for t in [0u8, 1, 20, 130, 255] {
            let mut data: Vec<u8> = (0..stride * 24).map(|_| xorshift(&mut s) as u8).collect();
            // Plant saturation corners inside the scanned band.
            for (i, v) in data.iter_mut().enumerate() {
                if i % 97 == 0 {
                    *v = 255;
                }
                if i % 89 == 0 {
                    *v = 0;
                }
            }
            for y in 4..20 {
                let row = y * stride;
                let mut x = 4usize;
                while x + 16 + 4 <= stride - 4 {
                    assert_eq!(
                        fast_compass_mask(&data, row, x, stride, t),
                        fast_compass_mask_scalar(&data, row, x, stride, t),
                        "t = {t}, y = {y}, x = {x}"
                    );
                    x += 16;
                }
            }
        }
    }

    #[test]
    fn brief_kernel_matches_scalar_twin() {
        // Random windows, origins (negative ones too, as for a patch
        // hanging over a level border) and angles, with the pattern's
        // ±15 extremes planted: the AVX2 kernel (called directly, so a
        // concurrent forced-scalar test cannot turn it scalar) must
        // reproduce the scalar twin bit for bit.
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            let mut s = 0xfeedu64;
            for case in 0..64 {
                let pairs: Vec<_> = (0..256)
                    .map(|i| {
                        let mut d = || match (i + case) % 17 {
                            0 => 15.0,
                            1 => -15.0,
                            _ => (xorshift(&mut s) % 3001) as f64 / 100.0 - 15.0,
                        };
                        ((d(), d()), (d(), d()))
                    })
                    .collect();
                let pattern = BriefPattern::from_pairs(&pairs);
                let stride = BRIEF_PATCH + (xorshift(&mut s) % 40) as usize;
                let rows = BRIEF_PATCH + (xorshift(&mut s) % 40) as usize;
                let data: Vec<u8> = (0..stride * rows).map(|_| xorshift(&mut s) as u8).collect();
                // Origins down to -BRIEF_REACH put keypoints near level
                // pixel 0, so many sample coordinates are negative (where
                // floor and truncation differ).
                let origin = (
                    (xorshift(&mut s) % 40) as i64 - BRIEF_REACH as i64,
                    (xorshift(&mut s) % 40) as i64 - BRIEF_REACH as i64,
                );
                let rx = BRIEF_REACH + (xorshift(&mut s) as usize) % (stride - 2 * BRIEF_REACH);
                let ry = BRIEF_REACH + (xorshift(&mut s) as usize) % (rows - 2 * BRIEF_REACH - 1);
                if !brief_fits(data.len(), stride, rx, ry) {
                    continue;
                }
                let kp = ((origin.0 + rx as i64) as u32, (origin.1 + ry as i64) as u32);
                let angle = (xorshift(&mut s) % 20_000) as f32 / 20_000.0 * 7.0 - 3.5;
                let (sin, cos) = (angle as f64).sin_cos();
                let at = Rotation {
                    x: kp.0 as f64,
                    y: kp.1 as f64,
                    sin,
                    cos,
                    origin,
                };
                // SAFETY: avx2 was detected just above.
                let simd = unsafe { brief_bits_avx2(&data, stride, &at, &pattern) };
                let scalar = brief_bits_scalar(&data, stride, &at, &pattern);
                assert_eq!(simd, scalar, "case {case}, angle {angle}");
            }
        }
    }

    #[test]
    fn brief_rotate_matches_scalar() {
        // The kernel's rotate stage alone, on fractional keypoints and
        // offsets across [-15, 15]: bitwise equality, not approximate.
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            use core::arch::x86_64::*;
            let mut s = 0xfeedu64;
            let data = [0u8; 8];
            for angle in [0.0f64, 0.7, -2.4, std::f64::consts::PI, -3.5, 3.5] {
                let (sin, cos) = angle.sin_cos();
                let at = Rotation {
                    x: 100.25,
                    y: 73.5,
                    sin,
                    cos,
                    origin: (0, 0),
                };
                for _ in 0..256 {
                    let mut d = || (xorshift(&mut s) % 3001) as f64 / 100.0 - 15.0;
                    let (px, py) = ([d(), d(), d(), d()], [d(), d(), d(), d()]);
                    let (mut sx, mut sy) = ([0.0f64; 4], [0.0f64; 4]);
                    // SAFETY: avx2 was detected just above; `data` is
                    // stride + 4 bytes long and is never read here.
                    unsafe {
                        let lanes = BriefLanes::new(&data, 4, &at);
                        let (vx, vy) = rotate4_avx2(
                            &lanes,
                            _mm256_loadu_pd(px.as_ptr()),
                            _mm256_loadu_pd(py.as_ptr()),
                        );
                        _mm256_storeu_pd(sx.as_mut_ptr(), vx);
                        _mm256_storeu_pd(sy.as_mut_ptr(), vy);
                    }
                    for k in 0..4 {
                        let (ex, ey) = rotate_scalar(&at, px[k], py[k]);
                        assert_eq!(sx[k].to_bits(), ex.to_bits(), "angle {angle}");
                        assert_eq!(sy[k].to_bits(), ey.to_bits(), "angle {angle}");
                    }
                }
            }
        }
    }

    #[test]
    fn brief_sample_matches_scalar() {
        // The kernel's floor, gathers and bilinear stage alone, at
        // sub-pixel positions whose 2×2 footprint lies in the window
        // (level coordinates shifted by a window origin, negative ones
        // included): bitwise equality with the scalar sample.
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            use core::arch::x86_64::*;
            let w = 64usize;
            let mut s = 0xc0ffeeu64;
            let data: Vec<u8> = (0..w * w).map(|_| xorshift(&mut s) as u8).collect();
            for origin in [(0i64, 0i64), (-20, 7), (13, -30)] {
                let at = Rotation {
                    x: 0.0,
                    y: 0.0,
                    sin: 0.0,
                    cos: 1.0,
                    origin,
                };
                for _ in 0..256 {
                    let mut c = |o: i64| o as f64 + (xorshift(&mut s) % 620) as f64 / 10.0;
                    let (qx, qy) = (
                        [c(origin.0), c(origin.0), c(origin.0), c(origin.0)],
                        [c(origin.1), c(origin.1), c(origin.1), c(origin.1)],
                    );
                    let mut simd = [0.0f64; 4];
                    // SAFETY: avx2 was detected just above; `data` fits
                    // i32 and every footprint (x0 ≤ 61, y0 ≤ 61 in the
                    // window) lies in it.
                    unsafe {
                        let lanes = BriefLanes::new(&data, w, &at);
                        let v = bilinear4_avx2(
                            &lanes,
                            _mm256_loadu_pd(qx.as_ptr()),
                            _mm256_loadu_pd(qy.as_ptr()),
                        );
                        _mm256_storeu_pd(simd.as_mut_ptr(), v);
                    }
                    for k in 0..4 {
                        let scalar = bilinear_scalar(&data, w, origin, qx[k], qy[k]);
                        assert_eq!(simd[k].to_bits(), scalar.to_bits(), "origin {origin:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn forced_scalar_caps_disable_every_kernel() {
        let guard = force_caps(SimdCaps::SCALAR);
        assert!(!blur_available());
        assert!(!fast_available());
        assert!(!brief_available());
        drop(guard);
        // Forcing needs the lock, so holding it pins the restored state.
        let _lock = FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(caps(), detected_caps());
    }
}
