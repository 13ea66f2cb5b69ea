//! Explicit SIMD hot-path kernels (x86_64 `core::arch` intrinsics with
//! runtime feature detection) for the three detector inner loops: the
//! pyramid box blur's column-sum row kernel, the FAST compass pre-test and
//! the BRIEF rotate/sample arithmetic. (The Hamming matcher stays scalar:
//! four hardware `popcnt`s per pair beat AVX2 and AVX-512 popcount scans,
//! DESIGN.md §14.)
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
//! - *BRIEF*: lanewise f64 mul/add/sub/addsub perform the same
//!   individually-rounded IEEE operations as the scalar expressions, in
//!   the same per-element order, so every intermediate bit matches.
//!
//! Dispatch is per-call-site on [`caps`] (detected once, cacheable,
//! overridable from tests via [`force_caps`] to exercise the
//! feature-absent fallbacks on any host). On non-x86_64 targets every
//! entry point reports unavailable and callers keep the scalar paths.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Which instruction-set extensions the dispatcher may use. SSE2 is part
/// of the x86_64 baseline, so `blur`/`fast`/`sample` only need the
/// architecture; `sse3` gates the BRIEF rotate (`addsub_pd`) and `avx2`
/// the wider blur rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdCaps {
    /// x86_64 baseline lanes (SSE2) usable at all.
    pub x86_baseline: bool,
    /// SSE3 `addsub_pd` for the BRIEF rotate phase.
    pub sse3: bool,
    /// AVX2 for the 256-bit blur rows.
    pub avx2: bool,
}

impl SimdCaps {
    /// No SIMD at all — the forced-scalar fallback configuration.
    pub const SCALAR: SimdCaps = SimdCaps {
        x86_baseline: false,
        sse3: false,
        avx2: false,
    };
}

// Bit layout of the cached capability byte: bit7 = initialized, bit6 =
// forced override active, bits 0..=2 mirror the SimdCaps fields.
const CAP_INIT: u8 = 0x80;
const CAP_FORCED: u8 = 0x40;
const CAP_BASE: u8 = 0x01;
const CAP_SSE3: u8 = 0x02;
const CAP_AVX2: u8 = 0x04;

static CAPS: AtomicU8 = AtomicU8::new(0);

fn encode(caps: SimdCaps) -> u8 {
    (caps.x86_baseline as u8 * CAP_BASE)
        | (caps.sse3 as u8 * CAP_SSE3)
        | (caps.avx2 as u8 * CAP_AVX2)
}

fn decode(bits: u8) -> SimdCaps {
    SimdCaps {
        x86_baseline: bits & CAP_BASE != 0,
        sse3: bits & CAP_SSE3 != 0,
        avx2: bits & CAP_AVX2 != 0,
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdCaps {
    SimdCaps {
        x86_baseline: true,
        sse3: is_x86_feature_detected!("sse3"),
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
// BRIEF rotate + bilinear sample arithmetic.
// ---------------------------------------------------------------------

/// Whether the BRIEF kernels ([`brief_rotate`], [`brief_sample_pairs`])
/// have vector implementations (the rotate needs SSE3's `addsub_pd`).
pub fn brief_available() -> bool {
    caps().sse3
}

/// One BRIEF comparison: a pair of (x, y) offsets around the keypoint
/// (the kernel-facing twin of the alias in `features`).
pub type BriefPair = ((f64, f64), (f64, f64));

/// Rotates the 256 BRIEF pattern pairs by `(sin, cos)` around `(x, y)`
/// into the flat `coords` layout `[ax', ay', bx', by']` per pair — the
/// same per-element `x + (cos·px − sin·py)` / `y + (sin·px + cos·py)`
/// expressions as the scalar rotate loop, two lanes at a time
/// (`addsub_pd` performs the identical single-rounded sub/add per lane).
pub fn brief_rotate(
    x: f64,
    y: f64,
    sin: f64,
    cos: f64,
    pattern: &[BriefPair],
    coords: &mut [f64; 1024],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if caps().sse3 {
            // SAFETY: sse3 was runtime-detected just above.
            unsafe { brief_rotate_sse3(x, y, sin, cos, pattern, coords) };
            return;
        }
    }
    brief_rotate_scalar(x, y, sin, cos, pattern, coords);
}

/// Scalar reference for [`brief_rotate`].
fn brief_rotate_scalar(
    x: f64,
    y: f64,
    sin: f64,
    cos: f64,
    pattern: &[BriefPair],
    coords: &mut [f64; 1024],
) {
    for (i, &((ax, ay), (bx, by))) in pattern.iter().enumerate() {
        coords[4 * i] = x + (cos * ax - sin * ay);
        coords[4 * i + 1] = y + (sin * ax + cos * ay);
        coords[4 * i + 2] = x + (cos * bx - sin * by);
        coords[4 * i + 3] = y + (sin * bx + cos * by);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse3")]
unsafe fn brief_rotate_sse3(
    x: f64,
    y: f64,
    sin: f64,
    cos: f64,
    pattern: &[BriefPair],
    coords: &mut [f64; 1024],
) {
    use core::arch::x86_64::*;
    // Lanes are [x-part, y-part]: for point (px, py),
    //   mul([cos, sin], px) = [cos·px, sin·px]
    //   mul([sin, cos], py) = [sin·py, cos·py]
    //   addsub(a, b)        = [cos·px − sin·py, sin·px + cos·py]
    // each lane one multiply and one add/sub — the scalar rounding
    // sequence exactly.
    let cs = _mm_set_pd(sin, cos);
    let sc = _mm_set_pd(cos, sin);
    let xy = _mm_set_pd(y, x);
    for (i, &((ax, ay), (bx, by))) in pattern.iter().enumerate() {
        let ra = _mm_addsub_pd(
            _mm_mul_pd(cs, _mm_set1_pd(ax)),
            _mm_mul_pd(sc, _mm_set1_pd(ay)),
        );
        let rb = _mm_addsub_pd(
            _mm_mul_pd(cs, _mm_set1_pd(bx)),
            _mm_mul_pd(sc, _mm_set1_pd(by)),
        );
        _mm_storeu_pd(coords.as_mut_ptr().add(4 * i), _mm_add_pd(xy, ra));
        _mm_storeu_pd(coords.as_mut_ptr().add(4 * i + 2), _mm_add_pd(xy, rb));
    }
}

/// Bilinearly samples the 512 rotated pattern points (`coords` pairs)
/// from the row-major `data` (width `w`), two samples per step: the
/// gather loads stay scalar, the interpolation arithmetic runs in two
/// f64 lanes with the scalar expression's exact operation order. Callers
/// guarantee every sample's 2×2 footprint is strictly in-bounds (the
/// BRIEF fast-margin contract).
pub fn brief_sample_pairs(data: &[u8], w: usize, coords: &[f64; 1024], vals: &mut [f64; 512]) {
    #[cfg(target_arch = "x86_64")]
    {
        if caps().x86_baseline {
            brief_sample_pairs_sse2(data, w, coords, vals);
            return;
        }
    }
    brief_sample_pairs_scalar(data, w, coords, vals);
}

/// Scalar reference for [`brief_sample_pairs`] — the `sample` closure of
/// `brief_descriptor_fast`, verbatim.
fn brief_sample_pairs_scalar(data: &[u8], w: usize, coords: &[f64; 1024], vals: &mut [f64; 512]) {
    for (v, c) in vals.iter_mut().zip(coords.chunks_exact(2)) {
        let (sx, sy) = (c[0], c[1]);
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
        *v = p00 * (1.0 - fx) * (1.0 - fy)
            + p10 * fx * (1.0 - fy)
            + p01 * (1.0 - fx) * fy
            + p11 * fx * fy;
    }
}

#[cfg(target_arch = "x86_64")]
fn brief_sample_pairs_sse2(data: &[u8], w: usize, coords: &[f64; 1024], vals: &mut [f64; 512]) {
    use core::arch::x86_64::*;
    // Two samples (lanes 0 and 1) per iteration. Truncation, base index
    // and the four u8 gathers are scalar per lane; the seven multiplies
    // and three adds run lanewise, each a single IEEE rounding exactly
    // as in the scalar expression (left-associated sums).
    for (pair, cs) in vals.chunks_exact_mut(2).zip(coords.chunks_exact(4)) {
        let (sx0, sy0, sx1, sy1) = (cs[0], cs[1], cs[2], cs[3]);
        let (ix0, iy0) = (sx0 as usize, sy0 as usize);
        let (ix1, iy1) = (sx1 as usize, sy1 as usize);
        let base0 = iy0 * w + ix0;
        let base1 = iy1 * w + ix1;
        // SAFETY: the fast-margin contract puts base + w + 1 in-bounds
        // for every sample; all other intrinsics are lanewise arithmetic.
        unsafe {
            let fx = _mm_set_pd(sx1 - ix1 as f64, sx0 - ix0 as f64);
            let fy = _mm_set_pd(sy1 - iy1 as f64, sy0 - iy0 as f64);
            let one = _mm_set1_pd(1.0);
            let ofx = _mm_sub_pd(one, fx);
            let ofy = _mm_sub_pd(one, fy);
            let p00 = _mm_set_pd(
                *data.get_unchecked(base1) as f64,
                *data.get_unchecked(base0) as f64,
            );
            let p10 = _mm_set_pd(
                *data.get_unchecked(base1 + 1) as f64,
                *data.get_unchecked(base0 + 1) as f64,
            );
            let p01 = _mm_set_pd(
                *data.get_unchecked(base1 + w) as f64,
                *data.get_unchecked(base0 + w) as f64,
            );
            let p11 = _mm_set_pd(
                *data.get_unchecked(base1 + w + 1) as f64,
                *data.get_unchecked(base0 + w + 1) as f64,
            );
            let t1 = _mm_mul_pd(_mm_mul_pd(p00, ofx), ofy);
            let t2 = _mm_mul_pd(_mm_mul_pd(p10, fx), ofy);
            let t3 = _mm_mul_pd(_mm_mul_pd(p01, ofx), fy);
            let t4 = _mm_mul_pd(_mm_mul_pd(p11, fx), fy);
            let r = _mm_add_pd(_mm_add_pd(_mm_add_pd(t1, t2), t3), t4);
            _mm_storeu_pd(pair.as_mut_ptr(), r);
        }
    }
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
    fn brief_rotate_matches_scalar() {
        let mut s = 0xfeedu64;
        let pattern: Vec<BriefPair> = (0..256)
            .map(|_| {
                let mut d = || (xorshift(&mut s) % 31) as f64 - 15.0;
                ((d(), d()), (d(), d()))
            })
            .collect();
        for angle in [0.0f64, 0.7, -2.4, std::f64::consts::PI] {
            let (sin, cos) = angle.sin_cos();
            let mut simd = [0.0f64; 1024];
            let mut scalar = [0.0f64; 1024];
            brief_rotate(100.25, 73.5, sin, cos, &pattern, &mut simd);
            brief_rotate_scalar(100.25, 73.5, sin, cos, &pattern, &mut scalar);
            // Bitwise equality, not approximate.
            for (a, b) in simd.iter().zip(scalar.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "angle {angle}");
            }
        }
    }

    #[test]
    fn brief_sample_matches_scalar() {
        let w = 64usize;
        let mut s = 0xc0ffeeu64;
        let data: Vec<u8> = (0..w * w).map(|_| xorshift(&mut s) as u8).collect();
        let mut coords = [0.0f64; 1024];
        for c in coords.chunks_exact_mut(2) {
            // Strictly interior sub-pixel positions (2×2 footprint safe).
            c[0] = 2.0 + (xorshift(&mut s) % 590) as f64 / 10.0;
            c[1] = 2.0 + (xorshift(&mut s) % 590) as f64 / 10.0;
        }
        let mut simd = [0.0f64; 512];
        let mut scalar = [0.0f64; 512];
        brief_sample_pairs(&data, w, &coords, &mut simd);
        brief_sample_pairs_scalar(&data, w, &coords, &mut scalar);
        for (a, b) in simd.iter().zip(scalar.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
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
