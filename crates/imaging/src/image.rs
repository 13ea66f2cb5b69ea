//! 8-bit grayscale images.

/// An 8-bit grayscale image, row-major.
///
/// # Example
///
/// ```
/// use edgeis_imaging::GrayImage;
/// let mut img = GrayImage::new(4, 3);
/// img.set(1, 2, 200);
/// assert_eq!(img.get(1, 2), 200);
/// assert_eq!(img.get_clamped(-5, 100), img.get(0, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: u32,
    height: u32,
    data: Vec<u8>,
}

impl GrayImage {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        Self {
            width,
            height,
            data: vec![0; (width * height) as usize],
        }
    }

    /// Creates an image from raw row-major bytes.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_raw(width: u32, height: u32, data: Vec<u8>) -> Self {
        assert_eq!(
            data.len(),
            (width * height) as usize,
            "pixel buffer does not match dimensions"
        );
        Self {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw pixel buffer, row-major.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        (y * self.width + x) as usize
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[self.idx(x, y)]
    }

    /// Pixel value with coordinates clamped to the image border.
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> u8 {
        let x = x.clamp(0, self.width as i64 - 1) as u32;
        let y = y.clamp(0, self.height as i64 - 1) as u32;
        self.data[self.idx(x, y)]
    }

    /// Sets pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = self.idx(x, y);
        self.data[i] = v;
    }

    /// Row `y`, for writers that fill whole rows.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    pub fn row_mut(&mut self, y: u32) -> &mut [u8] {
        assert!(y < self.height, "row out of bounds");
        let w = self.width as usize;
        &mut self.data[y as usize * w..(y as usize + 1) * w]
    }

    /// Bilinear sample at sub-pixel coordinates, clamped at borders.
    pub fn sample_bilinear(&self, x: f64, y: f64) -> f64 {
        let x0 = x.floor() as i64;
        let y0 = y.floor() as i64;
        let fx = x - x0 as f64;
        let fy = y - y0 as f64;
        let p00 = self.get_clamped(x0, y0) as f64;
        let p10 = self.get_clamped(x0 + 1, y0) as f64;
        let p01 = self.get_clamped(x0, y0 + 1) as f64;
        let p11 = self.get_clamped(x0 + 1, y0 + 1) as f64;
        p00 * (1.0 - fx) * (1.0 - fy)
            + p10 * fx * (1.0 - fy)
            + p01 * (1.0 - fx) * fy
            + p11 * fx * fy
    }

    /// Re-shapes the buffer to `width × height` without preserving
    /// contents, reusing the existing allocation when large enough.
    pub(crate) fn reset(&mut self, width: u32, height: u32) {
        assert!(width > 0 && height > 0, "image must be non-empty");
        self.width = width;
        self.height = height;
        self.data.clear();
        self.data.resize((width * height) as usize, 0);
    }

    /// Half-resolution downsample by 2×2 box averaging (pyramid level).
    pub fn downsample_half(&self) -> GrayImage {
        let mut out = GrayImage::new(1, 1);
        self.downsample_half_into(&mut out);
        out
    }

    /// [`GrayImage::downsample_half`] into a reusable buffer.
    pub fn downsample_half_into(&self, out: &mut GrayImage) {
        let w = (self.width / 2).max(1);
        let h = (self.height / 2).max(1);
        out.reset(w, h);
        for (y, row) in out.data.chunks_mut(w as usize).enumerate() {
            let sy = (y as u32 * 2).min(self.height - 1);
            let sy1 = (sy + 1).min(self.height - 1);
            for (x, px) in row.iter_mut().enumerate() {
                let sx = (x as u32 * 2).min(self.width - 1);
                let sx1 = (sx + 1).min(self.width - 1);
                let sum = self.get(sx, sy) as u32
                    + self.get(sx1, sy) as u32
                    + self.get(sx, sy1) as u32
                    + self.get(sx1, sy1) as u32;
                *px = (sum / 4) as u8;
            }
        }
    }

    /// 3×3 box blur; approximates the smoothing applied before BRIEF tests.
    pub fn box_blur3(&self) -> GrayImage {
        let mut out = GrayImage::new(1, 1);
        self.box_blur3_into(&mut out);
        out
    }

    /// [`GrayImage::box_blur3`] into a reusable buffer.
    pub fn box_blur3_into(&self, out: &mut GrayImage) {
        out.reset(self.width, self.height);
        for (y, row) in out.data.chunks_mut(self.width as usize).enumerate() {
            let y = y as i64;
            for (x, px) in row.iter_mut().enumerate() {
                let mut sum = 0u32;
                for ddy in -1..=1 {
                    for ddx in -1..=1 {
                        sum += self.get_clamped(x as i64 + ddx, y + ddy) as u32;
                    }
                }
                *px = (sum / 9) as u8;
            }
        }
    }

    /// [`GrayImage::downsample_half_into`] with direct row indexing for
    /// even dimensions (the edge clamps can only engage when a dimension is
    /// odd, so those fall back to the reference loop). The u32 sums are the
    /// same four pixels in the same integer arithmetic — bit-identical
    /// output either way.
    pub fn downsample_half_fast_into(&self, out: &mut GrayImage) {
        if !self.width.is_multiple_of(2)
            || !self.height.is_multiple_of(2)
            || self.width < 2
            || self.height < 2
        {
            return self.downsample_half_into(out);
        }
        let w = (self.width / 2) as usize;
        let sw = self.width as usize;
        let src = &self.data;
        out.reset(self.width / 2, self.height / 2);
        for (y, row) in out.data.chunks_mut(w).enumerate() {
            let sy = y * 2;
            let r0 = &src[sy * sw..sy * sw + sw];
            let r1 = &src[(sy + 1) * sw..(sy + 1) * sw + sw];
            for (px, (a, b)) in row
                .iter_mut()
                .zip(r0.chunks_exact(2).zip(r1.chunks_exact(2)))
            {
                let sum = a[0] as u32 + a[1] as u32 + b[0] as u32 + b[1] as u32;
                *px = (sum / 4) as u8;
            }
        }
    }

    /// [`GrayImage::box_blur3_into`] via per-row column sums: each output
    /// row sums three clamped source rows column-wise, then each pixel sums
    /// three adjacent (clamped) column sums. That is the same nine u8
    /// values added in integers — addition is commutative and associative,
    /// so the `/ 9` result is bit-identical to the nine-load reference
    /// loop, border clamping included. A column sum is at most 3 × 255, so
    /// `colsum` holds u16s; it is caller-owned scratch, resized to the
    /// image width here, so one buffer serves images of any width.
    pub fn box_blur3_fast_into(&self, out: &mut GrayImage, colsum: &mut Vec<u16>) {
        out.reset(self.width, self.height);
        let w = self.width as usize;
        let h = self.height as usize;
        let src = &self.data;
        colsum.resize(w, 0);
        // The 3×3 mean from three adjacent column sums.
        let box_mean = |a: u16, b: u16, c: u16| ((a as u32 + b as u32 + c as u32) / 9) as u8;
        for (y, row) in out.data.chunks_mut(w).enumerate() {
            let ym = y.saturating_sub(1);
            let yp = (y + 1).min(h - 1);
            let ra = &src[ym * w..ym * w + w];
            let rb = &src[y * w..y * w + w];
            let rc = &src[yp * w..yp * w + w];
            for (s, ((a, b), c)) in colsum
                .iter_mut()
                .zip(ra.iter().zip(rb.iter()).zip(rc.iter()))
            {
                *s = *a as u16 + *b as u16 + *c as u16;
            }
            row[0] = box_mean(colsum[0], colsum[0], colsum[1.min(w - 1)]);
            for (x, win) in colsum.windows(3).enumerate() {
                row[x + 1] = box_mean(win[0], win[1], win[2]);
            }
            if w > 1 {
                row[w - 1] = box_mean(colsum[w - 2], colsum[w - 1], colsum[w - 1]);
            }
        }
    }

    /// [`GrayImage::box_blur3_fast_into`] with the column-sum row kernel
    /// vectorized ([`crate::simd::blur_row`]): u16 column sums (3 × 255
    /// fits), 3-tap window sums ≤ 2295 divided by the exact `mulhi`
    /// magic — bit-identical output to the scalar column-sum path (and
    /// thus to the nine-load reference). Falls back to the scalar fast
    /// path when no vector implementation exists on this target.
    pub fn box_blur3_simd_into(&self, out: &mut GrayImage, colsum: &mut Vec<u16>) {
        if !crate::simd::blur_available() {
            return self.box_blur3_fast_into(out, colsum);
        }
        out.reset(self.width, self.height);
        let w = self.width as usize;
        let h = self.height as usize;
        let src = &self.data;
        colsum.resize(w, 0);
        for (y, row) in out.data.chunks_mut(w).enumerate() {
            let ym = y.saturating_sub(1);
            let yp = (y + 1).min(h - 1);
            crate::simd::blur_row(
                &src[ym * w..ym * w + w],
                &src[y * w..y * w + w],
                &src[yp * w..yp * w + w],
                colsum,
                row,
            );
        }
    }

    /// Mean absolute Laplacian response inside a window — a simple
    /// blurriness score. Sharp regions score high; the paper filters
    /// "too blurred" features during initialization (§III-A).
    pub fn sharpness(&self, cx: u32, cy: u32, radius: u32) -> f64 {
        let mut acc = 0.0;
        let mut n = 0u32;
        let r = radius as i64;
        for dy in -r..=r {
            for dx in -r..=r {
                let x = cx as i64 + dx;
                let y = cy as i64 + dy;
                let c = self.get_clamped(x, y) as f64;
                let lap = 4.0 * c
                    - self.get_clamped(x - 1, y) as f64
                    - self.get_clamped(x + 1, y) as f64
                    - self.get_clamped(x, y - 1) as f64
                    - self.get_clamped(x, y + 1) as f64;
                acc += lap.abs();
                n += 1;
            }
        }
        acc / n as f64
    }

    /// Fills the whole image with value `v`.
    pub fn fill(&mut self, v: u8) {
        self.data.fill(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise_image(w: u32, h: u32, seed: u32) -> GrayImage {
        let mut img = GrayImage::new(w, h);
        let mut state = seed | 1;
        for y in 0..h {
            for x in 0..w {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                img.set(x, y, (state >> 24) as u8);
            }
        }
        img
    }

    #[test]
    fn box_blur3_fast_matches_reference() {
        // Odd, even and degenerate sizes; the column-sum formulation must
        // reproduce the nine-load clamped loop byte for byte, with one
        // column-sum buffer reused across the widths.
        let mut colsum = Vec::new();
        for (w, h) in [(17u32, 13u32), (32, 32), (1, 9), (9, 1), (2, 2)] {
            let img = noise_image(w, h, w * 31 + h);
            let slow = img.box_blur3();
            let mut fast = GrayImage::new(1, 1);
            img.box_blur3_fast_into(&mut fast, &mut colsum);
            assert_eq!(slow.as_bytes(), fast.as_bytes(), "{w}x{h}");
        }
    }

    #[test]
    fn box_blur3_simd_matches_reference() {
        // Vector widths (16/8-lane strides), unaligned tails, degenerate
        // rows/columns — all byte-identical to the nine-load loop. One
        // column-sum buffer is reused across widths, growing and shrinking.
        let mut colsum = Vec::new();
        for (w, h) in [
            (17u32, 13u32),
            (32, 32),
            (1, 9),
            (9, 1),
            (2, 2),
            (33, 5),
            (320, 7),
        ] {
            let img = noise_image(w, h, w * 131 + h);
            let slow = img.box_blur3();
            let mut simd = GrayImage::new(1, 1);
            img.box_blur3_simd_into(&mut simd, &mut colsum);
            assert_eq!(slow.as_bytes(), simd.as_bytes(), "{w}x{h}");
        }
    }

    #[test]
    fn downsample_half_fast_matches_reference() {
        for (w, h) in [(16u32, 12u32), (17, 12), (16, 13), (3, 3), (2, 2)] {
            let img = noise_image(w, h, w * 7 + h);
            let slow = img.downsample_half();
            let mut fast = GrayImage::new(1, 1);
            img.downsample_half_fast_into(&mut fast);
            assert_eq!(slow.width(), fast.width());
            assert_eq!(slow.height(), fast.height());
            assert_eq!(slow.as_bytes(), fast.as_bytes(), "{w}x{h}");
        }
    }

    #[test]
    fn new_is_black() {
        let img = GrayImage::new(3, 2);
        assert_eq!(img.as_bytes(), &[0; 6]);
        assert_eq!(img.width(), 3);
        assert_eq!(img.height(), 2);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_panics() {
        let _ = GrayImage::new(0, 5);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut img = GrayImage::new(5, 5);
        img.set(4, 4, 255);
        img.set(0, 0, 7);
        assert_eq!(img.get(4, 4), 255);
        assert_eq!(img.get(0, 0), 7);
    }

    #[test]
    fn clamped_access() {
        let mut img = GrayImage::new(2, 2);
        img.set(0, 0, 10);
        img.set(1, 1, 20);
        assert_eq!(img.get_clamped(-100, -100), 10);
        assert_eq!(img.get_clamped(100, 100), 20);
    }

    #[test]
    fn bilinear_interpolates() {
        let mut img = GrayImage::new(2, 1);
        img.set(0, 0, 0);
        img.set(1, 0, 100);
        assert_eq!(img.sample_bilinear(0.5, 0.0), 50.0);
        assert_eq!(img.sample_bilinear(0.0, 0.0), 0.0);
        assert_eq!(img.sample_bilinear(1.0, 0.0), 100.0);
    }

    #[test]
    fn downsample_preserves_mean() {
        let mut img = GrayImage::new(4, 4);
        img.fill(80);
        let half = img.downsample_half();
        assert_eq!(half.width(), 2);
        assert_eq!(half.height(), 2);
        assert!(half.as_bytes().iter().all(|&v| v == 80));
    }

    #[test]
    fn sharpness_flat_vs_edge() {
        let mut flat = GrayImage::new(11, 11);
        flat.fill(128);
        let mut edge = GrayImage::new(11, 11);
        for y in 0..11 {
            for x in 0..11 {
                edge.set(x, y, if x < 5 { 0 } else { 255 });
            }
        }
        assert_eq!(flat.sharpness(5, 5, 3), 0.0);
        assert!(edge.sharpness(5, 5, 3) > 10.0);
    }

    #[test]
    fn box_blur_smooths_impulse() {
        let mut img = GrayImage::new(5, 5);
        img.set(2, 2, 255);
        let blurred = img.box_blur3();
        assert!(blurred.get(2, 2) < 255);
        assert!(blurred.get(1, 1) > 0);
    }

    #[test]
    fn from_raw_validates_length() {
        let img = GrayImage::from_raw(2, 2, vec![1, 2, 3, 4]);
        assert_eq!(img.get(1, 1), 4);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_raw_wrong_length_panics() {
        let _ = GrayImage::from_raw(2, 2, vec![1, 2, 3]);
    }
}
