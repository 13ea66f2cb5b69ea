//! Local trackers used by the baseline systems.
//!
//! The paper compares edgeIS against two retrofitted "track+detect"
//! systems: EAAR, which adapts cached results using **motion vectors**, and
//! EdgeDuet, which uses a **KCF** tracker. We implement both primitives:
//! a block-based motion-vector field and a correlation template tracker
//! (the KCF stand-in — same search-window template-correlation principle,
//! without the FFT kernel trick).

use crate::image::GrayImage;
use crate::mask::Mask;

/// A dense block-based motion-vector field between two frames.
///
/// Divides the frame into `block` × `block` pixels and finds, for each
/// block, the integer displacement (within ± `search`) minimizing the sum
/// of absolute differences — the same information a video codec's motion
/// estimation produces, which EAAR reuses for tracking.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionVectorField {
    block: u32,
    cols: u32,
    rows: u32,
    /// Per-block displacement `(dx, dy)` from previous to current frame.
    vectors: Vec<(i32, i32)>,
}

impl MotionVectorField {
    /// Estimates the field from `prev` to `curr`.
    ///
    /// # Panics
    ///
    /// Panics if the frames differ in size or `block == 0`.
    pub fn estimate(prev: &GrayImage, curr: &GrayImage, block: u32, search: i32) -> Self {
        assert_eq!(
            (prev.width(), prev.height()),
            (curr.width(), curr.height()),
            "frame size mismatch"
        );
        assert!(block > 0, "block size must be positive");
        let cols = prev.width().div_ceil(block);
        let rows = prev.height().div_ceil(block);
        let mut vectors = Vec::with_capacity((cols * rows) as usize);

        for by in 0..rows {
            for bx in 0..cols {
                let x0 = bx * block;
                let y0 = by * block;
                let mut best = (0i32, 0i32);
                let mut best_sad = u64::MAX;
                // Three-step-like coarse-to-fine search for speed.
                let mut center = (0i32, 0i32);
                let mut step = search.max(1);
                while step >= 1 {
                    let mut improved = false;
                    for dy in [-step, 0, step] {
                        for dx in [-step, 0, step] {
                            let cand = (center.0 + dx, center.1 + dy);
                            if cand.0.abs() > search || cand.1.abs() > search {
                                continue;
                            }
                            let sad = block_sad(prev, curr, x0, y0, block, cand);
                            if sad < best_sad {
                                best_sad = sad;
                                best = cand;
                                improved = true;
                            }
                        }
                    }
                    if improved {
                        center = best;
                    }
                    step /= 2;
                }
                vectors.push(best);
            }
        }
        Self {
            block,
            cols,
            rows,
            vectors,
        }
    }

    /// The motion vector covering pixel `(x, y)`.
    pub fn vector_at(&self, x: u32, y: u32) -> (i32, i32) {
        let bx = (x / self.block).min(self.cols - 1);
        let by = (y / self.block).min(self.rows - 1);
        self.vectors[(by * self.cols + bx) as usize]
    }

    /// Warps a mask forward along the field: every set pixel moves by its
    /// block's motion vector. This is the EAAR-style mask update.
    pub fn warp_mask(&self, mask: &Mask) -> Mask {
        let mut out = Mask::new(mask.width(), mask.height());
        for (x, y) in mask.iter_set() {
            let (dx, dy) = self.vector_at(x, y);
            out.set_checked(x as i64 + dx as i64, y as i64 + dy as i64, true);
        }
        // Close single-pixel cracks introduced by divergent block vectors.
        out.dilate(1).erode(1)
    }

    /// Mean motion vector over the blocks covered by a mask, in pixels —
    /// the regional motion estimate EAAR uses to shift an object contour.
    /// Falls back to the global mean for an empty mask.
    pub fn mean_vector_in(&self, mask: &Mask) -> (f64, f64) {
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut n = 0usize;
        let mut seen = std::collections::HashSet::new();
        for (x, y) in mask.iter_set() {
            let bx = (x / self.block).min(self.cols - 1);
            let by = (y / self.block).min(self.rows - 1);
            if seen.insert((bx, by)) {
                let (dx, dy) = self.vectors[(by * self.cols + bx) as usize];
                sx += dx as f64;
                sy += dy as f64;
                n += 1;
            }
        }
        if n == 0 {
            self.mean_vector()
        } else {
            (sx / n as f64, sy / n as f64)
        }
    }

    /// Mean motion vector over all blocks, in pixels (signed — global
    /// translation estimate).
    pub fn mean_vector(&self) -> (f64, f64) {
        if self.vectors.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.vectors.len() as f64;
        let sx: f64 = self.vectors.iter().map(|&(dx, _)| dx as f64).sum();
        let sy: f64 = self.vectors.iter().map(|&(_, dy)| dy as f64).sum();
        (sx / n, sy / n)
    }

    /// Mean motion magnitude over all blocks, in pixels.
    pub fn mean_magnitude(&self) -> f64 {
        if self.vectors.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .vectors
            .iter()
            .map(|&(dx, dy)| ((dx * dx + dy * dy) as f64).sqrt())
            .sum();
        sum / self.vectors.len() as f64
    }
}

fn block_sad(
    prev: &GrayImage,
    curr: &GrayImage,
    x0: u32,
    y0: u32,
    block: u32,
    (dx, dy): (i32, i32),
) -> u64 {
    let mut sad = 0u64;
    for y in y0..(y0 + block).min(prev.height()) {
        for x in x0..(x0 + block).min(prev.width()) {
            let p = prev.get(x, y) as i64;
            let c = curr.get_clamped(x as i64 + dx as i64, y as i64 + dy as i64) as i64;
            sad += (p - c).unsigned_abs();
        }
    }
    sad
}

/// A correlation template tracker over a search window — the KCF stand-in
/// used for the EdgeDuet baseline. Tracks an axis-aligned box by normalized
/// cross-correlation of a grayscale template.
#[derive(Debug, Clone)]
pub struct CorrelationTracker {
    template: GrayImage,
    /// Current top-left corner of the tracked box.
    pub x: i64,
    /// Current top-left corner of the tracked box.
    pub y: i64,
    search: i64,
}

impl CorrelationTracker {
    /// Initializes the tracker on `frame` with box top-left `(x, y)` and the
    /// template taken as `w`×`h` pixels.
    ///
    /// # Panics
    ///
    /// Panics if the box is degenerate.
    pub fn new(frame: &GrayImage, x: u32, y: u32, w: u32, h: u32, search: u32) -> Self {
        assert!(w > 0 && h > 0, "template must be non-empty");
        let mut template = GrayImage::new(w, h);
        for ty in 0..h {
            for tx in 0..w {
                template.set(tx, ty, frame.get_clamped((x + tx) as i64, (y + ty) as i64));
            }
        }
        Self {
            template,
            x: x as i64,
            y: y as i64,
            search: search as i64,
        }
    }

    /// Template width.
    pub fn width(&self) -> u32 {
        self.template.width()
    }

    /// Template height.
    pub fn height(&self) -> u32 {
        self.template.height()
    }

    /// Advances the tracker on a new frame; returns the correlation score of
    /// the best location in `[-1, 1]` (higher is more confident).
    pub fn update(&mut self, frame: &GrayImage) -> f64 {
        let (w, h) = (self.template.width(), self.template.height());
        let mut best_score = -2.0;
        let mut best = (self.x, self.y);
        for dy in -self.search..=self.search {
            for dx in -self.search..=self.search {
                let ox = self.x + dx;
                let oy = self.y + dy;
                let score = ncc(&self.template, frame, ox, oy, w, h);
                if score > best_score {
                    best_score = score;
                    best = (ox, oy);
                }
            }
        }
        self.x = best.0;
        self.y = best.1;
        // Light template update (learning rate 0.1) like online KCF.
        for ty in 0..h {
            for tx in 0..w {
                let cur = frame.get_clamped(self.x + tx as i64, self.y + ty as i64) as f64;
                let old = self.template.get(tx, ty) as f64;
                self.template.set(tx, ty, (old * 0.9 + cur * 0.1) as u8);
            }
        }
        best_score
    }
}

/// Normalized cross-correlation of a template at offset `(ox, oy)`.
fn ncc(template: &GrayImage, frame: &GrayImage, ox: i64, oy: i64, w: u32, h: u32) -> f64 {
    let n = (w * h) as f64;
    let mut sum_t = 0.0;
    let mut sum_f = 0.0;
    for y in 0..h {
        for x in 0..w {
            sum_t += template.get(x, y) as f64;
            sum_f += frame.get_clamped(ox + x as i64, oy + y as i64) as f64;
        }
    }
    let mean_t = sum_t / n;
    let mean_f = sum_f / n;
    let mut num = 0.0;
    let mut den_t = 0.0;
    let mut den_f = 0.0;
    for y in 0..h {
        for x in 0..w {
            let t = template.get(x, y) as f64 - mean_t;
            let f = frame.get_clamped(ox + x as i64, oy + y as i64) as f64 - mean_f;
            num += t * f;
            den_t += t * t;
            den_f += f * f;
        }
    }
    let den = (den_t * den_f).sqrt();
    if den < 1e-9 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame with a bright *textured* square at `(x, y)` on a gradient
    /// background. The texture moves with the square, so block matching and
    /// correlation have an unambiguous optimum (no aperture problem).
    fn frame_with_square(x: u32, y: u32) -> GrayImage {
        let mut img = GrayImage::new(96, 96);
        for yy in 0..96 {
            for xx in 0..96 {
                img.set(xx, yy, ((xx / 2 + yy / 3) % 97) as u8);
            }
        }
        for yy in y..(y + 12).min(96) {
            for xx in x..(x + 12).min(96) {
                let (lx, ly) = (xx - x, yy - y);
                let v = 180 + ((lx * 37 + ly * 17 + lx * ly) % 70) as u8;
                img.set(xx, yy, v);
            }
        }
        img
    }

    #[test]
    fn motion_vectors_recover_global_shift() {
        let prev = frame_with_square(30, 30);
        let curr = frame_with_square(34, 32);
        let mv = MotionVectorField::estimate(&prev, &curr, 8, 8);
        // The blocks covering the square should show ~(4, 2).
        let (dx, dy) = mv.vector_at(33, 33);
        assert!((dx - 4).abs() <= 1, "dx = {dx}");
        assert!((dy - 2).abs() <= 1, "dy = {dy}");
    }

    #[test]
    fn warp_mask_follows_motion() {
        let prev = frame_with_square(20, 40);
        let curr = frame_with_square(26, 40);
        let mv = MotionVectorField::estimate(&prev, &curr, 8, 8);
        let mut mask = Mask::new(96, 96);
        mask.fill_rect(20, 40, 12, 12);
        let warped = mv.warp_mask(&mask);
        let mut expected = Mask::new(96, 96);
        expected.fill_rect(26, 40, 12, 12);
        let overlap = warped.intersection_area(&expected) as f64 / expected.area() as f64;
        assert!(overlap > 0.6, "overlap {overlap}");
    }

    #[test]
    fn zero_motion_field() {
        let f = frame_with_square(10, 10);
        let mv = MotionVectorField::estimate(&f, &f, 8, 8);
        assert_eq!(mv.mean_magnitude(), 0.0);
        assert_eq!(mv.vector_at(12, 12), (0, 0));
    }

    #[test]
    fn correlation_tracker_follows_target() {
        let f0 = frame_with_square(40, 40);
        let mut tracker = CorrelationTracker::new(&f0, 40, 40, 12, 12, 10);
        let f1 = frame_with_square(45, 43);
        let score = tracker.update(&f1);
        assert!(score > 0.8, "low confidence {score}");
        assert!((tracker.x - 45).abs() <= 1, "x = {}", tracker.x);
        assert!((tracker.y - 43).abs() <= 1, "y = {}", tracker.y);
    }

    #[test]
    fn correlation_tracker_multi_frame() {
        let mut tracker = CorrelationTracker::new(&frame_with_square(20, 20), 20, 20, 12, 12, 6);
        let mut pos = (20u32, 20u32);
        for step in 1..=8 {
            pos = (20 + step * 3, 20 + step * 2);
            tracker.update(&frame_with_square(pos.0, pos.1));
        }
        assert!((tracker.x - pos.0 as i64).abs() <= 2);
        assert!((tracker.y - pos.1 as i64).abs() <= 2);
    }

    #[test]
    fn tracker_drifts_when_target_jumps_beyond_search() {
        // A jump larger than the search radius cannot be followed in one
        // update — this is exactly the failure mode the paper attributes to
        // "track+detect" local trackers under fast motion.
        let f0 = frame_with_square(20, 20);
        let mut tracker = CorrelationTracker::new(&f0, 20, 20, 12, 12, 4);
        let f1 = frame_with_square(60, 60);
        tracker.update(&f1);
        assert!(
            (tracker.x - 60).abs() > 10,
            "tracker should have lost the target"
        );
    }

    #[test]
    #[should_panic(expected = "frame size mismatch")]
    fn size_mismatch_panics() {
        let a = GrayImage::new(10, 10);
        let b = GrayImage::new(12, 10);
        let _ = MotionVectorField::estimate(&a, &b, 4, 4);
    }
}
