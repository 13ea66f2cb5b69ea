//! Tile-level video encoder simulator — the substrate for the paper's
//! content-based fine-grained RoI selection (§V).
//!
//! The original system encodes frames with Kvazaar (HEVC) using different
//! quality levels per tile. What CFRS's claims rest on is the
//! *rate/distortion trade-off per tile*: object tiles keep high quality
//! (more bits), background tiles are crushed (few bits), and decoded
//! quality feeds the edge model's accuracy. This crate models exactly
//! that:
//!
//! * [`TileGrid`] — frame partition into fixed-size tiles,
//! * [`QualityLevel`] — the per-tile encoding levels of Fig. 8c/d,
//! * [`encode`] — a rate model: bits per tile grow with the tile's content
//!   complexity (gradient energy) and its quality level,
//! * [`EncodedFrame::instance_quality`] — the decoded quality an object
//!   region ends up with, consumed by the edge model simulator.

use edgeis_imaging::{gradient_energy_into, GrayImage, IntegralImage, Mask};

/// Per-tile encoding quality level (Fig. 8c: object areas, newly observed
/// areas, plain background).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QualityLevel {
    /// Highest quality — areas containing objects of interest.
    High,
    /// Medium quality — newly observed areas needing annotation.
    Medium,
    /// Heavy compression — content-free background.
    Low,
    /// Tile is skipped entirely (not transmitted; decoder reuses the
    /// previous content).
    Skip,
}

impl QualityLevel {
    /// Decoded quality in `[0, 1]` (1 = visually lossless).
    pub fn decoded_quality(self) -> f64 {
        match self {
            QualityLevel::High => 0.97,
            QualityLevel::Medium => 0.80,
            QualityLevel::Low => 0.45,
            QualityLevel::Skip => 0.0,
        }
    }

    /// Rate multiplier relative to high quality.
    pub fn rate_factor(self) -> f64 {
        match self {
            QualityLevel::High => 1.0,
            QualityLevel::Medium => 0.45,
            QualityLevel::Low => 0.12,
            QualityLevel::Skip => 0.0,
        }
    }
}

/// A fixed-size tile partition of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    /// Tile side length in pixels.
    pub tile_size: u32,
    /// Frame width.
    pub width: u32,
    /// Frame height.
    pub height: u32,
}

impl TileGrid {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics if `tile_size == 0`.
    pub fn new(tile_size: u32, width: u32, height: u32) -> Self {
        assert!(tile_size > 0, "tile size must be positive");
        Self {
            tile_size,
            width,
            height,
        }
    }

    /// Number of tile columns.
    pub fn cols(&self) -> u32 {
        self.width.div_ceil(self.tile_size)
    }

    /// Number of tile rows.
    pub fn rows(&self) -> u32 {
        self.height.div_ceil(self.tile_size)
    }

    /// Total tiles.
    pub fn len(&self) -> usize {
        (self.cols() * self.rows()) as usize
    }

    /// Whether the grid has no tiles (never true for valid frames).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tile index containing pixel `(x, y)`.
    pub fn tile_of(&self, x: u32, y: u32) -> usize {
        let tx = (x / self.tile_size).min(self.cols() - 1);
        let ty = (y / self.tile_size).min(self.rows() - 1);
        (ty * self.cols() + tx) as usize
    }

    /// Pixel rectangle `(x, y, w, h)` of tile `idx`.
    pub fn tile_rect(&self, idx: usize) -> (u32, u32, u32, u32) {
        let tx = idx as u32 % self.cols();
        let ty = idx as u32 / self.cols();
        let x = tx * self.tile_size;
        let y = ty * self.tile_size;
        (
            x,
            y,
            self.tile_size.min(self.width - x),
            self.tile_size.min(self.height - y),
        )
    }

    /// Marks every tile that any set pixel of `mask` touches.
    ///
    /// Only the mask's bounding box is scanned, so the cost tracks the
    /// object size rather than the frame size.
    pub fn tiles_touching(&self, mask: &Mask) -> Vec<usize> {
        let mut hit = vec![false; self.len()];
        if let Some((x0, y0, x1, y1)) = mask.bounding_box() {
            for y in y0..y1 {
                for x in x0..x1 {
                    if mask.get(x, y) {
                        hit[self.tile_of(x, y)] = true;
                    }
                }
            }
        }
        hit.iter()
            .enumerate()
            .filter(|(_, &h)| h)
            .map(|(i, _)| i)
            .collect()
    }
}

/// A per-tile quality assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct TilePlan {
    /// The grid the plan refers to.
    pub grid: TileGrid,
    /// Quality level per tile (row-major).
    pub levels: Vec<QualityLevel>,
}

impl TilePlan {
    /// A uniform plan (e.g. all-high for naive offloading baselines).
    pub fn uniform(grid: TileGrid, level: QualityLevel) -> Self {
        Self {
            levels: vec![level; grid.len()],
            grid,
        }
    }

    /// Upgrades the tiles in `indices` to `level` if higher than current.
    pub fn raise(&mut self, indices: &[usize], level: QualityLevel) {
        let rank = |l: QualityLevel| match l {
            QualityLevel::High => 3,
            QualityLevel::Medium => 2,
            QualityLevel::Low => 1,
            QualityLevel::Skip => 0,
        };
        for &i in indices {
            if rank(level) > rank(self.levels[i]) {
                self.levels[i] = level;
            }
        }
    }

    /// Number of tiles at each level `(high, medium, low, skip)`.
    pub fn level_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for l in &self.levels {
            match l {
                QualityLevel::High => c.0 += 1,
                QualityLevel::Medium => c.1 += 1,
                QualityLevel::Low => c.2 += 1,
                QualityLevel::Skip => c.3 += 1,
            }
        }
        c
    }
}

/// The result of encoding a frame under a tile plan.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedFrame {
    /// The plan used.
    pub plan: TilePlan,
    /// Encoded size per tile in bytes.
    pub tile_bytes: Vec<usize>,
}

impl EncodedFrame {
    /// Total encoded bytes (plus a small container header).
    pub fn total_bytes(&self) -> usize {
        64 + self.tile_bytes.iter().sum::<usize>()
    }

    /// Decoded quality of an instance region: the area-weighted mean of the
    /// decoded quality of the tiles its mask covers.
    ///
    /// Scans only the mask's bounding box, visiting set pixels in the same
    /// row-major order as `iter_set`, so the floating-point sum — and the
    /// result — is bit-identical to the full-frame scan.
    pub fn instance_quality(&self, mask: &Mask) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        if let Some((x0, y0, x1, y1)) = mask.bounding_box() {
            for y in y0..y1 {
                for x in x0..x1 {
                    if mask.get(x, y) {
                        let t = self.plan.grid.tile_of(x, y);
                        sum += self.plan.levels[t].decoded_quality();
                        n += 1;
                    }
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Reusable per-frame scratch for [`encode_with_scratch`]: the gradient
/// energy buffer and the summed-area table are the encoder's only
/// transient allocations, and both are frame-sized, so reusing them
/// removes two large allocations from every encoded frame.
#[derive(Debug, Default, Clone)]
pub struct EncodeScratch {
    energy: Vec<u64>,
    integral: Option<IntegralImage>,
}

impl EncodeScratch {
    /// Current heap bytes held by the scratch (feeds the perf harness'
    /// scratch accounting; monotone under reuse, so it is its own peak).
    pub fn peak_bytes(&self) -> usize {
        self.energy.capacity() * std::mem::size_of::<u64>()
            + self.integral.as_ref().map_or(0, |ii| ii.heap_bytes())
    }
}

/// Encodes a frame under a tile plan: each tile costs
/// `header + k · complexity · rate_factor` bytes, where complexity is the
/// tile's gradient energy (detailed content costs more bits, exactly like
/// a real transform codec).
pub fn encode(frame: &GrayImage, plan: &TilePlan) -> EncodedFrame {
    encode_with_scratch(frame, plan, &mut EncodeScratch::default())
}

/// [`encode`] with caller-owned scratch: the energy map and integral
/// image are rebuilt in place instead of reallocated, and the result is
/// bit-identical to [`encode`] (which delegates here).
pub fn encode_with_scratch(
    frame: &GrayImage,
    plan: &TilePlan,
    scratch: &mut EncodeScratch,
) -> EncodedFrame {
    assert_eq!(frame.width(), plan.grid.width, "frame/grid width mismatch");
    assert_eq!(
        frame.height(),
        plan.grid.height,
        "frame/grid height mismatch"
    );
    gradient_energy_into(frame, &mut scratch.energy);
    let ii = match scratch.integral.as_mut() {
        Some(ii) => {
            ii.assign_from_values(frame.width(), frame.height(), &scratch.energy);
            &*ii
        }
        None => scratch.integral.insert(IntegralImage::from_values(
            frame.width(),
            frame.height(),
            &scratch.energy,
        )),
    };

    let tile_bytes = plan
        .levels
        .iter()
        .enumerate()
        .map(|(i, &level)| {
            if level == QualityLevel::Skip {
                return 2; // skip flag
            }
            let (x, y, w, h) = plan.grid.tile_rect(i);
            let complexity = ii.rect_sum(x, y, w, h) as f64;
            // ~0.02 bits per unit of gradient energy at high quality, with
            // a floor representing headers + DC coefficients.
            let bits = 96.0 + 0.02 * complexity * level.rate_factor();
            (bits / 8.0).ceil() as usize
        })
        .collect();

    EncodedFrame {
        plan: plan.clone(),
        tile_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured_frame(w: u32, h: u32) -> GrayImage {
        let mut img = GrayImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, (x.wrapping_mul(37) ^ y.wrapping_mul(91)) as u8);
            }
        }
        img
    }

    #[test]
    fn grid_geometry() {
        let g = TileGrid::new(16, 100, 50);
        assert_eq!(g.cols(), 7);
        assert_eq!(g.rows(), 4);
        assert_eq!(g.len(), 28);
        assert_eq!(g.tile_of(0, 0), 0);
        assert_eq!(g.tile_of(99, 49), 27);
        // Edge tile is clipped.
        let (x, y, w, h) = g.tile_rect(27);
        assert_eq!((x, y, w, h), (96, 48, 4, 2));
    }

    #[test]
    fn tiles_touching_mask() {
        let g = TileGrid::new(16, 64, 64);
        let mut m = Mask::new(64, 64);
        // x 10..30 spans tile columns 0-1; y 10..18 spans rows 0-1.
        m.fill_rect(10, 10, 20, 8);
        let tiles = g.tiles_touching(&m);
        assert_eq!(tiles, vec![0, 1, 4, 5]);
    }

    #[test]
    fn high_quality_costs_more() {
        let frame = textured_frame(64, 64);
        let grid = TileGrid::new(16, 64, 64);
        let hi = encode(&frame, &TilePlan::uniform(grid, QualityLevel::High));
        let lo = encode(&frame, &TilePlan::uniform(grid, QualityLevel::Low));
        assert!(
            hi.total_bytes() > lo.total_bytes() * 2,
            "high {} vs low {}",
            hi.total_bytes(),
            lo.total_bytes()
        );
    }

    #[test]
    fn complex_content_costs_more() {
        let flat = GrayImage::new(64, 64);
        let textured = textured_frame(64, 64);
        let grid = TileGrid::new(16, 64, 64);
        let plan = TilePlan::uniform(grid, QualityLevel::High);
        assert!(encode(&textured, &plan).total_bytes() > encode(&flat, &plan).total_bytes());
    }

    #[test]
    fn skip_tiles_are_nearly_free() {
        let frame = textured_frame(64, 64);
        let grid = TileGrid::new(16, 64, 64);
        let skip = encode(&frame, &TilePlan::uniform(grid, QualityLevel::Skip));
        assert!(skip.total_bytes() < 64 + 2 * grid.len() + 1);
    }

    #[test]
    fn raise_only_upgrades() {
        let grid = TileGrid::new(16, 64, 64);
        let mut plan = TilePlan::uniform(grid, QualityLevel::Low);
        plan.raise(&[0, 1], QualityLevel::High);
        plan.raise(&[0], QualityLevel::Medium); // no-op: High > Medium
        assert_eq!(plan.levels[0], QualityLevel::High);
        assert_eq!(plan.levels[1], QualityLevel::High);
        assert_eq!(plan.levels[2], QualityLevel::Low);
        assert_eq!(plan.level_counts(), (2, 0, 14, 0));
    }

    #[test]
    fn instance_quality_reflects_tile_levels() {
        let grid = TileGrid::new(16, 64, 64);
        let frame = textured_frame(64, 64);
        let mut plan = TilePlan::uniform(grid, QualityLevel::Low);
        plan.raise(&[0], QualityLevel::High);
        let encoded = encode(&frame, &plan);
        let mut obj_in_hi = Mask::new(64, 64);
        obj_in_hi.fill_rect(2, 2, 10, 10);
        let mut obj_in_lo = Mask::new(64, 64);
        obj_in_lo.fill_rect(40, 40, 10, 10);
        assert!(encoded.instance_quality(&obj_in_hi) > 0.9);
        assert!(encoded.instance_quality(&obj_in_lo) < 0.6);
    }

    #[test]
    fn instance_quality_empty_mask_is_zero() {
        let grid = TileGrid::new(16, 32, 32);
        let encoded = encode(
            &textured_frame(32, 32),
            &TilePlan::uniform(grid, QualityLevel::High),
        );
        assert_eq!(encoded.instance_quality(&Mask::new(32, 32)), 0.0);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_encode() {
        let grid = TileGrid::new(16, 96, 80);
        let mut scratch = EncodeScratch::default();
        for seed in [3u32, 19, 77] {
            let mut frame = GrayImage::new(96, 80);
            for y in 0..80 {
                for x in 0..96 {
                    frame.set(x, y, (x.wrapping_mul(seed) ^ y.wrapping_mul(5)) as u8);
                }
            }
            let mut plan = TilePlan::uniform(grid, QualityLevel::Low);
            plan.raise(&[1, 2, 9], QualityLevel::High);
            let reused = encode_with_scratch(&frame, &plan, &mut scratch);
            assert_eq!(reused, encode(&frame, &plan), "seed {seed}");
        }
        assert!(scratch.peak_bytes() > 0, "scratch holds the frame buffers");
    }

    #[test]
    fn bbox_scan_matches_full_scan_semantics() {
        // A sparse mask away from the origin: tiles and quality computed
        // through the bounding-box scan must agree with a straightforward
        // iter_set pass.
        let grid = TileGrid::new(16, 128, 128);
        let mut m = Mask::new(128, 128);
        m.fill_rect(70, 90, 21, 9);
        m.set(100, 100, true);
        let tiles = grid.tiles_touching(&m);
        let mut expect: Vec<usize> = m.iter_set().map(|(x, y)| grid.tile_of(x, y)).collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(tiles, expect);

        let frame = textured_frame(128, 128);
        let encoded = encode(&frame, &TilePlan::uniform(grid, QualityLevel::Medium));
        let mut sum = 0.0;
        let mut n = 0usize;
        for (x, y) in m.iter_set() {
            sum += encoded.plan.levels[grid.tile_of(x, y)].decoded_quality();
            n += 1;
        }
        assert_eq!(encoded.instance_quality(&m), sum / n as f64);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn size_mismatch_panics() {
        let grid = TileGrid::new(16, 64, 64);
        let _ = encode(
            &textured_frame(32, 32),
            &TilePlan::uniform(grid, QualityLevel::High),
        );
    }
}
