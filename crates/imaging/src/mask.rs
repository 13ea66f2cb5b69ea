//! Instance masks, label maps, RLE compression and IoU (Eq. 8 of the paper).

/// A binary instance mask over an image.
///
/// # Example
///
/// ```
/// use edgeis_imaging::Mask;
/// let mut m = Mask::new(10, 10);
/// m.fill_rect(2, 2, 5, 5);
/// assert_eq!(m.area(), 25);
/// assert_eq!(m.bounding_box(), Some((2, 2, 7, 7)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    width: u32,
    height: u32,
    bits: Vec<bool>,
}

impl Mask {
    /// Creates an empty (all-false) mask.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "mask must be non-empty");
        Self {
            width,
            height,
            bits: vec![false; (width * height) as usize],
        }
    }

    /// Mask width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Mask height.
    pub fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        (y * self.width + x) as usize
    }

    /// Whether pixel `(x, y)` is inside the mask.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> bool {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.bits[self.idx(x, y)]
    }

    /// Out-of-bounds-tolerant accessor: pixels outside return `false`.
    #[inline]
    pub fn get_or_false(&self, x: i64, y: i64) -> bool {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            false
        } else {
            self.bits[(y as u32 * self.width + x as u32) as usize]
        }
    }

    /// Sets pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: bool) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = self.idx(x, y);
        self.bits[i] = v;
    }

    /// Sets pixel if inside bounds; ignores outside writes.
    #[inline]
    pub fn set_checked(&mut self, x: i64, y: i64, v: bool) {
        if x >= 0 && y >= 0 && x < self.width as i64 && y < self.height as i64 {
            let i = (y as u32 * self.width + x as u32) as usize;
            self.bits[i] = v;
        }
    }

    /// Fills an axis-aligned rectangle `[x, x+w) × [y, y+h)`, clipped to the
    /// image.
    pub fn fill_rect(&mut self, x: u32, y: u32, w: u32, h: u32) {
        for yy in y..(y + h).min(self.height) {
            for xx in x..(x + w).min(self.width) {
                let i = self.idx(xx, yy);
                self.bits[i] = true;
            }
        }
    }

    /// Number of set pixels.
    pub fn area(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Whether no pixel is set.
    pub fn is_empty(&self) -> bool {
        first_set(&self.bits).is_none()
    }

    /// Tight bounding box `(x0, y0, x1, y1)` with exclusive max, or `None`
    /// for an empty mask.
    ///
    /// The first and last set pixels give the rows; the pixels before and
    /// after them are skipped 64 at a time. After the first set row only
    /// the columns outside the current box are searched.
    pub fn bounding_box(&self) -> Option<(u32, u32, u32, u32)> {
        let w = self.width as usize;
        let y0 = first_set(&self.bits)? / w;
        let y1 = last_set(&self.bits)? / w + 1;
        let (mut x0, mut x1) = (w, 0);
        for row in self.bits.chunks_exact(w).take(y1).skip(y0) {
            if let Some(x) = first_set(&row[..x0]) {
                x0 = x;
            }
            if let Some(dx) = last_set(&row[x1..]) {
                x1 += dx + 1;
            }
        }
        Some((x0 as u32, y0 as u32, x1 as u32, y1 as u32))
    }

    /// Centroid of the set pixels, or `None` for an empty mask.
    ///
    /// Sums integer coordinates over the bounding box's rows. While the
    /// sums stay below 2^53 (any mask up to 2^17 pixels a side), every
    /// partial sum of a per-pixel `f64` accumulation is exact too, so the
    /// result is that accumulation's to the bit.
    pub fn centroid(&self) -> Option<(f64, f64)> {
        let (x0, y0, x1, y1) = self.bounding_box()?;
        let w = self.width as usize;
        let (x0, x1) = (x0 as usize, x1 as usize);
        let (mut sx, mut sy, mut n) = (0u64, 0u64, 0u64);
        for y in y0 as usize..y1 as usize {
            let row = &self.bits[y * w + x0..y * w + x1];
            let (mut row_sx, mut row_n) = (0u64, 0u64);
            for (x, &b) in (x0 as u64..).zip(row) {
                row_sx += x * b as u64;
                row_n += b as u64;
            }
            sx += row_sx;
            sy += y as u64 * row_n;
            n += row_n;
        }
        Some((sx as f64 / n as f64, sy as f64 / n as f64))
    }

    /// Morphological dilation by a square structuring element of the given
    /// radius: a pixel is set when any pixel within Chebyshev distance
    /// `radius` is set (pixels outside the image count as unset).
    ///
    /// Runs as two separable passes, a row pass then a column pass, over
    /// the bounding box grown by `radius`, so it costs
    /// O((box + radius)² · radius) rather than O(frame · radius²).
    pub fn dilate(&self, radius: u32) -> Mask {
        let mut out = Mask::new(self.width, self.height);
        let Some((x0, y0, x1, y1)) = self.bounding_box() else {
            return out;
        };
        let (w, h, r) = (self.width as usize, self.height as usize, radius as usize);
        let (x0, y0, x1, y1) = (x0 as usize, y0 as usize, x1 as usize, y1 as usize);
        let (ox0, ox1) = (x0.saturating_sub(r), x1.saturating_add(r).min(w));
        let span = ox1 - ox0;
        // Row pass: the box's rows, dilated horizontally into a band of
        // columns `ox0..ox1`.
        let mut band = vec![false; (y1 - y0) * span];
        for (y, dst) in (y0..y1).zip(band.chunks_exact_mut(span)) {
            for_each_run(&self.bits[y * w + x0..y * w + x1], |s, e| {
                let lo = (x0 + s).saturating_sub(r) - ox0;
                let hi = (x0 + e).saturating_add(r).min(ox1) - ox0;
                dst[lo..hi].fill(true);
            });
        }
        // Column pass: each output row ORs the band rows within `radius`.
        for y in y0.saturating_sub(r)..y1.saturating_add(r).min(h) {
            let dst = &mut out.bits[y * w + ox0..y * w + ox1];
            for src in band
                .chunks_exact(span)
                .take(y.saturating_add(r).min(y1 - 1) + 1 - y0)
                .skip(y.saturating_sub(r).max(y0) - y0)
            {
                dst.iter_mut().zip(src).for_each(|(d, &s)| *d |= s);
            }
        }
        out
    }

    /// Morphological erosion by a square structuring element: a pixel
    /// stays set when every pixel within Chebyshev distance `radius` is
    /// set. Pixels outside the image count as unset, so erosion clears a
    /// `radius`-wide border.
    ///
    /// Runs as two separable passes restricted to the bounding box (the
    /// result never leaves it).
    pub fn erode(&self, radius: u32) -> Mask {
        let mut out = Mask::new(self.width, self.height);
        let Some((x0, y0, x1, y1)) = self.bounding_box() else {
            return out;
        };
        let (w, r) = (self.width as usize, radius as usize);
        let (x0, y0, x1, y1) = (x0 as usize, y0 as usize, x1 as usize, y1 as usize);
        let span = x1 - x0;
        // Row pass: each run of the box's rows shrinks by `radius` per side.
        let mut band = vec![false; (y1 - y0) * span];
        for (y, dst) in (y0..y1).zip(band.chunks_exact_mut(span)) {
            for_each_run(&self.bits[y * w + x0..y * w + x1], |s, e| {
                let (lo, hi) = (s.saturating_add(r), e.saturating_sub(r));
                if lo < hi {
                    dst[lo..hi].fill(true);
                }
            });
        }
        // Column pass: rows within `radius` of the box's edge see an unset
        // row (or the image border) and stay clear.
        for y in y0.saturating_add(r)..y1.saturating_sub(r) {
            let dst = &mut out.bits[y * w + x0..y * w + x1];
            let mut rows = band.chunks_exact(span).skip(y - r - y0).take(2 * r + 1);
            dst.copy_from_slice(rows.next().expect("window holds its centre row"));
            for src in rows {
                dst.iter_mut().zip(src).for_each(|(d, &s)| *d &= s);
            }
        }
        out
    }

    /// Row `y` of the bitmap, for kernels that fill whole spans.
    pub(crate) fn row_mut(&mut self, y: u32) -> &mut [bool] {
        let w = self.width as usize;
        &mut self.bits[y as usize * w..(y as usize + 1) * w]
    }

    /// Sets every pixel that is set in `other` (in-place union), ORing
    /// only the rows of `other`'s bounding box.
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn union_with(&mut self, other: &Mask) {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "mask size mismatch"
        );
        let Some((x0, y0, x1, y1)) = other.bounding_box() else {
            return;
        };
        let w = self.width as usize;
        let (x0, x1) = (x0 as usize, x1 as usize);
        for y in y0 as usize..y1 as usize {
            let span = y * w + x0..y * w + x1;
            self.bits[span.clone()]
                .iter_mut()
                .zip(&other.bits[span])
                .for_each(|(d, &s)| *d |= s);
        }
    }

    /// Intersection area with another mask.
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn intersection_area(&self, other: &Mask) -> usize {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "mask size mismatch"
        );
        self.bits
            .iter()
            .zip(other.bits.iter())
            .filter(|(&a, &b)| a && b)
            .count()
    }

    /// Union area with another mask.
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn union_area(&self, other: &Mask) -> usize {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "mask size mismatch"
        );
        self.bits
            .iter()
            .zip(other.bits.iter())
            .filter(|(&a, &b)| a || b)
            .count()
    }

    /// Run-length encodes the mask.
    pub fn to_rle(&self) -> RleMask {
        let mut runs = Vec::new();
        self.for_each_rle_run(|r| runs.push(r));
        RleMask {
            width: self.width,
            height: self.height,
            runs,
        }
    }

    /// Streams the mask's RLE run lengths (alternating false/true,
    /// starting with false — the same sequence [`Self::to_rle`] collects)
    /// without materialising an [`RleMask`], so a wire encoder can write
    /// the runs straight into its output buffer.
    pub fn for_each_rle_run(&self, mut emit: impl FnMut(u32)) {
        const CHUNK: usize = 64;
        let bits = &self.bits;
        let mut current = false;
        let mut len = 0u32;
        let mut i = 0;
        while i < bits.len() {
            // An aligned chunk that only continues the current run is
            // skipped whole: the fold vectorizes, where the per-pixel
            // branch below does not.
            if i % CHUNK == 0 {
                if let Some(chunk) = bits.get(i..i + CHUNK) {
                    let continues = if current {
                        chunk.iter().fold(true, |all, &b| all & b)
                    } else {
                        !chunk.iter().fold(false, |any, &b| any | b)
                    };
                    if continues {
                        len += CHUNK as u32;
                        i += CHUNK;
                        continue;
                    }
                }
            }
            if bits[i] == current {
                len += 1;
            } else {
                emit(len);
                current = bits[i];
                len = 1;
            }
            i += 1;
        }
        emit(len);
    }

    /// Builds a mask by streaming alternating false/true run lengths
    /// (starting with false) straight into the bitmap — the decoding dual
    /// of [`Self::for_each_rle_run`], filling whole runs at a time instead
    /// of going through an intermediate [`RleMask`] and per-pixel sets.
    ///
    /// Returns `None` when a dimension is zero or the runs do not cover
    /// exactly `width * height` pixels.
    pub fn from_rle_runs(
        width: u32,
        height: u32,
        runs: impl IntoIterator<Item = u32>,
    ) -> Option<Self> {
        if width == 0 || height == 0 {
            return None;
        }
        let total = width as u64 * height as u64;
        let mut bits = vec![false; total as usize];
        let mut pos = 0u64;
        let mut value = false;
        for run in runs {
            let end = pos + run as u64;
            if end > total {
                return None;
            }
            if value {
                bits[pos as usize..end as usize].fill(true);
            }
            pos = end;
            value = !value;
        }
        (pos == total).then_some(Self {
            width,
            height,
            bits,
        })
    }

    /// Iterates over set pixel coordinates in raster order, visiting only
    /// the bounding box's rows.
    pub fn iter_set(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let w = self.width as usize;
        let (x0, y0, x1, y1) = self.bounding_box().unwrap_or((0, 0, 0, 0));
        (y0..y1).flat_map(move |y| {
            let row = &self.bits[y as usize * w..][x0 as usize..x1 as usize];
            (x0..)
                .zip(row)
                .filter(|&(_, &b)| b)
                .map(move |(x, _)| (x, y))
        })
    }
}

/// Intersection-over-union between two masks (Eq. 8).
///
/// Two empty masks have IoU 1 (a correct "nothing there" prediction).
///
/// # Panics
///
/// Panics if sizes differ.
pub fn iou(a: &Mask, b: &Mask) -> f64 {
    let union = a.union_area(b);
    if union == 0 {
        return 1.0;
    }
    a.intersection_area(b) as f64 / union as f64
}

/// Pixels per chunk that [`first_set`] and [`last_set`] test at once.
const SCAN_CHUNK: usize = 64;

/// Whether any pixel of `chunk` is set, as a fold without early exit over
/// a fixed-size chunk: it vectorizes, where `contains` and `any` test one
/// pixel at a time.
#[inline]
fn any_set(chunk: &[bool]) -> bool {
    let chunk: &[bool; SCAN_CHUNK] = chunk.try_into().expect("a whole chunk");
    chunk.iter().fold(false, |any, &b| any | b)
}

/// Index of the first set pixel: clear chunks are skipped whole, then the
/// chunk holding it (or the short tail) is searched.
fn first_set(bits: &[bool]) -> Option<usize> {
    let mut chunks = bits.chunks_exact(SCAN_CHUNK);
    let tail = chunks.remainder().len();
    let start = match chunks.position(any_set) {
        Some(i) => i * SCAN_CHUNK,
        None => bits.len() - tail,
    };
    Some(start + bits[start..].iter().position(|&b| b)?)
}

/// Index of the last set pixel, the mirror of [`first_set`].
fn last_set(bits: &[bool]) -> Option<usize> {
    let mut chunks = bits.rchunks_exact(SCAN_CHUNK);
    let head = chunks.remainder().len();
    let end = match chunks.position(any_set) {
        Some(i) => bits.len() - i * SCAN_CHUNK,
        None => head,
    };
    bits[..end].iter().rposition(|&b| b)
}

/// Calls `f(start, end)` for each maximal run of set pixels in `row`.
fn for_each_run(row: &[bool], mut f: impl FnMut(usize, usize)) {
    let mut x = 0;
    while let Some(dx) = row[x..].iter().position(|&b| b) {
        let start = x + dx;
        let end = row[start..]
            .iter()
            .position(|&b| !b)
            .map_or(row.len(), |n| start + n);
        f(start, end);
        x = end;
    }
}

/// A run-length-encoded mask: alternating false/true run lengths starting
/// with false. This is the wire format for mask transmission between the
/// edge and the mobile device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleMask {
    width: u32,
    height: u32,
    runs: Vec<u32>,
}

impl RleMask {
    /// The alternating false/true run lengths (starting with false).
    pub fn runs(&self) -> &[u32] {
        &self.runs
    }

    /// Decodes back into a bitmap mask.
    pub fn to_mask(&self) -> Mask {
        // Only `Mask::to_rle` builds an `RleMask`, so the runs cover the
        // frame exactly.
        Mask::from_rle_runs(self.width, self.height, self.runs.iter().copied())
            .expect("RleMask runs cover width * height")
    }

    /// Size of the encoded representation in bytes (4 bytes per run plus an
    /// 8-byte header) — used by the transmission model.
    pub fn encoded_bytes(&self) -> usize {
        8 + 4 * self.runs.len()
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }
}

/// A per-pixel instance label map: 0 is background, values ≥ 1 identify
/// instances. This is the ground-truth format the scene renderer produces
/// and the metric code consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelMap {
    width: u32,
    height: u32,
    labels: Vec<u16>,
}

impl LabelMap {
    /// Creates an all-background map.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "label map must be non-empty");
        Self {
            width,
            height,
            labels: vec![0; (width * height) as usize],
        }
    }

    /// Map width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Map height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Label at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> u16 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.labels[(y * self.width + x) as usize]
    }

    /// Label with outside pixels reported as background.
    #[inline]
    pub fn get_or_background(&self, x: i64, y: i64) -> u16 {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            0
        } else {
            self.labels[(y as u32 * self.width + x as u32) as usize]
        }
    }

    /// Sets the label at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, label: u16) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.labels[(y * self.width + x) as usize] = label;
    }

    /// Row `y`, for writers that fill whole rows.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    pub fn row_mut(&mut self, y: u32) -> &mut [u16] {
        assert!(y < self.height, "row out of bounds");
        let w = self.width as usize;
        &mut self.labels[y as usize * w..(y as usize + 1) * w]
    }

    /// The sorted list of distinct non-background labels present.
    ///
    /// One pass over the map marks each label in a 64 Ki-bit seen-table;
    /// reading the table back in order yields the ids sorted.
    pub fn instance_ids(&self) -> Vec<u16> {
        let mut seen = [0u64; 1 << 10];
        for &l in &self.labels {
            seen[usize::from(l >> 6)] |= 1 << (l & 63);
        }
        seen[0] &= !1; // background
        let mut ids = Vec::new();
        for (word, &bits) in (0u16..).zip(&seen) {
            let mut bits = bits;
            while bits != 0 {
                ids.push(word << 6 | bits.trailing_zeros() as u16);
                bits &= bits - 1;
            }
        }
        ids
    }

    /// Extracts the binary mask of one instance.
    pub fn instance_mask(&self, label: u16) -> Mask {
        Mask {
            width: self.width,
            height: self.height,
            bits: self.labels.iter().map(|&l| l == label).collect(),
        }
    }

    /// Every instance's binary mask, `(id, mask)` in ascending id order:
    /// the same masks as [`LabelMap::instance_mask`] for each id of
    /// [`LabelMap::instance_ids`], built in one scan of the map that fills
    /// each run of equal labels at once.
    pub fn instance_masks(&self) -> Vec<(u16, Mask)> {
        // `slot[l]` is one past the index of label `l`'s mask, 0 if unseen.
        let mut slot: Vec<u16> = Vec::new();
        let mut masks: Vec<(u16, Mask)> = Vec::new();
        let mut start = 0;
        while start < self.labels.len() {
            let l = self.labels[start];
            let end = self.run_end(start);
            if l != 0 {
                let l = usize::from(l);
                if l >= slot.len() {
                    slot.resize(l + 1, 0);
                }
                if slot[l] == 0 {
                    masks.push((l as u16, Mask::new(self.width, self.height)));
                    // At most 65535 non-background ids, so this fits.
                    slot[l] = masks.len() as u16;
                }
                masks[usize::from(slot[l]) - 1].1.bits[start..end].fill(true);
            }
            start = end;
        }
        masks.sort_unstable_by_key(|&(id, _)| id);
        masks
    }

    /// One past the end of the run of equal labels (in raster order) that
    /// starts at index `start`. Whole 16-label chunks are compared at once,
    /// with a fold that vectorizes, then the rest one by one.
    fn run_end(&self, start: usize) -> usize {
        let l = self.labels[start];
        let mut end = start + 1;
        while let Some(chunk) = self.labels.get(end..end + 16) {
            if !chunk.iter().fold(true, |same, &x| same & (x == l)) {
                break;
            }
            end += 16;
        }
        while self.labels.get(end) == Some(&l) {
            end += 1;
        }
        end
    }

    /// Fraction of pixels that are non-background.
    pub fn foreground_fraction(&self) -> f64 {
        let fg = self.labels.iter().filter(|&&l| l != 0).count();
        fg as f64 / self.labels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_runs_match_to_rle() {
        let mut m = Mask::new(23, 9);
        m.fill_rect(3, 1, 7, 4);
        m.set(0, 0, true);
        m.set(22, 8, true);
        let mut streamed = Vec::new();
        m.for_each_rle_run(|r| streamed.push(r));
        assert_eq!(streamed, m.to_rle().runs());
        // All-false and all-true masks stream a single run each way.
        let empty = Mask::new(5, 4);
        let mut runs = Vec::new();
        empty.for_each_rle_run(|r| runs.push(r));
        assert_eq!(runs, vec![20]);
    }

    #[test]
    fn from_rle_runs_roundtrips_and_validates() {
        let mut m = Mask::new(17, 11);
        m.fill_rect(2, 3, 9, 5);
        m.set(16, 10, true);
        let mut runs = Vec::new();
        m.for_each_rle_run(|r| runs.push(r));
        let rebuilt = Mask::from_rle_runs(17, 11, runs.iter().copied()).unwrap();
        assert_eq!(rebuilt, m);
        // Undershoot, overshoot and zero dimensions are rejected.
        assert!(Mask::from_rle_runs(17, 11, [10u32]).is_none());
        assert!(Mask::from_rle_runs(17, 11, [200u32, 200]).is_none());
        assert!(Mask::from_rle_runs(0, 11, [0u32]).is_none());
        // Zero-length runs are tolerated (a mask starting with a set
        // pixel encodes a leading zero false-run).
        let lead = Mask::from_rle_runs(4, 1, [0u32, 2, 2]).unwrap();
        assert!(lead.get(0, 0) && lead.get(1, 0));
        assert!(!lead.get(2, 0));
    }

    #[test]
    fn area_and_bbox() {
        let mut m = Mask::new(8, 8);
        m.fill_rect(1, 2, 3, 4);
        assert_eq!(m.area(), 12);
        assert_eq!(m.bounding_box(), Some((1, 2, 4, 6)));
    }

    #[test]
    fn empty_mask_properties() {
        let m = Mask::new(4, 4);
        assert!(m.is_empty());
        assert_eq!(m.bounding_box(), None);
        assert_eq!(m.centroid(), None);
    }

    #[test]
    fn iou_identical_is_one() {
        let mut m = Mask::new(6, 6);
        m.fill_rect(0, 0, 3, 3);
        assert_eq!(iou(&m, &m), 1.0);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        let mut a = Mask::new(6, 6);
        a.fill_rect(0, 0, 2, 2);
        let mut b = Mask::new(6, 6);
        b.fill_rect(4, 4, 2, 2);
        assert_eq!(iou(&a, &b), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let mut a = Mask::new(10, 10);
        a.fill_rect(0, 0, 4, 1); // 4 px
        let mut b = Mask::new(10, 10);
        b.fill_rect(2, 0, 4, 1); // 4 px, overlap 2 -> union 6
        assert!((iou(&a, &b) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn iou_both_empty_is_one() {
        let a = Mask::new(3, 3);
        let b = Mask::new(3, 3);
        assert_eq!(iou(&a, &b), 1.0);
    }

    #[test]
    fn rle_roundtrip() {
        let mut m = Mask::new(16, 9);
        m.fill_rect(3, 1, 7, 5);
        m.set(15, 8, true);
        let rle = m.to_rle();
        assert_eq!(rle.to_mask(), m);
        assert!(rle.encoded_bytes() < 16 * 9); // compresses vs raw bitmap
    }

    #[test]
    fn rle_empty_and_full() {
        let empty = Mask::new(5, 5);
        assert_eq!(empty.to_rle().to_mask(), empty);
        let mut full = Mask::new(5, 5);
        full.fill_rect(0, 0, 5, 5);
        assert_eq!(full.to_rle().to_mask(), full);
        assert_eq!(full.to_rle().run_count(), 2); // leading zero-run + one run
    }

    #[test]
    fn dilate_then_erode_contains_original() {
        let mut m = Mask::new(20, 20);
        m.fill_rect(8, 8, 4, 4);
        let closed = m.dilate(2).erode(2);
        for (x, y) in m.iter_set() {
            assert!(closed.get(x, y), "closing lost pixel ({x},{y})");
        }
    }

    #[test]
    fn erode_shrinks() {
        let mut m = Mask::new(10, 10);
        m.fill_rect(2, 2, 6, 6);
        let e = m.erode(1);
        assert_eq!(e.area(), 16); // 4x4 core
        assert!(e.get(4, 4));
        assert!(!e.get(2, 2));
    }

    #[test]
    fn centroid_of_rect() {
        let mut m = Mask::new(10, 10);
        m.fill_rect(2, 4, 3, 2); // x: 2,3,4 y: 4,5
        let (cx, cy) = m.centroid().unwrap();
        assert!((cx - 3.0).abs() < 1e-12);
        assert!((cy - 4.5).abs() < 1e-12);
    }

    #[test]
    fn label_map_instances() {
        let mut lm = LabelMap::new(6, 6);
        lm.set(1, 1, 3);
        lm.set(2, 1, 3);
        lm.set(4, 4, 7);
        assert_eq!(lm.instance_ids(), vec![3, 7]);
        assert_eq!(lm.instance_mask(3).area(), 2);
        assert_eq!(lm.instance_mask(7).area(), 1);
        assert!((lm.foreground_fraction() - 3.0 / 36.0).abs() < 1e-12);
    }

    #[test]
    fn instance_masks_equal_the_per_id_masks() {
        // Ids in five different 64-bit words of the `instance_ids` bitset,
        // set out of id order so the one-scan build has to sort.
        let mut lm = LabelMap::new(9, 7);
        for (i, id) in [700u16, 3, 64, 63, 65, 129, u16::MAX, 3, 700, 64]
            .into_iter()
            .enumerate()
        {
            let i = i as u32 * 5;
            lm.set(i % 9, i / 9, id);
        }
        let ids = lm.instance_ids();
        assert_eq!(ids, vec![3, 63, 64, 65, 129, 700, u16::MAX]);
        let per_id: Vec<(u16, Mask)> = ids.iter().map(|&id| (id, lm.instance_mask(id))).collect();
        assert_eq!(lm.instance_masks(), per_id);
        assert!(LabelMap::new(4, 4).instance_masks().is_empty());
    }

    #[test]
    fn label_map_out_of_bounds_is_background() {
        let lm = LabelMap::new(4, 4);
        assert_eq!(lm.get_or_background(-1, 0), 0);
        assert_eq!(lm.get_or_background(10, 10), 0);
    }

    #[test]
    fn mask_size_mismatch_panics() {
        let a = Mask::new(3, 3);
        let b = Mask::new(4, 4);
        let r = std::panic::catch_unwind(|| a.intersection_area(&b));
        assert!(r.is_err());
    }
}
