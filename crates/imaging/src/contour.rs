//! Contour extraction (the paper's `findContours`) and polygon filling.
//!
//! The mask-transfer module (§III-C) represents each instance mask by its
//! contour — "a list of connected pixels" — projects those pixels into the
//! new frame and re-fills the polygon to recover the transferred mask.

use crate::mask::Mask;

/// A closed contour: an ordered list of boundary pixels.
#[derive(Debug, Clone, PartialEq)]
pub struct Contour {
    /// Ordered boundary pixels `(x, y)`.
    pub points: Vec<(u32, u32)>,
}

impl Contour {
    /// Number of boundary pixels.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the contour has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Approximate enclosed area via the shoelace formula.
    pub fn area(&self) -> f64 {
        if self.points.len() < 3 {
            return 0.0;
        }
        let mut acc = 0.0;
        for i in 0..self.points.len() {
            let (x0, y0) = self.points[i];
            let (x1, y1) = self.points[(i + 1) % self.points.len()];
            acc += x0 as f64 * y1 as f64 - x1 as f64 * y0 as f64;
        }
        acc.abs() / 2.0
    }

    /// Uniformly subsamples the contour down to at most `max_points`,
    /// keeping ordering. Used to bound transmission size for contour
    /// vertices (§VI-A serializes "vertices of the contour").
    pub fn subsample(&self, max_points: usize) -> Contour {
        if self.points.len() <= max_points || max_points == 0 {
            return self.clone();
        }
        let step = self.points.len() as f64 / max_points as f64;
        let points = (0..max_points)
            .map(|i| self.points[(i as f64 * step) as usize])
            .collect();
        Contour { points }
    }
}

/// Moore-neighbour directions, clockwise starting East.
const DIRS: [(i64, i64); 8] = [
    (1, 0),
    (1, 1),
    (0, 1),
    (-1, 1),
    (-1, 0),
    (-1, -1),
    (0, -1),
    (1, -1),
];

/// Extracts the outer contours of all connected components in `mask` using
/// Moore-neighbour tracing with Jacob's stopping criterion.
///
/// Components are discovered in scan order; holes are not traced (the paper
/// only needs the outer boundary of each instance mask).
///
/// Every set pixel lies inside the mask's bounding box, so the scan and
/// the `visited` map cover only the box: past the one chunked pass of
/// [`Mask::bounding_box`], the cost is O(box), not O(frame).
pub fn extract_contours(mask: &Mask) -> Vec<Contour> {
    let Some((bx0, by0, bx1, by1)) = mask.bounding_box() else {
        return Vec::new();
    };
    let w = mask.width() as i64;
    let h = mask.height() as i64;
    let mut visited = Visited {
        x0: bx0 as i64,
        y0: by0 as i64,
        width: (bx1 - bx0) as i64,
        bits: vec![false; ((bx1 - bx0) * (by1 - by0)) as usize],
    };
    let mut contours = Vec::new();
    let mut seeds = Vec::new();

    let inside = |x: i64, y: i64| mask.get_or_false(x, y);

    for y in by0 as i64..by1 as i64 {
        for x in bx0 as i64..bx1 as i64 {
            if !inside(x, y) || visited.get(x, y) {
                continue;
            }
            // Boundary start: an inside pixel whose west neighbour is outside.
            if inside(x - 1, y) {
                // Interior pixel of a row-run; mark visited to avoid restart.
                visited.set(x, y);
                continue;
            }

            // Trace the boundary.
            let start = (x, y);
            let mut contour = Vec::new();
            let mut current = start;
            // Backtrack direction: we entered from the west.
            let mut backtrack = 4usize; // pointing West
            let mut steps = 0usize;
            let max_steps = (4 * (w + h) * 4) as usize + 16;
            loop {
                contour.push((current.0 as u32, current.1 as u32));
                visited.set(current.0, current.1);
                // Search neighbours clockwise from backtrack+1.
                let mut found = None;
                for k in 1..=8 {
                    let dir = (backtrack + k) % 8;
                    let nx = current.0 + DIRS[dir].0;
                    let ny = current.1 + DIRS[dir].1;
                    if inside(nx, ny) {
                        found = Some((dir, (nx, ny)));
                        break;
                    }
                }
                let Some((dir, next)) = found else {
                    break; // isolated pixel
                };
                // New backtrack points from `next` back toward `current`.
                backtrack = (dir + 4) % 8;
                current = next;
                steps += 1;
                if current == start || steps > max_steps {
                    break;
                }
            }
            contours.push(Contour { points: contour });

            // Mark what the start reaches through inside, unvisited pixels
            // (4-connected) so other boundary pixels of the same blob do not
            // re-trigger tracing. The traced boundary is already visited and
            // blocks the fill, exactly as a per-pixel flood from the start
            // would see it.
            seeds.clear();
            seeds.extend([(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]);
            span_fill(mask, &mut visited, &mut seeds);
        }
    }
    contours
}

/// `extract_contours`' visited flags, indexed over the mask's bounding box.
struct Visited {
    x0: i64,
    y0: i64,
    width: i64,
    bits: Vec<bool>,
}

impl Visited {
    /// Index of `(x, y)`, which must lie in the box.
    #[inline]
    fn index(&self, x: i64, y: i64) -> usize {
        ((y - self.y0) * self.width + (x - self.x0)) as usize
    }

    #[inline]
    fn get(&self, x: i64, y: i64) -> bool {
        self.bits[self.index(x, y)]
    }

    #[inline]
    fn set(&mut self, x: i64, y: i64) {
        let i = self.index(x, y);
        self.bits[i] = true;
    }
}

/// Scanline flood fill: marks visited every pixel 4-connected to a seed
/// through pixels that are set in `mask` and not yet visited. Each seed
/// grows into a horizontal span, and each run of such pixels directly
/// above or below a span becomes one new seed.
fn span_fill(mask: &Mask, visited: &mut Visited, seeds: &mut Vec<(i64, i64)>) {
    // Set pixels all lie in the box, so `visited` is only read in it.
    let free = |visited: &Visited, x: i64, y: i64| mask.get_or_false(x, y) && !visited.get(x, y);
    while let Some((sx, sy)) = seeds.pop() {
        if !free(visited, sx, sy) {
            continue;
        }
        let (mut lx, mut rx) = (sx, sx);
        while free(visited, lx - 1, sy) {
            lx -= 1;
        }
        while free(visited, rx + 1, sy) {
            rx += 1;
        }
        for x in lx..=rx {
            visited.set(x, sy);
        }
        for ny in [sy - 1, sy + 1] {
            let mut x = lx;
            while x <= rx {
                if free(visited, x, ny) {
                    seeds.push((x, ny));
                    while x <= rx && free(visited, x, ny) {
                        x += 1;
                    }
                } else {
                    x += 1;
                }
            }
        }
    }
}

/// Rasterizes a closed polygon (floating-point vertices) into a mask using
/// even–odd scanline filling. Out-of-image parts are clipped.
///
/// This is the inverse of contour extraction used by mask transfer: the
/// projected contour pixels become the polygon, the fill recovers the mask.
///
/// Only the rows whose centre `y + 0.5` lies in the vertices' y-range can
/// cross an edge, so only those are scanned; one crossings buffer serves
/// every row and each span is filled as a slice.
pub fn fill_polygon(width: u32, height: u32, polygon: &[(f64, f64)]) -> Mask {
    let mut mask = Mask::new(width, height);
    if polygon.len() < 3 {
        // Degenerate polygon: mark the individual pixels only.
        for &(x, y) in polygon {
            mask.set_checked(x.round() as i64, y.round() as i64, true);
        }
        return mask;
    }

    // An edge crosses row `y` only when `min(y0, y1) <= y + 0.5 <
    // max(y0, y1)` (NaN vertices cross nothing, and `f64::min`/`max` skip
    // them here).
    let y_min = polygon.iter().fold(f64::INFINITY, |m, p| m.min(p.1));
    let y_max = polygon.iter().fold(f64::NEG_INFINITY, |m, p| m.max(p.1));
    let rows = first_row_reaching(y_min, height)..first_row_reaching(y_max, height);
    let mut xs: Vec<f64> = Vec::new();
    for y in rows {
        let yc = y as f64 + 0.5;
        // Collect x-crossings of the scanline with polygon edges.
        xs.clear();
        for i in 0..polygon.len() {
            let (x0, y0) = polygon[i];
            let (x1, y1) = polygon[(i + 1) % polygon.len()];
            if (y0 <= yc && y1 > yc) || (y1 <= yc && y0 > yc) {
                let t = (yc - y0) / (y1 - y0);
                xs.push(x0 + t * (x1 - x0));
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let row = mask.row_mut(y);
        for pair in xs.chunks_exact(2) {
            // `x_start >= 0` and `x_end <= width - 1` (a NaN crossing
            // clamps to the row's end), so a non-empty span is in the row.
            let x_start = pair[0].ceil().max(0.0) as i64;
            let x_end = pair[1].floor().min(width as f64 - 1.0) as i64;
            if x_start <= x_end {
                row[x_start as usize..=x_end as usize].fill(true);
            }
        }
    }
    // Also stamp the boundary pixels themselves so thin structures survive.
    for &(x, y) in polygon {
        mask.set_checked(x.round() as i64, y.round() as i64, true);
    }
    mask
}

/// The first row `y` in `0..=height` whose centre `y + 0.5` is at least
/// `v` (`height` when none is). `v - 0.5` is exact for `0.25 <= v < 2^52`
/// (Sterbenz below 1, a shared grid above), and outside that range any
/// rounding is absorbed by the clamp.
fn first_row_reaching(v: f64, height: u32) -> u32 {
    (v - 0.5).ceil().clamp(0.0, height as f64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::iou;

    #[test]
    fn contour_of_rectangle() {
        let mut m = Mask::new(20, 20);
        m.fill_rect(5, 5, 6, 4);
        let contours = extract_contours(&m);
        assert_eq!(contours.len(), 1);
        let c = &contours[0];
        // Perimeter of 6x4 block is 2*(6+4) - 4 = 16 boundary pixels.
        assert_eq!(c.len(), 16);
        // All points on the boundary of the rect.
        for &(x, y) in &c.points {
            assert!((5..11).contains(&x) && (5..9).contains(&y));
            let interior = (6..10).contains(&x) && (6..8).contains(&y);
            assert!(!interior, "({x},{y}) is interior");
        }
    }

    #[test]
    fn two_components_two_contours() {
        let mut m = Mask::new(30, 10);
        m.fill_rect(1, 1, 4, 4);
        m.fill_rect(20, 2, 5, 5);
        let contours = extract_contours(&m);
        assert_eq!(contours.len(), 2);
    }

    #[test]
    fn single_pixel_contour() {
        let mut m = Mask::new(5, 5);
        m.set(2, 2, true);
        let contours = extract_contours(&m);
        assert_eq!(contours.len(), 1);
        assert_eq!(contours[0].points, vec![(2, 2)]);
    }

    #[test]
    fn empty_mask_no_contours() {
        let m = Mask::new(5, 5);
        assert!(extract_contours(&m).is_empty());
    }

    #[test]
    fn fill_polygon_square() {
        let poly = [(2.0, 2.0), (7.0, 2.0), (7.0, 7.0), (2.0, 7.0)];
        let m = fill_polygon(10, 10, &poly);
        assert!(m.get(4, 4));
        assert!(!m.get(0, 0));
        assert!(!m.get(9, 9));
        // Roughly 5x5 interior plus boundary stamps.
        assert!(m.area() >= 25 && m.area() <= 40, "area {}", m.area());
    }

    #[test]
    fn contour_fill_roundtrip_preserves_mask() {
        let mut m = Mask::new(40, 40);
        m.fill_rect(10, 8, 15, 18);
        let contours = extract_contours(&m);
        let poly: Vec<(f64, f64)> = contours[0]
            .points
            .iter()
            .map(|&(x, y)| (x as f64, y as f64))
            .collect();
        let refilled = fill_polygon(40, 40, &poly);
        assert!(
            iou(&m, &refilled) > 0.9,
            "roundtrip IoU {} too low",
            iou(&m, &refilled)
        );
    }

    #[test]
    fn contour_clipped_polygon() {
        // Polygon partially outside the image is clipped, not panicking.
        let poly = [(-5.0, -5.0), (5.0, -5.0), (5.0, 5.0), (-5.0, 5.0)];
        let m = fill_polygon(10, 10, &poly);
        assert!(m.get(0, 0));
        assert!(m.get(4, 4));
        assert!(!m.get(6, 6));
    }

    #[test]
    fn shoelace_area_of_square_contour() {
        let c = Contour {
            points: vec![(0, 0), (4, 0), (4, 4), (0, 4)],
        };
        assert_eq!(c.area(), 16.0);
    }

    #[test]
    fn subsample_bounds_size() {
        let points: Vec<(u32, u32)> = (0..100).map(|i| (i, 0)).collect();
        let c = Contour { points };
        let s = c.subsample(10);
        assert_eq!(s.len(), 10);
        assert_eq!(s.points[0], (0, 0));
        let s_all = c.subsample(1000);
        assert_eq!(s_all.len(), 100);
    }

    #[test]
    fn l_shaped_component_single_contour() {
        let mut m = Mask::new(20, 20);
        m.fill_rect(2, 2, 10, 3);
        m.fill_rect(2, 2, 3, 10);
        let contours = extract_contours(&m);
        assert_eq!(contours.len(), 1);
        assert!(contours[0].len() > 20);
    }
}
