//! Oracle properties of the dense mask primitives: the separable,
//! bounding-box-limited `Mask::dilate`/`erode`, the slice-scanning
//! `Mask::bounding_box`, the single-pass `LabelMap::instance_ids`,
//! `instance_mask` and `instance_masks`, and the object-sized
//! `extract_contours`, `fill_polygon`, `Mask::centroid`, `Mask::iter_set`
//! and `Mask::union_with` must equal the straightforward full-frame bodies kept
//! below as oracles, on random masks and on the edge cases (empty and full
//! masks, single corner pixels, 1×N and N×1 shapes, radii beyond the
//! image, diagonal-only contacts, holes, off-frame and non-finite polygon
//! vertices).

use edgeis_codec::TileGrid;
use edgeis_imaging::{extract_contours, fill_polygon, Contour, LabelMap, Mask};
use edgeis_rng::{for_each_case, StdRng};

/// Per-pixel square-window dilation: up to (2r+1)² lookups per pixel.
fn dilate_oracle(m: &Mask, radius: u32) -> Mask {
    let mut out = Mask::new(m.width(), m.height());
    let r = radius as i64;
    for y in 0..m.height() as i64 {
        for x in 0..m.width() as i64 {
            'search: for dy in -r..=r {
                for dx in -r..=r {
                    if m.get_or_false(x + dx, y + dy) {
                        out.set(x as u32, y as u32, true);
                        break 'search;
                    }
                }
            }
        }
    }
    out
}

/// Per-pixel square-window erosion; pixels outside the image are unset.
fn erode_oracle(m: &Mask, radius: u32) -> Mask {
    let mut out = Mask::new(m.width(), m.height());
    let r = radius as i64;
    for y in 0..m.height() as i64 {
        for x in 0..m.width() as i64 {
            let mut all = true;
            'win: for dy in -r..=r {
                for dx in -r..=r {
                    if !m.get_or_false(x + dx, y + dy) {
                        all = false;
                        break 'win;
                    }
                }
            }
            if all {
                out.set(x as u32, y as u32, true);
            }
        }
    }
    out
}

/// Tests every pixel.
fn bounding_box_oracle(m: &Mask) -> Option<(u32, u32, u32, u32)> {
    let (mut min_x, mut min_y, mut max_x, mut max_y) = (u32::MAX, u32::MAX, 0, 0);
    let mut any = false;
    for y in 0..m.height() {
        for x in 0..m.width() {
            if m.get(x, y) {
                any = true;
                min_x = min_x.min(x);
                min_y = min_y.min(y);
                max_x = max_x.max(x);
                max_y = max_y.max(y);
            }
        }
    }
    any.then_some((min_x, min_y, max_x + 1, max_y + 1))
}

/// Collects and sorts every foreground label.
fn instance_ids_oracle(lm: &LabelMap) -> Vec<u16> {
    let mut ids = Vec::new();
    for y in 0..lm.height() {
        for x in 0..lm.width() {
            if lm.get(x, y) != 0 {
                ids.push(lm.get(x, y));
            }
        }
    }
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn instance_mask_oracle(lm: &LabelMap, label: u16) -> Mask {
    let mut m = Mask::new(lm.width(), lm.height());
    for y in 0..lm.height() {
        for x in 0..lm.width() {
            if lm.get(x, y) == label {
                m.set(x, y, true);
            }
        }
    }
    m
}

/// Every tile holding a set pixel, from a scan of the whole frame.
fn tiles_touching_oracle(grid: &TileGrid, m: &Mask) -> Vec<usize> {
    let mut hit = vec![false; grid.len()];
    for (x, y) in m.iter_set() {
        hit[grid.tile_of(x, y)] = true;
    }
    (0..hit.len()).filter(|&i| hit[i]).collect()
}

/// Frame sizes from 1 to 40 per side, with a fifth of them degenerate
/// (1×N or N×1).
fn dims(rng: &mut StdRng) -> (u32, u32) {
    let (w, h) = (rng.random_range(1u32..41), rng.random_range(1u32..41));
    match rng.random_range(0u32..10) {
        0 => (1, h),
        1 => (w, 1),
        _ => (w, h),
    }
}

/// A random mask of one of several shapes: empty, full, a single corner
/// pixel, up to four rectangles, or salt noise of random density.
fn mask(rng: &mut StdRng, w: u32, h: u32) -> Mask {
    let mut m = Mask::new(w, h);
    match rng.random_range(0u32..6) {
        0 => {}
        1 => m.fill_rect(0, 0, w, h),
        2 => {
            let corners = [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)];
            let (x, y) = corners[rng.random_range(0usize..4)];
            m.set(x, y, true);
        }
        3 | 4 => {
            for _ in 0..rng.random_range(1u32..5) {
                let (x, y) = (rng.random_range(0..w), rng.random_range(0..h));
                m.fill_rect(x, y, rng.random_range(1..w + 1), rng.random_range(1..h + 1));
            }
        }
        _ => {
            let density = rng.random_range(1u32..100);
            for y in 0..h {
                for x in 0..w {
                    m.set(x, y, rng.random_range(0u32..100) < density);
                }
            }
        }
    }
    m
}

#[test]
fn dilate_and_erode_match_the_dense_oracles() {
    for_each_case(|rng| {
        let (w, h) = dims(rng);
        let m = mask(rng, w, h);
        for r in 0..=4 {
            assert_eq!(m.dilate(r), dilate_oracle(&m, r), "dilate r={r} on {w}x{h}");
            assert_eq!(m.erode(r), erode_oracle(&m, r), "erode r={r} on {w}x{h}");
        }
        // Radii at and beyond the image size.
        for r in [w, h, w.max(h) + 3] {
            assert_eq!(m.dilate(r), dilate_oracle(&m, r), "dilate r={r} on {w}x{h}");
            assert_eq!(m.erode(r), erode_oracle(&m, r), "erode r={r} on {w}x{h}");
        }
    });
}

#[test]
fn morphology_edge_cases_match_the_dense_oracles() {
    for (w, h) in [(1, 1), (1, 9), (9, 1), (5, 7), (16, 3)] {
        let empty = Mask::new(w, h);
        let mut full = Mask::new(w, h);
        full.fill_rect(0, 0, w, h);
        let mut cases = vec![empty, full];
        for (x, y) in [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)] {
            let mut m = Mask::new(w, h);
            m.set(x, y, true);
            cases.push(m);
        }
        for m in &cases {
            for r in 0..=4 {
                assert_eq!(m.dilate(r), dilate_oracle(m, r), "dilate r={r} on {w}x{h}");
                assert_eq!(m.erode(r), erode_oracle(m, r), "erode r={r} on {w}x{h}");
            }
        }
    }
    // Erosion clears the border: a full mask keeps only its interior.
    let mut full = Mask::new(6, 5);
    full.fill_rect(0, 0, 6, 5);
    assert_eq!(full.erode(1).bounding_box(), Some((1, 1, 5, 4)));
    assert!(full.erode(3).is_empty());
}

#[test]
fn bounding_box_matches_the_dense_oracle() {
    for_each_case(|rng| {
        let (w, h) = dims(rng);
        let m = mask(rng, w, h);
        assert_eq!(m.bounding_box(), bounding_box_oracle(&m), "{w}x{h}");
        // Rows several 64-pixel scan chunks wide.
        let (w, h) = (rng.random_range(1u32..300), rng.random_range(1u32..20));
        let m = contour_mask(rng, w, h);
        assert_eq!(m.bounding_box(), bounding_box_oracle(&m), "{w}x{h}");
        assert_eq!(m.is_empty(), bounding_box_oracle(&m).is_none(), "{w}x{h}");
    });
}

#[test]
fn label_map_extraction_matches_the_dense_oracles() {
    for_each_case(|rng| {
        let (w, h) = dims(rng);
        let mut lm = LabelMap::new(w, h);
        // Background-only maps, a few small ids, and ids across the whole
        // u16 range including its maximum.
        let n_labels = rng.random_range(0u32..6);
        let pool: Vec<u16> = (0..n_labels)
            .map(|_| match rng.random_range(0u32..4) {
                0 => u16::MAX,
                1 => rng.random_range(1u16..u16::MAX),
                _ => rng.random_range(1u16..8),
            })
            .collect();
        if !pool.is_empty() {
            for y in 0..h {
                for x in 0..w {
                    if rng.random_bool(0.5) {
                        lm.set(x, y, pool[rng.random_range(0..pool.len())]);
                    }
                }
            }
        }
        let ids = lm.instance_ids();
        assert_eq!(ids, instance_ids_oracle(&lm), "{w}x{h}");
        for &id in ids.iter().chain(&[0, 1, u16::MAX]) {
            assert_eq!(
                lm.instance_mask(id),
                instance_mask_oracle(&lm, id),
                "label {id}"
            );
        }
        let per_id: Vec<(u16, Mask)> = ids
            .iter()
            .map(|&id| (id, instance_mask_oracle(&lm, id)))
            .collect();
        assert_eq!(lm.instance_masks(), per_id, "{w}x{h}");
    });
}

#[test]
fn background_only_and_max_label_maps() {
    let lm = LabelMap::new(7, 3);
    assert!(lm.instance_ids().is_empty());
    assert!(lm.instance_mask(1).is_empty());
    let mut lm = LabelMap::new(7, 3);
    lm.set(6, 2, u16::MAX);
    lm.set(0, 0, 1);
    lm.set(3, 1, 64);
    assert_eq!(lm.instance_ids(), vec![1, 64, u16::MAX]);
    assert_eq!(
        lm.instance_mask(u16::MAX).bounding_box(),
        Some((6, 2, 7, 3))
    );
}

#[test]
fn dilated_tile_cover_matches_the_dense_oracle() {
    for_each_case(|rng| {
        // Frame sides that are rarely a multiple of the tile size.
        let tile = rng.random_range(3u32..17);
        let (w, h) = (rng.random_range(1u32..97), rng.random_range(1u32..73));
        let grid = TileGrid::new(tile, w, h);
        let m = mask(rng, w, h);
        let (dilated, oracle) = (m.dilate(2), dilate_oracle(&m, 2));
        assert_eq!(dilated, oracle);
        assert_eq!(
            grid.tiles_touching(&dilated),
            tiles_touching_oracle(&grid, &oracle),
            "tile {tile} on {w}x{h}"
        );
    });
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

/// Full-frame contour tracing: scans every pixel with a frame-sized
/// `visited` map and marks each traced component by a per-pixel flood
/// fill from its start pixel.
fn extract_contours_oracle(mask: &Mask) -> Vec<Contour> {
    let w = mask.width() as i64;
    let h = mask.height() as i64;
    let mut visited = vec![false; (w * h) as usize];
    let mut contours = Vec::new();

    let inside = |x: i64, y: i64| mask.get_or_false(x, y);

    for y in 0..h {
        for x in 0..w {
            if !inside(x, y) || visited[(y * w + x) as usize] {
                continue;
            }
            if inside(x - 1, y) {
                visited[(y * w + x) as usize] = true;
                continue;
            }
            let start = (x, y);
            let mut contour = Vec::new();
            let mut current = start;
            let mut backtrack = 4usize;
            let mut steps = 0usize;
            let max_steps = (4 * (w + h) * 4) as usize + 16;
            loop {
                contour.push((current.0 as u32, current.1 as u32));
                visited[(current.1 * w + current.0) as usize] = true;
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
                    break;
                };
                backtrack = (dir + 4) % 8;
                current = next;
                steps += 1;
                if current == start || steps > max_steps {
                    break;
                }
            }
            contours.push(Contour { points: contour });

            let mut stack = vec![(x, y)];
            while let Some((fx, fy)) = stack.pop() {
                if !inside(fx, fy) || visited[(fy * w + fx) as usize] && (fx, fy) != (x, y) {
                    continue;
                }
                visited[(fy * w + fx) as usize] = true;
                for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                    let nx = fx + dx;
                    let ny = fy + dy;
                    if nx >= 0
                        && ny >= 0
                        && nx < w
                        && ny < h
                        && inside(nx, ny)
                        && !visited[(ny * w + nx) as usize]
                    {
                        stack.push((nx, ny));
                    }
                }
            }
        }
    }
    contours
}

/// Full-frame even–odd fill: tests every edge on every row and sets
/// pixels one at a time.
fn fill_polygon_oracle(width: u32, height: u32, polygon: &[(f64, f64)]) -> Mask {
    let mut mask = Mask::new(width, height);
    if polygon.len() < 3 {
        for &(x, y) in polygon {
            mask.set_checked(x.round() as i64, y.round() as i64, true);
        }
        return mask;
    }
    for y in 0..height {
        let yc = y as f64 + 0.5;
        let mut xs: Vec<f64> = Vec::new();
        for i in 0..polygon.len() {
            let (x0, y0) = polygon[i];
            let (x1, y1) = polygon[(i + 1) % polygon.len()];
            if (y0 <= yc && y1 > yc) || (y1 <= yc && y0 > yc) {
                let t = (yc - y0) / (y1 - y0);
                xs.push(x0 + t * (x1 - x0));
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        for pair in xs.chunks(2) {
            if pair.len() < 2 {
                continue;
            }
            let x_start = pair[0].ceil().max(0.0) as i64;
            let x_end = pair[1].floor().min(width as f64 - 1.0) as i64;
            for x in x_start..=x_end {
                mask.set_checked(x, y as i64, true);
            }
        }
    }
    for &(x, y) in polygon {
        mask.set_checked(x.round() as i64, y.round() as i64, true);
    }
    mask
}

/// Full-frame `f64` running sums.
fn centroid_oracle(m: &Mask) -> Option<(f64, f64)> {
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut n = 0usize;
    for y in 0..m.height() {
        for x in 0..m.width() {
            if m.get(x, y) {
                sx += x as f64;
                sy += y as f64;
                n += 1;
            }
        }
    }
    (n > 0).then(|| (sx / n as f64, sy / n as f64))
}

/// A random mask built to stress contour tracing: besides [`mask`]'s
/// shapes, diagonal chains and checkerboards (components touching only at
/// corners), rings (holes, some with islands inside), crosses and frames
/// touching all four image edges, and single pixels.
fn contour_mask(rng: &mut StdRng, w: u32, h: u32) -> Mask {
    let mut m = Mask::new(w, h);
    match rng.random_range(0u32..7) {
        0 => {
            // Diagonal chains: 8-connected, not 4-connected.
            for _ in 0..rng.random_range(1u32..4) {
                let (mut x, mut y) = (rng.random_range(0..w) as i64, rng.random_range(0..h) as i64);
                let dx = if rng.random_bool(0.5) { 1 } else { -1 };
                for _ in 0..rng.random_range(1u32..20) {
                    m.set_checked(x, y, true);
                    x += dx;
                    y += 1;
                }
            }
        }
        1 => {
            // Checkerboard patch, optionally with a solid block beside it.
            let (x0, y0) = (rng.random_range(0..w), rng.random_range(0..h));
            let (pw, ph) = (rng.random_range(1..w + 1), rng.random_range(1..h + 1));
            for y in y0..(y0 + ph).min(h) {
                for x in x0..(x0 + pw).min(w) {
                    m.set(x, y, (x + y) % 2 == 0);
                }
            }
            if rng.random_bool(0.5) {
                m.fill_rect(rng.random_range(0..w), rng.random_range(0..h), 3, 3);
            }
        }
        2 => {
            // Rings: holes, and islands inside some of them.
            for _ in 0..rng.random_range(1u32..3) {
                let (x0, y0) = (rng.random_range(0..w), rng.random_range(0..h));
                let (rw, rh) = (rng.random_range(3..w + 3), rng.random_range(3..h + 3));
                m.fill_rect(x0, y0, rw, rh);
                let t = rng.random_range(1u32..3);
                for y in y0 + t..(y0 + rh).saturating_sub(t).min(h) {
                    for x in x0 + t..(x0 + rw).saturating_sub(t).min(w) {
                        m.set(x, y, false);
                    }
                }
                if rng.random_bool(0.5) && rw > 2 * t + 2 && rh > 2 * t + 2 {
                    m.set_checked((x0 + rw / 2) as i64, (y0 + rh / 2) as i64, true);
                }
            }
        }
        3 => {
            // A cross or a frame touching all four image edges.
            if rng.random_bool(0.5) {
                let (cx, cy) = (rng.random_range(0..w), rng.random_range(0..h));
                m.fill_rect(0, cy, w, 1);
                m.fill_rect(cx, 0, 1, h);
            } else {
                m.fill_rect(0, 0, w, 1);
                m.fill_rect(0, h - 1, w, 1);
                m.fill_rect(0, 0, 1, h);
                m.fill_rect(w - 1, 0, 1, h);
            }
        }
        4 => {
            // Scattered single pixels.
            for _ in 0..rng.random_range(1u32..6) {
                m.set(rng.random_range(0..w), rng.random_range(0..h), true);
            }
        }
        _ => m = mask(rng, w, h),
    }
    m
}

/// Frame sizes from 1 to 64 × 1 to 48, a fifth of them degenerate.
fn contour_dims(rng: &mut StdRng) -> (u32, u32) {
    let (w, h) = (rng.random_range(1u32..65), rng.random_range(1u32..49));
    match rng.random_range(0u32..10) {
        0 => (1, h),
        1 => (w, 1),
        _ => (w, h),
    }
}

#[test]
fn contours_match_the_full_frame_oracle() {
    for_each_case(|rng| {
        for _ in 0..4 {
            let (w, h) = contour_dims(rng);
            let m = contour_mask(rng, w, h);
            assert_eq!(
                extract_contours(&m),
                extract_contours_oracle(&m),
                "{w}x{h} mask {:?}",
                m.to_rle().runs()
            );
        }
    });
}

#[test]
fn contour_edge_cases_match_the_full_frame_oracle() {
    for (w, h) in [(1, 1), (1, 9), (9, 1), (5, 7), (16, 3)] {
        let mut cases = vec![Mask::new(w, h)];
        let mut full = Mask::new(w, h);
        full.fill_rect(0, 0, w, h);
        cases.push(full);
        for (x, y) in [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)] {
            let mut m = Mask::new(w, h);
            m.set(x, y, true);
            cases.push(m);
        }
        for m in &cases {
            assert_eq!(extract_contours(m), extract_contours_oracle(m), "{w}x{h}");
        }
    }
    // Two blocks joined only at a corner are one 8-connected contour, but
    // the 4-connected flood cannot cross the corner: the second block's
    // start pixel is reached by tracing alone.
    let mut m = Mask::new(12, 12);
    m.fill_rect(2, 2, 3, 3);
    m.fill_rect(5, 5, 3, 3);
    assert_eq!(extract_contours(&m), extract_contours_oracle(&m));
    // A ring two pixels thick around a hole with an island. The traced
    // outer boundary blocks the flood from the inner band, so the scan
    // traces the band again from the pixel east of the hole: three
    // contours, where a flood over the whole component would give two.
    let mut ring = Mask::new(12, 12);
    ring.fill_rect(1, 1, 9, 9);
    for y in 3..8 {
        for x in 3..8 {
            ring.set(x, y, false);
        }
    }
    ring.set(5, 5, true);
    let contours = extract_contours(&ring);
    assert_eq!(contours, extract_contours_oracle(&ring));
    assert_eq!(contours.len(), 3);
    assert_eq!(contours[1].points[0], (8, 3));
    assert_eq!(contours[2].points, vec![(5, 5)]);
}

/// A random polygon over a `w`×`h` frame: on-frame, partly or wholly
/// off-frame, with vertices exactly on row centres `y + 0.5` and, in some
/// cases, non-finite coordinates.
fn polygon(rng: &mut StdRng, w: u32, h: u32) -> Vec<(f64, f64)> {
    let (w, h) = (w as f64, h as f64);
    let n = rng.random_range(0usize..17);
    let (lo_x, hi_x, lo_y, hi_y) = match rng.random_range(0u32..4) {
        0 => (0.0, w, 0.0, h),
        1 => (-0.5 * w, 1.5 * w, -0.5 * h, 1.5 * h),
        2 => (w + 1.0, 2.0 * w + 2.0, -h, 2.0 * h),
        _ => (-w, 2.0 * w, -2.0 * h - 1.0, -1.0),
    };
    let mut poly: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let x = rng.random_range(lo_x..hi_x + 1e-9);
            let y = if rng.random_bool(0.3) {
                rng.random_range(lo_y.floor() as i32..hi_y.ceil() as i32 + 1) as f64 + 0.5
            } else {
                rng.random_range(lo_y..hi_y + 1e-9)
            };
            (x, y)
        })
        .collect();
    if n > 0 && rng.random_bool(0.25) {
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for _ in 0..rng.random_range(1u32..3) {
            let i = rng.random_range(0..n);
            let v = special[rng.random_range(0usize..3)];
            if rng.random_bool(0.5) {
                poly[i].0 = v;
            } else {
                poly[i].1 = v;
            }
        }
    }
    poly
}

#[test]
fn polygon_fill_matches_the_full_frame_oracle() {
    for_each_case(|rng| {
        for _ in 0..8 {
            let (w, h) = contour_dims(rng);
            let poly = polygon(rng, w, h);
            assert_eq!(
                fill_polygon(w, h, &poly),
                fill_polygon_oracle(w, h, &poly),
                "{w}x{h} polygon {poly:?}"
            );
        }
    });
}

#[test]
fn polygon_fill_edge_cases_match_the_full_frame_oracle() {
    let (w, h) = (20, 12);
    let cases: Vec<Vec<(f64, f64)>> = vec![
        vec![],
        vec![(3.0, 4.0)],
        vec![(3.0, 4.0), (9.0, 9.0)],
        // Horizontal edges exactly on row centres.
        vec![(2.0, 3.5), (15.0, 3.5), (15.0, 8.5), (2.0, 8.5)],
        // Spanning the whole frame and beyond.
        vec![(-50.0, -50.0), (70.0, -50.0), (70.0, 62.0), (-50.0, 62.0)],
        // Wholly above, below, left and right of the frame.
        vec![(2.0, -9.0), (9.0, -9.0), (5.0, -0.6)],
        vec![(2.0, 12.5), (9.0, 12.5), (5.0, 30.0)],
        vec![(-9.0, 2.0), (-1.0, 5.0), (-4.0, 9.0)],
        vec![(21.0, 2.0), (29.0, 5.0), (24.0, 9.0)],
        // Non-finite vertices.
        vec![(2.0, 2.0), (f64::NAN, 6.0), (9.0, 10.0)],
        vec![(2.0, f64::NEG_INFINITY), (12.0, 5.0), (4.0, 9.0)],
        vec![(2.0, 2.0), (12.0, f64::INFINITY), (f64::INFINITY, 9.0)],
        vec![(f64::NAN, f64::NAN), (f64::NAN, 1.0), (4.0, f64::NAN)],
    ];
    for poly in &cases {
        assert_eq!(
            fill_polygon(w, h, poly),
            fill_polygon_oracle(w, h, poly),
            "{poly:?}"
        );
    }
}

#[test]
fn centroid_matches_the_full_frame_oracle() {
    let bits = |c: Option<(f64, f64)>| c.map(|(x, y)| (x.to_bits(), y.to_bits()));
    for_each_case(|rng| {
        let (w, h) = contour_dims(rng);
        let m = contour_mask(rng, w, h);
        assert_eq!(bits(m.centroid()), bits(centroid_oracle(&m)), "{w}x{h}");
    });
    // A full QVGA frame: the largest sums a frame of the pipeline makes.
    let mut full = Mask::new(320, 240);
    full.fill_rect(0, 0, 320, 240);
    assert_eq!(bits(full.centroid()), bits(centroid_oracle(&full)));
}

#[test]
fn union_with_matches_a_per_pixel_union() {
    for_each_case(|rng| {
        let (w, h) = contour_dims(rng);
        let (a, b) = (contour_mask(rng, w, h), contour_mask(rng, w, h));
        let mut expected = a.clone();
        for y in 0..h {
            for x in 0..w {
                if b.get(x, y) {
                    expected.set(x, y, true);
                }
            }
        }
        let mut got = a;
        got.union_with(&b);
        assert_eq!(got, expected, "{w}x{h}");
    });
}

#[test]
fn iter_set_matches_a_full_frame_scan() {
    for_each_case(|rng| {
        let (w, h) = contour_dims(rng);
        let m = contour_mask(rng, w, h);
        let mut expected = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if m.get(x, y) {
                    expected.push((x, y));
                }
            }
        }
        assert_eq!(m.iter_set().collect::<Vec<_>>(), expected, "{w}x{h}");
    });
}
