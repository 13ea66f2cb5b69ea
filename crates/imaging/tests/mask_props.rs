//! Oracle properties of the dense mask primitives: the separable,
//! bounding-box-limited `Mask::dilate`/`erode`, the slice-scanning
//! `Mask::bounding_box`, and the single-pass `LabelMap::instance_ids`,
//! `instance_mask` and `instance_masks` must equal the straightforward per-pixel bodies kept
//! below as oracles, on random masks and on the edge cases (empty and full
//! masks, single corner pixels, 1×N and N×1 shapes, radii beyond the
//! image).

use edgeis_codec::TileGrid;
use edgeis_imaging::{LabelMap, Mask};
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
