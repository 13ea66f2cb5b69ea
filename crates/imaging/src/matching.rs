//! Brute-force descriptor matching with Lowe ratio and symmetry tests.

use crate::features::Descriptor;

/// A correspondence between descriptor `query_idx` in the first set and
/// `train_idx` in the second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Index into the query descriptor set.
    pub query_idx: usize,
    /// Index into the train descriptor set.
    pub train_idx: usize,
    /// Hamming distance of the pair.
    pub distance: u32,
}

/// Configuration for [`match_descriptors`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchConfig {
    /// Absolute Hamming distance cap; pairs above are rejected.
    pub max_distance: u32,
    /// Lowe ratio: best distance must be below `ratio` × second-best.
    pub ratio: f32,
    /// Require the match to also be the best in the reverse direction.
    pub cross_check: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        Self {
            max_distance: 64,
            ratio: 0.8,
            cross_check: true,
        }
    }
}

/// One query's `(train_idx, best, second_best)` Hamming distances; ties
/// keep the lowest train index. The reference the blocked scan must equal.
fn best_two(query: &Descriptor, train: &[Descriptor]) -> Option<(usize, u32, u32)> {
    let mut best = None;
    let mut best_d = u32::MAX;
    let mut second_d = u32::MAX;
    for (j, t) in train.iter().enumerate() {
        let d = query.distance(t);
        if d < best_d {
            second_d = best_d;
            best_d = d;
            best = Some(j);
        } else if d < second_d {
            second_d = d;
        }
    }
    best.map(|j| (j, best_d, second_d))
}

/// Forward best-two for a block of queries, register-blocked: each train
/// descriptor is loaded once and compared against `B` queries before
/// moving on, which keeps the train word in registers and runs `B`
/// independent min-chains instead of one. Every query still sees every
/// train descriptor in the same order with the same update rule, so the
/// (best, best_d, second_d) triples are identical to the scalar scan.
fn best_two_blocked(qs: &[Descriptor], train: &[Descriptor]) -> Vec<Option<(usize, u32, u32)>> {
    const B: usize = 8;
    let mut out = Vec::with_capacity(qs.len());
    let mut chunks = qs.chunks_exact(B);
    for chunk in &mut chunks {
        let mut best = [usize::MAX; B];
        let mut best_d = [u32::MAX; B];
        let mut second_d = [u32::MAX; B];
        for (j, t) in train.iter().enumerate() {
            for (k, q) in chunk.iter().enumerate() {
                let d = q.distance(t);
                if d < best_d[k] {
                    second_d[k] = best_d[k];
                    best_d[k] = d;
                    best[k] = j;
                } else if d < second_d[k] {
                    second_d[k] = d;
                }
            }
        }
        for k in 0..B {
            out.push((best[k] != usize::MAX).then(|| (best[k], best_d[k], second_d[k])));
        }
    }
    for q in chunks.remainder() {
        out.push(best_two(q, train));
    }
    out
}

/// Applies the acceptance filters to a query's forward best-two result:
/// absolute distance cap, Lowe ratio, optional cross-check.
fn accept_match(
    i: usize,
    (j, d, d2): (usize, u32, u32),
    query: &[Descriptor],
    train: &[Descriptor],
    config: &MatchConfig,
) -> Option<Match> {
    if d > config.max_distance {
        return None;
    }
    if train.len() >= 2 && (d as f32) >= config.ratio * d2 as f32 {
        return None;
    }
    if config.cross_check {
        if let Some((i_back, _, _)) = best_two(&train[j], query) {
            if i_back != i {
                return None;
            }
        }
    }
    Some(Match {
        query_idx: i,
        train_idx: j,
        distance: d,
    })
}

/// Matches `query` descriptors against `train` descriptors.
///
/// Applies, in order: absolute distance cap, Lowe ratio test (skipped when
/// the train set has fewer than 2 entries), and an optional cross-check.
/// Each returned match is unique in `query_idx`; with `cross_check` it is
/// also unique in `train_idx`.
///
/// Queries are independent, so they run in parallel with an ordered merge;
/// output is bit-identical to the serial loop for any thread count.
pub fn match_descriptors(
    query: &[Descriptor],
    train: &[Descriptor],
    config: &MatchConfig,
) -> Vec<Match> {
    if train.is_empty() || query.is_empty() {
        return Vec::new();
    }
    edgeis_parallel::par_collect_ranges(query.len(), 16, |range| {
        let qs = &query[range.clone()];
        best_two_blocked(qs, train)
            .into_iter()
            .enumerate()
            .filter_map(|(k, fwd)| accept_match(range.start + k, fwd?, query, train, config))
            .collect()
    })
}

/// A uniform bucket grid over 2-D keypoint positions, used to restrict
/// descriptor matching to spatially plausible candidates.
#[derive(Debug, Clone)]
struct CellIndex {
    cell: f64,
    x0: f64,
    y0: f64,
    cols: usize,
    rows: usize,
    buckets: Vec<Vec<u32>>,
}

impl CellIndex {
    fn build(positions: &[(f64, f64)], cell: f64) -> Self {
        debug_assert!(cell > 0.0);
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &(x, y) in positions {
            min_x = min_x.min(x);
            min_y = min_y.min(y);
            max_x = max_x.max(x);
            max_y = max_y.max(y);
        }
        let cols = (((max_x - min_x) / cell).floor() as usize + 1).max(1);
        let rows = (((max_y - min_y) / cell).floor() as usize + 1).max(1);
        let mut buckets = vec![Vec::new(); cols * rows];
        for (i, &(x, y)) in positions.iter().enumerate() {
            let cx = (((x - min_x) / cell).floor() as usize).min(cols - 1);
            let cy = (((y - min_y) / cell).floor() as usize).min(rows - 1);
            buckets[cy * cols + cx].push(i as u32);
        }
        Self {
            cell,
            x0: min_x,
            y0: min_y,
            cols,
            rows,
            buckets,
        }
    }

    /// Appends indices of all points within cells overlapping the square
    /// window of half-side `radius` around `(x, y)`, in ascending index
    /// order (buckets are visited row-major and each bucket is sorted by
    /// construction, so a final merge keeps the order deterministic).
    fn candidates_within(&self, x: f64, y: f64, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        let lo_cx = (((x - radius - self.x0) / self.cell).floor().max(0.0)) as usize;
        let lo_cy = (((y - radius - self.y0) / self.cell).floor().max(0.0)) as usize;
        let hi_cx = ((((x + radius - self.x0) / self.cell).floor()) as usize).min(self.cols - 1);
        let hi_cy = ((((y + radius - self.y0) / self.cell).floor()) as usize).min(self.rows - 1);
        if lo_cx > hi_cx || lo_cy > hi_cy {
            return;
        }
        for cy in lo_cy..=hi_cy {
            for cx in lo_cx..=hi_cx {
                out.extend_from_slice(&self.buckets[cy * self.cols + cx]);
            }
        }
        out.sort_unstable();
    }
}

/// Spatially-bucketed variant of [`match_descriptors`] for tracking-style
/// workloads where corresponding keypoints are known to lie within
/// `radius` pixels of each other (e.g. frame-to-frame matching at video
/// rate).
///
/// Each query only scans train descriptors whose keypoint falls within a
/// `radius`-sized window around the query keypoint; when fewer than two
/// candidates are in the window the query falls back to the brute-force
/// scan so the ratio test keeps its meaning. This is a different (stricter)
/// matcher than [`match_descriptors`] — it is opt-in and NOT used by the
/// default VO path, whose results must stay byte-stable.
pub fn match_descriptors_spatial(
    query: &[Descriptor],
    query_pos: &[(f64, f64)],
    train: &[Descriptor],
    train_pos: &[(f64, f64)],
    config: &MatchConfig,
    radius: f64,
) -> Vec<Match> {
    assert_eq!(query.len(), query_pos.len(), "query positions mismatch");
    assert_eq!(train.len(), train_pos.len(), "train positions mismatch");
    assert!(radius > 0.0, "radius must be positive");
    if train.is_empty() || query.is_empty() {
        return Vec::new();
    }
    let train_index = CellIndex::build(train_pos, radius);
    let query_index = CellIndex::build(query_pos, radius);

    // Best-two restricted to `cands`; exact distances, same tie-breaking
    // as the brute scan (lowest index wins) because `cands` is ascending.
    let best_two_of = |q: &Descriptor, set: &[Descriptor], cands: &[u32]| {
        let mut best = None;
        let mut best_d = u32::MAX;
        let mut second_d = u32::MAX;
        for &j in cands {
            let d = q.distance_capped(&set[j as usize], second_d);
            if d < best_d {
                second_d = best_d;
                best_d = d;
                best = Some(j as usize);
            } else if d < second_d {
                second_d = d;
            }
        }
        best.map(|j| (j, best_d, second_d))
    };

    edgeis_parallel::par_collect_ranges(query.len(), 16, |range| {
        let mut cands: Vec<u32> = Vec::new();
        let mut back: Vec<u32> = Vec::new();
        let mut out = Vec::new();
        for i in range {
            let (qx, qy) = query_pos[i];
            train_index.candidates_within(qx, qy, radius, &mut cands);
            let found = if cands.len() >= 2 {
                best_two_of(&query[i], train, &cands)
            } else {
                best_two(&query[i], train)
            };
            let Some((j, d, d2)) = found else { continue };
            if d > config.max_distance {
                continue;
            }
            if train.len() >= 2 && (d as f32) >= config.ratio * d2 as f32 {
                continue;
            }
            if config.cross_check {
                let (tx, ty) = train_pos[j];
                query_index.candidates_within(tx, ty, radius, &mut back);
                let reverse = if back.len() >= 2 {
                    best_two_of(&train[j], query, &back)
                } else {
                    best_two(&train[j], query)
                };
                if let Some((i_back, _, _)) = reverse {
                    if i_back != i {
                        continue;
                    }
                }
            }
            out.push(Match {
                query_idx: i,
                train_idx: j,
                distance: d,
            });
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(seed: u64) -> Descriptor {
        // Simple deterministic pseudo-descriptor.
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut out = [0u64; 4];
        for slot in &mut out {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *slot = s;
        }
        Descriptor(out)
    }

    fn flip_bits(d: &Descriptor, n: usize) -> Descriptor {
        let mut out = *d;
        for i in 0..n {
            out.0[i / 64] ^= 1u64 << (i % 64);
        }
        out
    }

    #[test]
    fn exact_matches_found() {
        let train: Vec<Descriptor> = (0..10).map(desc).collect();
        let query = vec![train[3], train[7]];
        let m = match_descriptors(&query, &train, &MatchConfig::default());
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].train_idx, 3);
        assert_eq!(m[1].train_idx, 7);
        assert_eq!(m[0].distance, 0);
    }

    #[test]
    fn noisy_match_within_cap() {
        let train: Vec<Descriptor> = (0..20).map(desc).collect();
        let query = vec![flip_bits(&train[5], 10)];
        let m = match_descriptors(&query, &train, &MatchConfig::default());
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].train_idx, 5);
        assert_eq!(m[0].distance, 10);
    }

    #[test]
    fn blocked_scan_equals_per_query_best_two() {
        // Every query of the register-blocked scan sees the same train
        // descriptors in the same order with the same update rule, so the
        // triples equal the one-query scan's, ties included.
        edgeis_rng::for_each_case(|rng| {
            let mut random = || {
                let mut d = [0u64; 4];
                for w in &mut d {
                    // Sparse words make equal distances (ties) common.
                    *w = rng.random_range(0..=u64::MAX) & rng.random_range(0..=u64::MAX);
                }
                Descriptor(d)
            };
            let mut train: Vec<Descriptor> = (0..40).map(|_| random()).collect();
            train.push(train[3]);
            train.push(Descriptor([0; 4]));
            train.push(Descriptor([u64::MAX; 4]));
            let mut qs: Vec<Descriptor> = (0..27).map(|_| random()).collect();
            qs.extend([
                train[3],
                train[3],
                Descriptor([0; 4]),
                Descriptor([u64::MAX; 4]),
            ]);
            for n_train in [0, 1, 2, train.len()] {
                for n_q in [0, 7, 8, qs.len()] {
                    let (qs, train) = (&qs[..n_q], &train[..n_train]);
                    let reference: Vec<_> = qs.iter().map(|q| best_two(q, train)).collect();
                    assert_eq!(best_two_blocked(qs, train), reference, "{n_q}x{n_train}");
                }
            }
        });
    }

    #[test]
    fn distance_cap_rejects() {
        let train: Vec<Descriptor> = (0..5).map(desc).collect();
        let query = vec![flip_bits(&train[0], 100)];
        let cfg = MatchConfig {
            max_distance: 32,
            ..Default::default()
        };
        assert!(match_descriptors(&query, &train, &cfg).is_empty());
    }

    #[test]
    fn ratio_test_rejects_ambiguous() {
        // Two nearly identical train descriptors: ambiguous match.
        let base = desc(1);
        let train = vec![flip_bits(&base, 1), flip_bits(&base, 2)];
        let query = vec![base];
        let cfg = MatchConfig {
            ratio: 0.5,
            cross_check: false,
            max_distance: 256,
        };
        assert!(match_descriptors(&query, &train, &cfg).is_empty());
    }

    #[test]
    fn cross_check_enforces_mutual_best() {
        let a = desc(10);
        // Query q0 is closest to t0, but t0 is closer to q1.
        let q0 = flip_bits(&a, 8);
        let q1 = flip_bits(&a, 2);
        let train = vec![a, desc(99)];
        let cfg = MatchConfig {
            cross_check: true,
            ratio: 1.0,
            max_distance: 256,
        };
        let m = match_descriptors(&[q0, q1], &train, &cfg);
        // Only q1 survives cross-check against t0.
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].query_idx, 1);
        assert_eq!(m[0].train_idx, 0);
    }

    #[test]
    fn empty_inputs() {
        let train: Vec<Descriptor> = (0..3).map(desc).collect();
        assert!(match_descriptors(&[], &train, &MatchConfig::default()).is_empty());
        assert!(match_descriptors(&train, &[], &MatchConfig::default()).is_empty());
    }

    #[test]
    fn single_train_descriptor_skips_ratio() {
        let train = vec![desc(1)];
        let query = vec![flip_bits(&train[0], 3)];
        let m = match_descriptors(&query, &train, &MatchConfig::default());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn parallel_bit_identical_to_serial_across_seeds() {
        let cfg = MatchConfig {
            max_distance: 256,
            ratio: 0.95,
            cross_check: true,
        };
        for seed in [7u64, 1234, 987_654] {
            let train: Vec<Descriptor> = (0..400).map(|i| desc(seed ^ i)).collect();
            let query: Vec<Descriptor> = (0..300)
                .map(|i| flip_bits(&train[(i * 7) % train.len()], i % 40))
                .collect();
            edgeis_conformance::assert_parallel_matches_serial(
                &format!("imaging::match_descriptors seed {seed}"),
                &[2, 4, 16],
                || match_descriptors(&query, &train, &cfg),
            );
        }
    }

    fn grid_positions(n: usize, jitter: u64) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let x = (i % 32) as f64 * 10.0 + ((i as u64 ^ jitter) % 5) as f64;
                let y = (i / 32) as f64 * 10.0 + (((i as u64 * 3) ^ jitter) % 5) as f64;
                (x, y)
            })
            .collect()
    }

    #[test]
    fn spatial_with_covering_radius_equals_brute_force() {
        // A window wide enough to cover every keypoint degrades the
        // spatial matcher into the brute-force one, candidate-for-
        // candidate (ascending index order preserves tie-breaking).
        let train: Vec<Descriptor> = (0..120).map(desc).collect();
        let query: Vec<Descriptor> = (0..90).map(|i| flip_bits(&train[i], i % 30)).collect();
        let tp = grid_positions(train.len(), 1);
        let qp = grid_positions(query.len(), 1);
        let cfg = MatchConfig::default();
        let brute = match_descriptors(&query, &train, &cfg);
        let spatial = match_descriptors_spatial(&query, &qp, &train, &tp, &cfg, 1e6);
        assert_eq!(brute, spatial);
    }

    #[test]
    fn spatial_finds_shifted_neighbours() {
        // Tracking scenario: train keypoints are the query keypoints
        // shifted by 3 px with light descriptor noise; a 15 px window must
        // recover every correspondence.
        let query: Vec<Descriptor> = (0..200).map(desc).collect();
        let qp = grid_positions(query.len(), 0);
        let train: Vec<Descriptor> = query
            .iter()
            .enumerate()
            .map(|(i, d)| flip_bits(d, i % 8))
            .collect();
        let tp: Vec<(f64, f64)> = qp.iter().map(|&(x, y)| (x + 3.0, y - 1.0)).collect();
        let cfg = MatchConfig {
            max_distance: 64,
            ratio: 0.9,
            cross_check: true,
        };
        let m = match_descriptors_spatial(&query, &qp, &train, &tp, &cfg, 15.0);
        assert!(m.len() > 180, "only {} matches", m.len());
        assert!(m.iter().all(|mm| mm.query_idx == mm.train_idx));
    }

    #[test]
    fn spatial_parallel_bit_identical_to_serial() {
        for seed in [3u64, 77, 4096] {
            let train: Vec<Descriptor> = (0..300).map(|i| desc(seed ^ (i * 11))).collect();
            let query: Vec<Descriptor> = (0..250)
                .map(|i| flip_bits(&train[i % 300], i % 24))
                .collect();
            let tp = grid_positions(train.len(), seed);
            let qp = grid_positions(query.len(), seed / 2);
            let cfg = MatchConfig::default();
            edgeis_conformance::assert_parallel_matches_serial(
                &format!("imaging::match_descriptors_spatial seed {seed}"),
                &[2, 8],
                || match_descriptors_spatial(&query, &qp, &train, &tp, &cfg, 25.0),
            );
        }
    }

    #[test]
    fn spatial_falls_back_when_window_is_sparse() {
        // One isolated query far from every train keypoint still matches
        // via the brute-force fallback.
        let train: Vec<Descriptor> = (0..40).map(desc).collect();
        let tp = grid_positions(train.len(), 2);
        let query = vec![flip_bits(&train[17], 4)];
        let qp = vec![(5000.0, 5000.0)];
        let cfg = MatchConfig {
            cross_check: false,
            ..Default::default()
        };
        let m = match_descriptors_spatial(&query, &qp, &train, &tp, &cfg, 10.0);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].train_idx, 17);
    }
}
