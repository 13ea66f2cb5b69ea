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
pub fn match_descriptors(
    query: &[Descriptor],
    train: &[Descriptor],
    config: &MatchConfig,
) -> Vec<Match> {
    if train.is_empty() || query.is_empty() {
        return Vec::new();
    }
    best_two_blocked(query, train)
        .into_iter()
        .enumerate()
        .filter_map(|(i, fwd)| accept_match(i, fwd?, query, train, config))
        .collect()
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
}
