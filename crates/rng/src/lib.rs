//! The workspace's one seeded pseudo-random generator.
//!
//! Every link-jitter, model-noise, fault-schedule and RANSAC draw in the
//! simulation comes from [`StdRng`]. Its stream is rand 0.9's `StdRng`,
//! bit for bit, so the generator is part of the golden traces' contract:
//!
//! - the core is ChaCha12 (RFC 7539 block function, 12 rounds, 64-bit
//!   block counter from 0, stream id 0) emitted as little-endian `u32`
//!   words; `next_u64` joins two consecutive words, low word first, also
//!   across a block boundary;
//! - [`StdRng::seed_from_u64`] expands the seed into the 256-bit key with
//!   PCG32, as `rand_core` 0.9 does;
//! - integers in a range use Canon's widening-multiply method; `u8`,
//!   `u16`, `u32`, `i32` and `usize` ranges that fit in `u32` draw `u32`
//!   words, `u64` and wider `usize` ranges draw `u64` words;
//! - floats in a range map the top mantissa bits to `[1, 2)`, subtract 1
//!   and compute `v * (high - low) + low`;
//! - [`StdRng::random_bool`] compares one `u64` with `p * 2^64`;
//! - [`index::sample`] picks Floyd, in-place or rejection sampling with
//!   rand's published thresholds.
//!
//! Editing any of these re-seeds every golden. The known-answer tests
//! ([`rand_fingerprint`] in `tests/known_answers.rs`, the RFC 7539 block
//! vector in the unit tests) fail first.
//!
//! The generator computes eight consecutive blocks per refill, one per
//! lane of a `[[u32; 8]; 16]` state, in plain lane-wise Rust that the
//! compiler turns into vector instructions on AVX2 and wider targets (the
//! x86-64 baseline build keeps the lanes scalar). That changes nothing in
//! the stream: block `n` still has counter `n`, words are read in counter
//! order, and a `next_u64` that straddles a refill still joins word 127
//! with the next refill's word 0.

pub mod index;

use std::ops::{Range, RangeInclusive};

/// ChaCha constants: "expand 32-byte k".
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Blocks per refill, one per vector lane.
const LANES: usize = 8;

/// Words per refill: `LANES` blocks of 16.
const WORDS: usize = 16 * LANES;

/// One ChaCha state word across all lanes.
type Lanes = [u32; LANES];

/// The ChaCha quarter round on four state words, in every lane at once.
#[inline(always)]
fn quarter(s: &mut [Lanes; 16], a: usize, b: usize, c: usize, d: usize) {
    let (mut va, mut vb, mut vc, mut vd) = (s[a], s[b], s[c], s[d]);
    for l in 0..LANES {
        va[l] = va[l].wrapping_add(vb[l]);
        vd[l] = (vd[l] ^ va[l]).rotate_left(16);
        vc[l] = vc[l].wrapping_add(vd[l]);
        vb[l] = (vb[l] ^ vc[l]).rotate_left(12);
        va[l] = va[l].wrapping_add(vb[l]);
        vd[l] = (vd[l] ^ va[l]).rotate_left(8);
        vc[l] = vc[l].wrapping_add(vd[l]);
        vb[l] = (vb[l] ^ vc[l]).rotate_left(7);
    }
    (s[a], s[b], s[c], s[d]) = (va, vb, vc, vd);
}

/// The `LANES` ChaCha blocks with counters `counter..counter + LANES`,
/// `rounds` rounds and stream id 0, word-major: `out[w][l]` is word `w`
/// of block `counter + l`. Lane `l` carries its own 64-bit counter in
/// words 12 (low) and 13 (high), so a carry out of word 12 lands in the
/// lanes past it. Every operation is one lane-wise loop over plain
/// arrays, which the compiler turns into vector instructions on AVX2 and
/// wider targets; an x86-64 baseline build keeps the lanes scalar.
fn chacha_blocks(key: &[u32; 8], counter: u64, rounds: u32) -> [Lanes; 16] {
    let mut input = [[0u32; LANES]; 16];
    for (word, &k) in input.iter_mut().zip(SIGMA.iter().chain(key)) {
        *word = [k; LANES];
    }
    let counters: [u64; LANES] = std::array::from_fn(|l| counter.wrapping_add(l as u64));
    input[12] = counters.map(|c| c as u32);
    input[13] = counters.map(|c| (c >> 32) as u32);
    let mut s = input;
    for _ in 0..rounds / 2 {
        quarter(&mut s, 0, 4, 8, 12);
        quarter(&mut s, 1, 5, 9, 13);
        quarter(&mut s, 2, 6, 10, 14);
        quarter(&mut s, 3, 7, 11, 15);
        quarter(&mut s, 0, 5, 10, 15);
        quarter(&mut s, 1, 6, 11, 12);
        quarter(&mut s, 2, 7, 8, 13);
        quarter(&mut s, 3, 4, 9, 14);
    }
    for (word, start) in s.iter_mut().zip(input) {
        for (w, i) in word.iter_mut().zip(start) {
            *w = w.wrapping_add(i);
        }
    }
    s
}

/// The seeded generator: rand 0.9's `StdRng` stream (see the crate docs).
#[derive(Clone, Debug)]
pub struct StdRng {
    key: [u32; 8],
    /// Counter of the next block to generate.
    counter: u64,
    /// The last refill's `LANES` blocks, as [`chacha_blocks`] returns
    /// them.
    blocks: [Lanes; 16],
    /// Next unread word of the refill in stream order (`WORDS` =
    /// exhausted).
    index: usize,
}

impl StdRng {
    /// Seeds the generator from a `u64`, expanding it into the ChaCha key
    /// with PCG32 (`rand_core` 0.9's `SeedableRng::seed_from_u64`).
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut key = [0u32; 8];
        for k in &mut key {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            *k = xorshifted.rotate_right((state >> 59) as u32);
        }
        Self {
            key,
            counter: 0,
            blocks: [[0; LANES]; 16],
            index: WORDS,
        }
    }

    /// Generates the next `LANES` blocks.
    fn refill(&mut self) {
        self.blocks = chacha_blocks(&self.key, self.counter, 12);
        self.counter = self.counter.wrapping_add(LANES as u64);
        self.index = 0;
    }

    /// Word `i` (< `WORDS`) of the refill in stream order: word `i % 16`
    /// of its block `i / 16` (the `% LANES` changes nothing there and
    /// spares the bounds check).
    #[inline]
    fn word(&self, i: usize) -> u32 {
        self.blocks[i % 16][(i / 16) % LANES]
    }

    /// Next 32 random bits.
    #[inline]
    pub(crate) fn next_u32(&mut self) -> u32 {
        if self.index >= WORDS {
            self.refill();
        }
        let w = self.word(self.index);
        self.index += 1;
        w
    }

    /// Next 64 random bits: two words, low word first. A pair that
    /// straddles a refill joins its last word with the next one's first.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let (lo, hi) = if self.index + 1 < WORDS {
            let pair = (self.word(self.index), self.word(self.index + 1));
            self.index += 2;
            pair
        } else {
            (self.next_u32(), self.next_u32())
        };
        ((hi as u64) << 32) | lo as u64
    }

    /// A value drawn uniformly from `range` (floats: from `[low, high]`,
    /// as in rand 0.9).
    ///
    /// # Panics
    ///
    /// When the range is empty.
    #[inline]
    pub fn random_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// When `p` is outside `[0, 1]`.
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "p={p:?} is outside range [0.0, 1.0]"
        );
        if p == 1.0 {
            return true;
        }
        let p_int = (p * (2.0 * (1u64 << 63) as f64)) as u64;
        self.next_u64() < p_int
    }
}

/// Types [`StdRng::random_range`] can draw.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// A draw from `[low, high)` (floats: `[low, high]`).
    fn sample_single(low: Self, high: Self, rng: &mut StdRng) -> Self;
    /// A draw from `[low, high]`.
    fn sample_single_inclusive(low: Self, high: Self, rng: &mut StdRng) -> Self;
}

macro_rules! uniform_int {
    ($ty:ty, $uty:ty, $sample:ty, $wide:ty, $word:ident) => {
        impl SampleUniform for $ty {
            #[inline]
            fn sample_single(low: Self, high: Self, rng: &mut StdRng) -> Self {
                assert!(low < high, "cannot sample empty range");
                Self::sample_single_inclusive(low, high - 1, rng)
            }

            #[inline]
            fn sample_single_inclusive(low: Self, high: Self, rng: &mut StdRng) -> Self {
                assert!(low <= high, "cannot sample empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $uty as $sample;
                if range == 0 {
                    // The whole domain.
                    return rng.$word() as $ty;
                }
                let wmul = |x: $sample| {
                    let t = (x as $wide) * (range as $wide);
                    ((t >> <$sample>::BITS) as $sample, t as $sample)
                };
                let (mut result, lo_order) = wmul(rng.$word() as $sample);
                if lo_order > range.wrapping_neg() {
                    let (new_hi_order, _) = wmul(rng.$word() as $sample);
                    result += lo_order.checked_add(new_hi_order).is_none() as $sample;
                }
                low.wrapping_add(result as $ty)
            }
        }
    };
}
uniform_int!(u8, u8, u32, u64, next_u32);
uniform_int!(u16, u16, u32, u64, next_u32);
uniform_int!(u32, u32, u32, u64, next_u32);
uniform_int!(u64, u64, u64, u128, next_u64);
uniform_int!(i32, u32, u32, u64, next_u32);

impl SampleUniform for usize {
    #[inline]
    fn sample_single(low: Self, high: Self, rng: &mut StdRng) -> Self {
        if high > u32::MAX as usize {
            u64::sample_single(low as u64, high as u64, rng) as usize
        } else {
            u32::sample_single(low as u32, high as u32, rng) as usize
        }
    }

    #[inline]
    fn sample_single_inclusive(low: Self, high: Self, rng: &mut StdRng) -> Self {
        if high > u32::MAX as usize {
            u64::sample_single_inclusive(low as u64, high as u64, rng) as usize
        } else {
            u32::sample_single_inclusive(low as u32, high as u32, rng) as usize
        }
    }
}

impl SampleUniform for f64 {
    #[inline]
    fn sample_single(low: Self, high: Self, rng: &mut StdRng) -> Self {
        Self::sample_single_inclusive(low, high, rng)
    }

    #[inline]
    fn sample_single_inclusive(low: Self, high: Self, rng: &mut StdRng) -> Self {
        assert!(low <= high, "cannot sample empty range");
        let scale = high - low;
        assert!(scale.is_finite(), "range overflow");
        let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
        (value1_2 - 1.0) * scale + low
    }
}

/// Ranges [`StdRng::random_range`] accepts.
pub trait SampleRange<T> {
    /// One draw from the range.
    fn sample(self, rng: &mut StdRng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample(self, rng: &mut StdRng) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_single(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample(self, rng: &mut StdRng) -> T {
        let (low, high) = self.into_inner();
        T::sample_single_inclusive(low, high, rng)
    }
}

/// Fingerprint of the generator's stream: 16 draws from a fixed seed,
/// folded with FNV-1a 64 over their little-endian bytes (the digest of
/// `edgeis::hash::fnv1a64_words`). rand 0.9's `StdRng` gives
/// `f20cdb73f3a077a0`; any other value means the stream, and with it
/// every golden, changed.
pub fn rand_fingerprint() -> String {
    let mut rng = StdRng::seed_from_u64(0xED6E_15FD);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..16 {
        for b in rng.random_range(0..=u64::MAX).to_le_bytes() {
            digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{digest:016x}")
}

/// Cases per property: proptest's default.
const CASES: u64 = 256;

/// Runs a property over 256 cases (proptest's default), each with its own
/// generator seeded from the case number. A property skips a case by returning
/// early. A failing case is re-raised after naming its seed, which
/// `StdRng::seed_from_u64` replays.
pub fn for_each_case(mut property: impl FnMut(&mut StdRng)) {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let run = std::panic::AssertUnwindSafe(|| property(&mut rng));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("property failed on case seed {seed} (StdRng::seed_from_u64({seed}))");
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{chacha_blocks, StdRng, LANES, SIGMA, WORDS};

    /// The RFC 7539 block function one block at a time: the oracle the
    /// lane-wise refill is checked against.
    fn chacha_block(key: &[u32; 8], counter: u64, rounds: u32) -> [u32; 16] {
        fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(16);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(12);
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(8);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(7);
        }
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&SIGMA);
        input[4..12].copy_from_slice(key);
        input[12] = counter as u32;
        input[13] = (counter >> 32) as u32;
        let mut s = input;
        for _ in 0..rounds / 2 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (w, i) in s.iter_mut().zip(input) {
            *w = w.wrapping_add(i);
        }
        s
    }

    /// Block `l` of a refill.
    fn lane(blocks: &[[u32; LANES]; 16], l: usize) -> [u32; 16] {
        blocks.map(|word| word[l])
    }

    #[test]
    fn chacha_block_matches_rfc7539() {
        // RFC 7539 §A.1, test vector #1: all-zero key and nonce, counter
        // 0, 20 rounds, for the oracle and lane 0 of the refill.
        let want = [
            0xade0_b876,
            0x903d_f1a0,
            0xe56a_5d40,
            0x28bd_8653,
            0xb819_d2bd,
            0x1aed_8da0,
            0xccef_36a8,
            0xc70d_778b,
            0x7c59_41da,
            0x8d48_5751,
            0x3fe0_2477,
            0x374a_d8b8,
            0xf4b8_436a,
            0x1ca1_1815,
            0x69b6_87c3,
            0x8665_eeb2,
        ];
        assert_eq!(chacha_block(&[0; 8], 0, 20), want);
        assert_eq!(lane(&chacha_blocks(&[0; 8], 0, 20), 0), want);
    }

    #[test]
    fn refill_equals_single_blocks() {
        // Counter 2³² − 3 puts the carry out of word 12 between lanes 2
        // and 3 of the refill.
        let key = StdRng::seed_from_u64(0x5eed).key;
        for counter in [0, 7, (1u64 << 32) - 3, u64::MAX - 2] {
            let blocks = chacha_blocks(&key, counter, 12);
            for l in 0..LANES {
                assert_eq!(
                    lane(&blocks, l),
                    chacha_block(&key, counter.wrapping_add(l as u64), 12),
                    "counter {counter}, lane {l}"
                );
            }
        }
    }

    #[test]
    fn words_follow_the_block_stream_across_refills() {
        // After every prefix of u32 draws, u64 draws join consecutive
        // stream words low first, also the pair that straddles a refill
        // (last word of one, first of the next).
        let key = StdRng::seed_from_u64(3).key;
        let stream: Vec<u32> = (0..4 * LANES as u64)
            .flat_map(|c| chacha_block(&key, c, 12))
            .collect();
        for skip in 0..=WORDS + 1 {
            let mut rng = StdRng::seed_from_u64(3);
            for want in &stream[..skip] {
                assert_eq!(rng.next_u32(), *want, "skip {skip}");
            }
            for (k, pair) in stream[skip..2 * WORDS + 2].chunks_exact(2).enumerate() {
                let want = ((pair[1] as u64) << 32) | pair[0] as u64;
                assert_eq!(rng.next_u64(), want, "skip {skip}, u64 {k}");
            }
        }
    }
}
