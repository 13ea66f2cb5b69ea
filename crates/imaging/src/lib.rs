//! Image-processing substrate for the edgeIS reproduction.
//!
//! The paper's mobile side consumes camera frames through OpenCV and ORB
//! features; this crate rebuilds those primitives from scratch:
//!
//! - [`GrayImage`] — 8-bit images with bilinear sampling,
//! - [`Mask`] / [`LabelMap`] — pixel-accurate instance masks with RLE,
//!   IoU ([`mask::iou`]) and morphology,
//! - [`contour`] — border-following contour extraction (the paper's
//!   `findContours`) and scanline polygon fill,
//! - [`features`] — FAST-9 keypoints and rotated-BRIEF (ORB) descriptors
//!   over an image pyramid,
//! - [`matching`] — brute-force Hamming matching with ratio and symmetry
//!   tests,
//! - [`tracker`] — the baselines' local trackers: a motion-vector block
//!   tracker (EAAR) and a correlation template tracker (EdgeDuet's KCF
//!   stand-in),
//! - [`integral`] — integral images and gradient-energy maps used by the
//!   tile codec.

pub mod contour;
pub mod features;
pub mod image;
pub mod integral;
pub mod mask;
pub mod matching;
pub mod simd;
pub mod tracker;

/// Test-only fault injection, so the conformance suite can prove a
/// silently diverged fast path is *caught* (not merely absent). Hidden
/// from docs; never enabled outside tests.
#[doc(hidden)]
pub mod test_hooks {
    use std::sync::atomic::{AtomicBool, Ordering};

    static CORRUPT_BRIEF_FAST: AtomicBool = AtomicBool::new(false);

    /// When enabled, [`super::features`]' fast BRIEF sampler flips bit 0
    /// of every descriptor — a deliberate one-bit divergence from the
    /// reference path for conformance-detection tests. Affects the whole
    /// process: only use from a dedicated test binary.
    pub fn set_corrupt_brief_fast(enabled: bool) {
        CORRUPT_BRIEF_FAST.store(enabled, Ordering::SeqCst);
    }

    pub(crate) fn brief_fast_corruption_enabled() -> bool {
        CORRUPT_BRIEF_FAST.load(Ordering::Relaxed)
    }
}

pub use contour::{extract_contours, fill_polygon, Contour};
pub use features::{
    detect_orb, detect_orb_with_scratch, Descriptor, Keypoint, OrbConfig, OrbScratch,
};
pub use image::GrayImage;
pub use integral::{gradient_energy, gradient_energy_into, IntegralImage};
pub use mask::{iou, LabelMap, Mask, RleMask};
pub use matching::{match_descriptors, match_descriptors_spatial, Match, MatchConfig};
pub use simd::SimdCaps;
pub use tracker::{CorrelationTracker, MotionVectorField};
