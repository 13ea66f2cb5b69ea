//! Canary for the differential oracle itself: deliberately corrupt the
//! shipped BRIEF path (a test-only hook flips one descriptor bit) and
//! assert the shipped-vs-reference detector diff actually catches it,
//! naming the first diverging frame and field — and that the hook
//! reaches every shipped descriptor, border-band keypoints included.
//!
//! Lives in its own integration test binary because the corruption hook
//! is process-global.

use edgeis::EdgeIsConfig;
use edgeis_conformance::scenario::{camera, detector_divergence, rendered_frames};
use edgeis_conformance::write_divergence_report;
use edgeis_imaging::features::reference;
use edgeis_imaging::{detect_orb_with_scratch, OrbScratch};
use edgeis_scene::datasets;

/// Descriptors the shipped detector returns over the 45 frames the
/// divergence check renders, and how many of them equal the reference's.
fn shipped_descriptors_equal_to_reference() -> (usize, usize) {
    let orb = EdgeIsConfig::full(camera(), 11).vo.orb;
    let mut scratch = OrbScratch::default();
    let (mut total, mut equal) = (0, 0);
    for image in rendered_frames(&datasets::indoor_simple(11), 45) {
        let (_, want) = reference::detect_orb(&image, &orb);
        let (_, got) = detect_orb_with_scratch(&image, &orb, &mut scratch);
        assert_eq!(got.len(), want.len(), "keypoint count moved");
        total += got.len();
        equal += got.iter().zip(&want).filter(|(g, w)| g == w).count();
    }
    (total, equal)
}

#[test]
fn corrupted_brief_fast_path_is_caught_with_frame_and_field() {
    edgeis_imaging::test_hooks::set_corrupt_brief_fast(true);
    let caught = detector_divergence(45, 11);
    let (total, untouched) = shipped_descriptors_equal_to_reference();
    edgeis_imaging::test_hooks::set_corrupt_brief_fast(false);

    // Every shipped descriptor goes through the corrupted kernel: none
    // may still equal the reference.
    assert!(total > 0, "no descriptors shipped");
    assert_eq!(
        untouched, 0,
        "{untouched} of {total} shipped descriptors bypass the corrupted BRIEF path"
    );

    let d = caught.expect(
        "corrupted BRIEF fast path went undetected — the differential oracle has lost its teeth",
    );
    // The report must localize the failure: a concrete frame and the
    // corrupted descriptor with both values, plus the structured artifact
    // CI uploads.
    assert!(
        d.field.starts_with("descriptors["),
        "divergence should name a descriptor, got `{}`",
        d.field
    );
    assert_ne!(d.lhs, d.rhs);
    let report = write_divergence_report("broken_fast_path_canary", "canary", &d);
    assert!(report.exists(), "structured report was not written");
    println!("canary caught: {d}");
}
