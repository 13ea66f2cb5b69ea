//! Canary for the differential oracle itself: deliberately corrupt the
//! BRIEF fast path (a test-only hook flips one descriptor bit) and
//! assert the shipped-vs-reference detector diff actually catches it,
//! naming the first diverging frame and field.
//!
//! Lives in its own integration test binary because the corruption hook
//! is process-global.

use edgeis_conformance::scenario::detector_divergence;
use edgeis_conformance::write_divergence_report;

#[test]
fn corrupted_brief_fast_path_is_caught_with_frame_and_field() {
    edgeis_imaging::test_hooks::set_corrupt_brief_fast(true);
    let caught = detector_divergence(45, 11);
    edgeis_imaging::test_hooks::set_corrupt_brief_fast(false);

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
