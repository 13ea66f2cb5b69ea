//! SIMD differential oracle: on every committed tier-1 golden scenario,
//! a run with the SIMD kernels forced off must produce a trace
//! byte-identical to the SIMD run — same FrameTrace digests on every
//! frame. This is the end-to-end companion of the per-kernel property
//! suite in `edgeis-imaging/tests/simd_props.rs`: it proves the vector
//! paths never move a bit through the full system, so the committed
//! goldens stay valid on machines with and without AVX.
//!
//! Scalar is forced with `simd::force_caps(SCALAR)`, the feature-absent
//! dispatch fallback. Forcing is process-global, so the native arm holds
//! the same lock, pinned to the detected capabilities: a scalar window
//! opened by a concurrent test can never turn it into a second scalar
//! run that passes by comparing scalar with scalar.

use edgeis::ServingConfig;
use edgeis_conformance::diff::diff_traces;
use edgeis_conformance::scenario::{faulted_schedule, record_fleet, record_single_with};
use edgeis_conformance::trace::Trace;
use edgeis_conformance::{write_divergence_report, Divergence};
use edgeis_imaging::simd::{self, force_caps, SimdCaps};

fn expect_identical(context: &str, d: Option<Divergence>) {
    if let Some(d) = d {
        let report = write_divergence_report(context, "simd_differential", &d);
        panic!("{context}: {d}\nreport: {}", report.display());
    }
}

/// Records `record` once with the dispatcher pinned to the host's
/// detected capabilities and once forced to scalar, and diffs the traces.
fn scalar_vs_native(context: &str, record: impl Fn() -> Trace) {
    let native = {
        let _caps = force_caps(simd::detected_caps());
        // Every x86_64 CPU has the baseline lanes, so there the native
        // arm really runs vector kernels.
        #[cfg(target_arch = "x86_64")]
        assert!(simd::blur_available(), "native arm is not running SIMD");
        record()
    };
    let scalar = {
        let _caps = force_caps(SimdCaps::SCALAR);
        record()
    };
    expect_identical(context, diff_traces("scalar", &scalar, "simd", &native));
}

#[test]
fn single_cfrs_scalar_trace_identical_to_simd() {
    scalar_vs_native("simd_single_cfrs", || {
        record_single_with("simd_diff_cfrs", 60, 1, None, |_| {})
    });
}

#[test]
fn single_faulted_scalar_trace_identical_to_simd() {
    scalar_vs_native("simd_single_faulted", || {
        record_single_with("simd_diff_faulted", 90, 2, Some(faulted_schedule()), |_| {})
    });
}

#[test]
fn fleet_serving_scalar_trace_identical_to_simd() {
    scalar_vs_native("simd_fleet_serving", || {
        record_fleet("simd_diff_fleet", 2, 48, Some(ServingConfig::default()))
    });
}
