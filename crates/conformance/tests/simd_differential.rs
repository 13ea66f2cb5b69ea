//! SIMD differential oracle: on every committed tier-1 golden scenario,
//! a run with the SIMD kernels forced off must produce a trace
//! byte-identical to the SIMD run — same FrameTrace digests on every
//! frame. This is the end-to-end companion of the per-kernel property
//! suite in `edgeis-imaging/tests/simd_props.rs`: it proves the vector
//! paths never move a bit through the full system, so the committed
//! goldens stay valid on machines with and without AVX.
//!
//! Two forcing mechanisms are covered:
//!
//! - the `use_simd` config toggles (per-subsystem, per-run), and
//! - `simd::force_caps(SCALAR)`, the feature-absent dispatch fallback,
//!   which is process-global and therefore serialized on its lock.

use edgeis::{EdgeIsConfig, ServingConfig};
use edgeis_conformance::diff::diff_traces;
use edgeis_conformance::scenario::{faulted_schedule, record_fleet_with, record_single_with};
use edgeis_conformance::{write_divergence_report, Divergence};
use edgeis_imaging::SimdCaps;

fn expect_identical(context: &str, d: Option<Divergence>) {
    if let Some(d) = d {
        let report = write_divergence_report(context, "simd_differential", &d);
        panic!("{context}: {d}\nreport: {}", report.display());
    }
}

/// Forces every SIMD kernel off through the config toggles.
fn scalar_tweak(cfg: &mut EdgeIsConfig) {
    cfg.vo.orb.use_simd = false;
}

/// Forces every SIMD kernel on (the defaults, stated explicitly so the
/// test keeps meaning even if defaults change).
fn simd_tweak(cfg: &mut EdgeIsConfig) {
    cfg.vo.orb.use_simd = true;
}

#[test]
fn single_cfrs_scalar_trace_identical_to_simd() {
    let scalar = record_single_with("simd_diff_cfrs", 60, 1, None, scalar_tweak);
    let simd = record_single_with("simd_diff_cfrs", 60, 1, None, simd_tweak);
    expect_identical(
        "simd_single_cfrs",
        diff_traces("scalar", &scalar, "simd", &simd),
    );
}

#[test]
fn single_faulted_scalar_trace_identical_to_simd() {
    let scalar = record_single_with(
        "simd_diff_faulted",
        90,
        2,
        Some(faulted_schedule()),
        scalar_tweak,
    );
    let simd = record_single_with(
        "simd_diff_faulted",
        90,
        2,
        Some(faulted_schedule()),
        simd_tweak,
    );
    expect_identical(
        "simd_single_faulted",
        diff_traces("scalar", &scalar, "simd", &simd),
    );
}

#[test]
fn fleet_serving_scalar_trace_identical_to_simd() {
    let scalar = record_fleet_with(
        "simd_diff_fleet",
        2,
        48,
        Some(ServingConfig::default()),
        scalar_tweak,
    );
    let simd = record_fleet_with(
        "simd_diff_fleet",
        2,
        48,
        Some(ServingConfig::default()),
        simd_tweak,
    );
    expect_identical(
        "simd_fleet_serving",
        diff_traces("scalar", &scalar, "simd", &simd),
    );
}

#[test]
fn forced_scalar_dispatch_trace_identical_to_native() {
    // Same oracle through the other forcing mechanism: pin the runtime
    // capability set to scalar (as on a CPU with no SIMD tiers) while the
    // config still *asks* for SIMD. The dispatcher must fall back without
    // moving a bit. The native arm runs first, outside the lock, so a
    // concurrent test can never see a forced window it didn't create.
    let native = record_single_with("simd_diff_caps", 60, 1, None, simd_tweak);
    let forced = {
        let _caps = edgeis_imaging::simd::force_caps(SimdCaps::SCALAR);
        record_single_with("simd_diff_caps", 60, 1, None, simd_tweak)
    };
    expect_identical(
        "simd_forced_caps",
        diff_traces("native", &native, "forced-scalar", &forced),
    );
}
