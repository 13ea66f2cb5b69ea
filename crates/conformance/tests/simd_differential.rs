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
//!
//! Below the traces, every descriptor the detector ships on rendered
//! `patrol_drift` and `urban_rush` frames is checked one by one against
//! the clamped oracle at its own keypoint, under both arms.

use edgeis::{EdgeIsConfig, ServingConfig};
use edgeis_conformance::diff::diff_traces;
use edgeis_conformance::scenario::{
    camera, faulted_schedule, record_fleet, record_single_with, rendered_frames,
};
use edgeis_conformance::trace::Trace;
use edgeis_conformance::{write_divergence_report, Divergence};
use edgeis_imaging::features::reference;
use edgeis_imaging::simd::{self, force_caps, SimdCaps};
use edgeis_imaging::{detect_orb_with_scratch, OrbScratch};
use edgeis_scene::datasets;

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
        // arm really runs vector kernels, and the BRIEF kernel runs
        // wherever the CPU reports AVX2 (whatever the build's target-cpu).
        #[cfg(target_arch = "x86_64")]
        {
            assert!(simd::blur_available(), "native arm is not running SIMD");
            assert_eq!(
                simd::brief_available(),
                is_x86_feature_detected!("avx2"),
                "BRIEF dispatch does not follow runtime detection"
            );
        }
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

#[test]
fn rendered_frames_every_descriptor_is_the_clamped_oracle() {
    // Per level: descriptors checked, and those of keypoints 16–22 px
    // from the nearest level edge (the border band, where the widest
    // pattern points sample the edge's neighbourhood).
    let mut checked = [0usize; 3];
    let mut band = [0usize; 3];
    for world in [datasets::patrol_drift(1), datasets::urban_rush(1)] {
        let orb = EdgeIsConfig::full(camera(), 1).vo.orb;
        for (i, image) in rendered_frames(&world, 24).enumerate() {
            let levels = reference::pyramid(&image, orb.n_levels);
            for caps in [simd::detected_caps(), SimdCaps::SCALAR] {
                let (kps, descs) = {
                    let _caps = force_caps(caps);
                    detect_orb_with_scratch(&image, &orb, &mut OrbScratch::default())
                };
                let want = reference::descriptors_at(&image, &orb, &kps);
                for (k, (kp, (got, want))) in kps.iter().zip(descs.iter().zip(&want)).enumerate() {
                    assert_eq!(got, want, "{caps:?} frame {i}: descriptor {k} at {kp:?}");
                    let level = &levels[kp.level as usize];
                    let scale = (1u64 << kp.level) as f64;
                    let (x, y) = ((kp.x / scale) as usize, (kp.y / scale) as usize);
                    let (w, h) = (level.width() as usize, level.height() as usize);
                    let edge = x.min(y).min(w - 1 - x).min(h - 1 - y);
                    checked[kp.level as usize] += 1;
                    band[kp.level as usize] += (16..=22).contains(&edge) as usize;
                }
            }
        }
    }
    assert!(
        checked.iter().chain(&band).all(|&n| n > 0),
        "a level or its border band went unchecked: {checked:?} {band:?}"
    );
}
