//! Shared stage-level profiling of the frame pipeline.
//!
//! One fixed, seeded workload (`indoor_simple`, 320×240, 120 frames at
//! 30 fps) run through the full edgeIS system under a named
//! [`ProfileMode`]. Both the human-facing `perf_profile` binary and the
//! CI `perf_gate` binary measure through this module, so a number in
//! `results/BENCH_pipeline.json` and a number the gate compares against
//! `results/perf_baseline.json` come from the same code path.

use edgeis::metrics::{percentile, Report};
use edgeis::pipeline::{class_map, run_pipeline, PipelineConfig};
use edgeis::system::{EdgeIsConfig, EdgeIsSystem};
use edgeis_geometry::Camera;
use edgeis_imaging::simd;
use edgeis_netsim::LinkKind;
use edgeis_scene::datasets;
use std::time::Instant;

/// Workload seed shared by every profile run.
pub const SEED: u64 = 7;
/// Full workload length, frames.
pub const FRAMES: usize = 120;
/// Camera rate, fps.
pub const FPS: f64 = 30.0;
/// Workload camera width, px.
pub const WIDTH: u32 = 320;
/// Workload camera height, px.
pub const HEIGHT: u32 = 240;

/// Worker threads every profile run uses: the frame pipeline is
/// single-threaded. Recorded as `host_threads` in the bench artifacts.
pub const THREADS: usize = 1;

/// Which optimization tier a profile run measures. Both tiers produce
/// bit-identical masks — the SIMD kernels are exact — so they differ
/// only in timing. The detector fast paths, the matcher
/// (register-blocked scalar scan) and transfer (linear k-NN) have one
/// path, shared by both tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileMode {
    /// The SIMD dispatcher forced to scalar (`simd::force_caps(SCALAR)`),
    /// as on a CPU without the features.
    OptimizedSerialNoSimd,
    /// Each SIMD kernel (blur, FAST pre-test, BRIEF) running where the
    /// CPU has its feature.
    OptimizedSerial,
}

impl ProfileMode {
    /// Stable label used in JSON artifacts and baselines.
    pub fn label(self) -> &'static str {
        match self {
            Self::OptimizedSerialNoSimd => "optimized_serial_no_simd",
            Self::OptimizedSerial => "optimized_serial",
        }
    }
}

/// One measured profile run.
pub struct ProfileRun {
    /// Stable run label (see [`ProfileMode::label`]).
    pub label: &'static str,
    /// The pipeline report (per-frame stage timings, IoU samples).
    pub report: Report,
    /// Host wall-clock for the whole simulated run (includes rendering), ms.
    pub wall_ms: f64,
    /// Tracker + codec peak scratch bytes (allocation proxy).
    pub scratch_peak_bytes: usize,
}

impl ProfileRun {
    /// Per-frame end-to-end pipeline compute (sum of measured stages) for
    /// frames that were actually processed, ms.
    pub fn frame_totals(&self) -> Vec<f64> {
        self.report
            .records
            .iter()
            .map(|r| r.stages.total_ms())
            .filter(|&v| v > 0.0)
            .collect()
    }

    /// Mean per-frame pipeline compute, ms.
    pub fn frame_ms_mean(&self) -> f64 {
        self.report.mean_stage_total_ms()
    }

    /// Median per-frame pipeline compute, ms.
    pub fn frame_ms_p50(&self) -> f64 {
        percentile(&self.frame_totals(), 0.5)
    }

    /// Processed frames per host wall-clock second.
    pub fn wall_fps(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.report.records.len() as f64 / (self.wall_ms / 1000.0)
        }
    }
}

/// One measured fleet-serving smoke run (the `fleet_profile --smoke`
/// cell): wall-clock throughput of the shared-edge serving path plus its
/// virtual-clock response percentiles.
pub struct FleetSmokeRun {
    /// Host wall-clock for the whole run, ms.
    pub wall_ms: f64,
    /// Frames simulated across all devices.
    pub frames_total: usize,
    /// Virtual-clock response round-trip p50, ms (deterministic per seed).
    pub response_p50_ms: f64,
    /// Virtual-clock response round-trip p99, ms.
    pub response_p99_ms: f64,
}

impl FleetSmokeRun {
    /// Simulated frames per host wall-clock second.
    pub fn wall_fps(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.frames_total as f64 / (self.wall_ms / 1000.0)
        }
    }
}

/// Fleet devices in the smoke cell.
pub const FLEET_DEVICES: usize = 2;
/// Frames per device in the smoke cell.
pub const FLEET_FRAMES: usize = 48;

/// Runs the 2-device serving smoke workload (the cell `fleet_profile
/// --smoke` sweeps) under wall-clock timing, so the gate also guards the
/// shared-edge serving path — batching, shard dispatch, response decode.
pub fn fleet_smoke() -> FleetSmokeRun {
    use edgeis::multi::{run_multi_device_with_stats, MultiDeviceConfig};
    use edgeis::serving::ServingConfig;
    use edgeis_telemetry::Histogram;

    let config = MultiDeviceConfig {
        devices: FLEET_DEVICES,
        frames: FLEET_FRAMES,
        seed: SEED,
        serving: Some(ServingConfig::default()),
        ..Default::default()
    };
    let start = Instant::now();
    let (reports, _) = run_multi_device_with_stats(datasets::indoor_simple, &config);
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let hist = Histogram::new();
    for r in &reports {
        hist.merge_from(&Histogram::from_samples(&r.response_latency_samples()));
    }
    FleetSmokeRun {
        wall_ms,
        frames_total: FLEET_DEVICES * FLEET_FRAMES,
        response_p50_ms: hist.quantile(0.5),
        response_p99_ms: hist.quantile(0.99),
    }
}

/// Runs the fixed workload once under `mode`, measuring `frames` frames
/// (pass [`FRAMES`] for the full workload).
pub fn profile(mode: ProfileMode, frames: usize) -> ProfileRun {
    let world = datasets::indoor_simple(SEED);
    let classes = class_map(&world);
    let camera = Camera::with_hfov(1.2, WIDTH, HEIGHT);
    let cfg = EdgeIsConfig::full(camera, SEED);
    let pipe = PipelineConfig {
        fps: FPS,
        frames,
        min_scored_area: 80,
        warmup_frames: 30,
    };
    // Dispatch pinned for the whole run; the guard's lock keeps any other
    // forced section in the process from changing it mid-run.
    let _caps = simd::force_caps(match mode {
        ProfileMode::OptimizedSerial => simd::detected_caps(),
        ProfileMode::OptimizedSerialNoSimd => simd::SimdCaps::SCALAR,
    });
    let mut system = EdgeIsSystem::new(cfg, LinkKind::Wifi5);
    let start = Instant::now();
    let report = run_pipeline(&mut system, &world, &camera, &classes, &pipe);
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    ProfileRun {
        label: mode.label(),
        report,
        wall_ms,
        scratch_peak_bytes: system.scratch_peak_bytes(),
    }
}
