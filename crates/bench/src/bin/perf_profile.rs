//! Stage-level performance profile of the frame pipeline.
//!
//! Runs one fixed, seeded workload through the full edgeIS system in three
//! configurations (see [`edgeis_bench::perf::ProfileMode`]) and writes
//! `results/BENCH_pipeline.json`:
//!
//! - `optimized_serial_no_simd` — one thread, the SIMD dispatcher forced
//!   to scalar (`simd::force_caps(SCALAR)`).
//! - `optimized_serial` — one thread (`EDGEIS_THREADS=1` equivalent),
//!   SIMD kernels on.
//! - `optimized_parallel` — default thread count.
//!
//! All three configurations produce bit-identical masks (the parallel
//! merge and the SIMD kernels are exact; the run asserts equal mean IoU),
//! so the profile only moves timing fields. Per-stage p50/p95/mean,
//! end-to-end frame time, wall-clock fps and the peak scratch bytes
//! (allocation proxy) are recorded per run, plus the headline
//! `optimized_serial_no_simd` → `optimized_parallel` speedup.

use edgeis::metrics::percentile;
use edgeis_bench::json;
use edgeis_bench::perf::{self, ProfileMode, ProfileRun, FPS, FRAMES, HEIGHT, SEED, WIDTH};

fn to_json(runs: &[ProfileRun]) -> String {
    json::document(|o| {
        o.inline_object("workload", |w| {
            w.str("scenario", "indoor_simple");
            w.int("seed", SEED as i64);
            w.int("frames", FRAMES as i64);
            w.num("fps", FPS, 1);
            w.int("width", WIDTH as i64);
            w.int("height", HEIGHT as i64);
        });
        o.int("host_threads", edgeis_parallel::num_threads() as i64);
        o.array("runs", |a| {
            for run in runs {
                let totals = run.frame_totals();
                a.object(|r| {
                    r.str("label", run.label);
                    r.int("threads", run.threads as i64);
                    r.inline_object("frame_ms", |f| {
                        f.num("mean", run.frame_ms_mean(), 4);
                        f.num("p50", percentile(&totals, 0.5), 4);
                        f.num("p95", percentile(&totals, 0.95), 4);
                    });
                    r.num("wall_fps", run.wall_fps(), 2);
                    r.int("scratch_peak_bytes", run.scratch_peak_bytes as i64);
                    r.array("stages", |stages| {
                        for s in run.report.stage_summaries() {
                            stages.inline_object(|row| {
                                row.str("stage", &s.stage);
                                row.num("p50_ms", s.p50_ms, 4);
                                row.num("p95_ms", s.p95_ms, 4);
                                row.num("mean_ms", s.mean_ms, 4);
                            });
                        }
                    });
                });
            }
        });
        let baseline = runs[0].frame_ms_mean();
        let optimized = runs.last().expect("runs").frame_ms_mean();
        o.num("baseline_frame_ms", baseline, 4);
        o.num("optimized_frame_ms", optimized, 4);
        o.num(
            "speedup_end_to_end",
            if optimized > 0.0 {
                baseline / optimized
            } else {
                0.0
            },
            3,
        );
    })
}

fn main() {
    println!(
        "Pipeline stage profile — indoor_simple seed {SEED}, {FRAMES} frames, \
         {} host thread(s)\n",
        edgeis_parallel::num_threads()
    );

    let runs = [
        perf::profile(ProfileMode::OptimizedSerialNoSimd, FRAMES),
        perf::profile(ProfileMode::OptimizedSerial, FRAMES),
        perf::profile(ProfileMode::OptimizedParallel, FRAMES),
    ];

    println!(
        "{:<28} {:>8} {:>10} {:>10} {:>9} {:>12}",
        "run", "threads", "frame p50", "frame p95", "fps", "scratch KiB"
    );
    for run in &runs {
        let totals = run.frame_totals();
        println!(
            "{:<28} {:>8} {:>8.2}ms {:>8.2}ms {:>9.1} {:>12.1}",
            run.label,
            run.threads,
            percentile(&totals, 0.5),
            percentile(&totals, 0.95),
            run.wall_fps(),
            run.scratch_peak_bytes as f64 / 1024.0
        );
    }

    println!("\nPer-stage breakdown (optimized_parallel):");
    println!("{:<14} {:>10} {:>10} {:>10}", "stage", "p50", "p95", "mean");
    for s in runs.last().expect("runs").report.stage_summaries() {
        println!(
            "{:<14} {:>8.3}ms {:>8.3}ms {:>8.3}ms",
            s.stage, s.p50_ms, s.p95_ms, s.mean_ms
        );
    }

    let baseline = runs[0].frame_ms_mean();
    let optimized = runs.last().expect("runs").frame_ms_mean();
    println!(
        "\nend-to-end frame time: {} {:.2} ms -> {} {:.2} ms ({:.2}x)",
        runs[0].label,
        baseline,
        runs.last().expect("runs").label,
        optimized,
        if optimized > 0.0 {
            baseline / optimized
        } else {
            0.0
        }
    );

    // Masks must be identical across all runs — the profile only moves
    // timing fields.
    let iou0 = runs[0].report.mean_iou();
    for run in &runs[1..] {
        assert!(
            (run.report.mean_iou() - iou0).abs() < 1e-12,
            "profile run {} changed accuracy: {} vs {}",
            run.label,
            run.report.mean_iou(),
            iou0
        );
    }

    let json = to_json(&runs);
    let path = "results/BENCH_pipeline.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}
