//! CI perf regression gate.
//!
//! Measures the fixed pipeline workload plus the 2-device fleet-serving
//! smoke cell (see [`edgeis_bench::perf`]) and compares per-stage p50s,
//! end-to-end frame p50, wall-clock fps, fleet response percentiles and
//! peak scratch bytes against the checked-in baseline
//! `results/perf_baseline.json`, with a ratio noise margin and per-metric
//! absolute noise floors (see [`edgeis_bench::gate`]). Always writes the
//! machine-readable verdict to `target/perf_gate/verdict.json`; exits
//! non-zero when any metric regressed.
//!
//! Baselines are **per host**: the gate compares against the entry for
//! this machine's fingerprint (hostname + SIMD capability set, see
//! [`edgeis_bench::gate::host_fingerprint`]) in the baseline's `hosts`
//! block when one exists, and falls back to the top-level reference
//! metrics — with a printed notice — when it does not. The fallback is
//! deliberately *not* an auto-bless: an unknown host still gates against
//! the reference numbers, so CI's negative self-test keeps failing.
//!
//! Flags:
//!
//! - `--bless` — re-measure and record the baseline instead of gating.
//!   With an existing baseline this upserts the entry for *this host's*
//!   fingerprint, leaving the top-level reference metrics and other
//!   hosts' entries untouched — safe to run on any machine. With no
//!   baseline file it writes the top-level reference metrics.
//! - `--bless-reference` — overwrite the top-level reference metrics
//!   (dropping no host entries). Run on the reference machine only (see
//!   EXPERIMENTS.md) — a reference baseline blessed on a slower host
//!   would let real regressions through.
//! - `--smoke` — single repetition (CI latency budget); the full
//!   gate takes the best of three repetitions to shed scheduler noise.
//! - `--inject-slowdown <pct>` — scale every measured time metric up (and
//!   fps down) by `pct` percent *after* measurement. CI's negative check:
//!   `--inject-slowdown 20` must make the gate fail.

use edgeis_bench::gate::{self, Metric};
use edgeis_bench::perf::{self, ProfileMode};
use std::path::Path;
use std::process::ExitCode;

const BASELINE_PATH: &str = "results/perf_baseline.json";
const VERDICT_PATH: &str = "target/perf_gate/verdict.json";
/// Gated mode: the SIMD-on run carries the per-stage story and the
/// end-to-end fps headline.
const MODE: ProfileMode = ProfileMode::OptimizedSerial;
const NOISE_MARGIN: f64 = 0.15;

/// Best-of-`reps` measurement: per metric, keep the fastest (highest for
/// throughput) observation — the standard estimator for timing under
/// scheduler noise.
fn measure(reps: usize) -> Vec<Metric> {
    let mut best: Vec<Metric> = Vec::new();
    let fold = |best: &mut Vec<Metric>, measured: Vec<Metric>| {
        for m in measured {
            match best.iter_mut().find(|b| b.name == m.name) {
                None => best.push(m),
                Some(b) => {
                    let better = if m.higher_is_better {
                        m.value > b.value
                    } else {
                        m.value < b.value
                    };
                    if better {
                        b.value = m.value;
                    }
                }
            }
        }
    };
    for rep in 0..reps {
        let run = perf::profile(MODE, perf::FRAMES);
        fold(&mut best, gate::run_metrics(&run));
        println!(
            "rep {}/{}: measured {} ({} metrics)",
            rep + 1,
            reps,
            MODE.label(),
            best.len()
        );
        fold(&mut best, gate::fleet_metrics(&perf::fleet_smoke()));
        println!(
            "rep {}/{}: measured fleet_smoke ({} metrics)",
            rep + 1,
            reps,
            best.len()
        );
    }
    best
}

fn inject_slowdown(metrics: &mut [Metric], pct: f64) {
    let factor = 1.0 + pct / 100.0;
    for m in metrics.iter_mut() {
        if m.higher_is_better {
            m.value /= factor;
        } else {
            m.value *= factor;
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bless_reference = args.iter().any(|a| a == "--bless-reference");
    let bless = bless_reference || args.iter().any(|a| a == "--bless");
    let smoke = args.iter().any(|a| a == "--smoke");
    let slowdown_pct: Option<f64> = args
        .iter()
        .position(|a| a == "--inject-slowdown")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let reps = if smoke { 1 } else { 3 };

    println!(
        "perf gate — indoor_simple seed {}, {} frames, best of {} rep(s), margin {:.0}%",
        perf::SEED,
        perf::FRAMES,
        reps,
        NOISE_MARGIN * 100.0
    );

    let mut current = measure(reps);
    if let Some(pct) = slowdown_pct {
        println!("injecting a synthetic {pct:.0}% slowdown into the measured metrics");
        inject_slowdown(&mut current, pct);
    }

    let fingerprint = gate::host_fingerprint();

    if bless {
        let existing = std::fs::read_to_string(BASELINE_PATH).ok();
        let threads = perf::THREADS;
        let doc = match &existing {
            // No baseline yet (or a reference re-bless): this measurement
            // becomes the top-level reference, keeping any host entries.
            None => gate::baseline_to_json(&current, NOISE_MARGIN, perf::FRAMES, threads),
            Some(text) if bless_reference => {
                let hosts = gate::hosts_from_json(text).unwrap_or_default();
                gate::baseline_document(&current, NOISE_MARGIN, perf::FRAMES, threads, &hosts)
            }
            // Ordinary bless on a machine with an existing baseline:
            // upsert this host's entry, touching nothing else.
            Some(text) => {
                let (top, margin) = match gate::baseline_from_json(text) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("malformed baseline {BASELINE_PATH}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let mut hosts = gate::hosts_from_json(text).unwrap_or_default();
                hosts.retain(|h| h.fingerprint != fingerprint);
                hosts.push(gate::HostBaseline {
                    fingerprint: fingerprint.clone(),
                    host_threads: threads,
                    metrics: current.clone(),
                });
                println!("blessing host entry `{fingerprint}` (reference metrics untouched)");
                gate::baseline_document(
                    &top,
                    margin,
                    gate::frames_from_json(text),
                    gate::host_threads_from_json(text),
                    &hosts,
                )
            }
        };
        if let Some(dir) = Path::new(BASELINE_PATH).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(BASELINE_PATH, &doc) {
            Ok(()) => {
                println!("blessed {} metrics into {BASELINE_PATH}", current.len());
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("could not write {BASELINE_PATH}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let text = match std::fs::read_to_string(BASELINE_PATH) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("no baseline at {BASELINE_PATH} ({e}); run `perf_gate --bless` first");
            return ExitCode::FAILURE;
        }
    };
    let (reference, margin) = match gate::baseline_from_json(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("malformed baseline {BASELINE_PATH}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let hosts = match gate::hosts_from_json(&text) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("malformed baseline {BASELINE_PATH}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match hosts.into_iter().find(|h| h.fingerprint == fingerprint) {
        Some(h) => {
            println!("comparing against host baseline `{fingerprint}`");
            h.metrics
        }
        None => {
            println!(
                "no host baseline for `{fingerprint}`; comparing against the \
                 reference metrics (run `perf_gate --bless` here to record one)"
            );
            reference
        }
    };

    let report = gate::compare(&baseline, &current, margin);
    if let Some(dir) = Path::new(VERDICT_PATH).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(VERDICT_PATH, report.to_json()) {
        Ok(()) => println!("wrote {VERDICT_PATH}"),
        Err(e) => eprintln!("could not write {VERDICT_PATH}: {e}"),
    }

    println!(
        "\n{:<46} {:>10} {:>10} {:>7}  status",
        "metric", "baseline", "current", "ratio"
    );
    for r in &report.rows {
        println!(
            "{:<46} {:>10} {:>10} {:>7}  {}",
            r.name,
            r.baseline.map_or("-".into(), |v| format!("{v:.3}")),
            r.current.map_or("-".into(), |v| format!("{v:.3}")),
            r.ratio.map_or("-".into(), |v| format!("{v:.3}")),
            match r.status {
                gate::Status::Pass => "ok",
                gate::Status::Regressed => "REGRESSED",
                gate::Status::Improved => "improved",
                gate::Status::Missing => "missing",
            }
        );
    }

    if report.pass() {
        println!("\nperf gate PASS ({} metrics)", report.rows.len());
        ExitCode::SUCCESS
    } else {
        let n = report.regressions().len();
        eprintln!(
            "\nperf gate FAIL: {n} metric(s) regressed past the {:.0}% margin",
            margin * 100.0
        );
        ExitCode::FAILURE
    }
}
