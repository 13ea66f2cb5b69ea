//! `edgeis_ops` — offline run diagnosis.
//!
//! Turns one run's observability artifacts into a machine-readable
//! `diagnosis.json` plus a human summary: which SLO is violated, which
//! causal outcome labels carry the IoU shortfall, which devices are
//! worst, and what the burn-rate engine alerted on.
//!
//! ```text
//! edgeis_ops --run [scenario]     record a conformance matrix scenario
//!                                 (default: urban_rush) and diagnose it
//! edgeis_ops --ingest DIR         diagnose exported artifacts:
//!                                 DIR/frames.jsonl (required),
//!                                 DIR/spans.jsonl and DIR/metrics.prom
//!                                 (optional)
//! options:
//!   --frames N                    with --run: horizon override (the
//!                                 urban_rush demo defaults to 240 so
//!                                 the map death/rebirth cycle repeats)
//!   --out PATH                    output path (default results/diagnosis.json)
//!   --require-attribution         exit 1 unless some shortfall was
//!                                 attributed to a non-healthy outcome
//! ```

use edgeis_bench::ops;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode_run: Option<String> = None;
    let mut ingest_dir: Option<PathBuf> = None;
    let mut out_path = PathBuf::from("results/diagnosis.json");
    let mut require_attribution = false;
    let mut frames: Option<usize> = None;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--run" => {
                let name = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                    _ => "urban_rush".to_string(),
                };
                mode_run = Some(name);
            }
            "--ingest" => match it.next() {
                Some(dir) => ingest_dir = Some(PathBuf::from(dir)),
                None => return usage("--ingest needs a directory"),
            },
            "--out" => match it.next() {
                Some(p) => out_path = PathBuf::from(p),
                None => return usage("--out needs a path"),
            },
            "--frames" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => frames = Some(n),
                _ => return usage("--frames needs a positive integer"),
            },
            "--require-attribution" => require_attribution = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let diagnosis = match (mode_run, ingest_dir) {
        (Some(_), Some(_)) => return usage("--run and --ingest are mutually exclusive"),
        (None, None) => return usage("pick one of --run or --ingest"),
        (Some(name), None) => {
            // The headline demo: long enough that urban_rush's map
            // death/rebirth cycle repeats on the recording.
            let frames = frames.or(if name == "urban_rush" {
                Some(240)
            } else {
                None
            });
            match ops::diagnose_matrix(&name, frames) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("edgeis_ops: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        (None, Some(dir)) => match ingest(&dir) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("edgeis_ops: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    let doc = ops::diagnosis_json(&diagnosis);
    if let Some(parent) = out_path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("edgeis_ops: writing {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    print!("{}", ops::human_summary(&diagnosis));
    println!("  wrote {}", out_path.display());

    if require_attribution {
        let attributed: f64 = diagnosis
            .attribution
            .iter()
            .filter(|a| a.label != "healthy")
            .map(|a| a.shortfall)
            .sum();
        if attributed.is_nan() || attributed <= 0.0 {
            eprintln!(
                "edgeis_ops: --require-attribution: no shortfall attributed to any \
                 non-healthy outcome (total_shortfall {:.4})",
                diagnosis.total_shortfall
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn ingest(dir: &std::path::Path) -> Result<ops::Diagnosis, String> {
    let frames_path = dir.join("frames.jsonl");
    let text = std::fs::read_to_string(&frames_path)
        .map_err(|e| format!("reading {}: {e}", frames_path.display()))?;
    let (scenario, slo, samples) = ops::parse_frames_jsonl(&text)?;

    let alerts = match std::fs::read_to_string(dir.join("spans.jsonl")) {
        Ok(spans) => ops::parse_burn_events(&spans)?,
        Err(_) => Vec::new(),
    };
    let gauges = match std::fs::read_to_string(dir.join("metrics.prom")) {
        Ok(prom) => ops::parse_burn_gauges(&prom),
        Err(_) => Vec::new(),
    };
    Ok(ops::diagnose(&scenario, &slo, &samples, alerts, gauges))
}

fn usage(err: &str) -> ExitCode {
    eprintln!("edgeis_ops: {err}");
    eprintln!(
        "usage: edgeis_ops (--run [scenario] [--frames N] | --ingest DIR) \
         [--out PATH] [--require-attribution]"
    );
    ExitCode::FAILURE
}
