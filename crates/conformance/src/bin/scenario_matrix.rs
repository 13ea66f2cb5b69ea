//! Scenario-matrix conformance runner.
//!
//! ```text
//! scenario_matrix              # smoke: every matrix scenario, SLO + golden check
//! scenario_matrix --full      # additionally run the 10k-frame drift run (SLO only)
//! scenario_matrix --measure   # print measured values, assert nothing (calibration)
//! scenario_matrix urban_rush  # restrict to named scenarios
//! ```
//!
//! Each golden scenario is recorded once; the trace is scored against its
//! committed [`edgeis::slo::ScenarioSlo`] and byte-checked against its golden. A
//! machine-readable verdict is written to
//! `target/conformance/scenario_matrix.verdict.json` (uploaded as a CI
//! artifact), and the process exits non-zero if any scenario misses a
//! budget or diverges from its golden.

use edgeis::slo::SloOutcome;
use edgeis_conformance::scenario::PATROL_DRIFT_FULL_FRAMES;
use edgeis_conformance::{
    check_golden, golden_scenarios, matrix_scenarios, repo_root, write_divergence_report,
    GoldenVerdict, Trace,
};

struct Row {
    name: String,
    outcome: SloOutcome,
    golden: &'static str,
    pass: bool,
}

fn score(trace: &Trace, slo: edgeis::slo::ScenarioSlo) -> SloOutcome {
    let records: Vec<_> = trace.frames.iter().map(|f| f.record.clone()).collect();
    slo.check(&records)
}

fn fmt_row(r: &Row) -> String {
    format!(
        "{{\"scenario\":\"{}\",\"mean_iou\":{:.6},\"iou_samples\":{},\
         \"p99_latency_ms\":{:.3},\"latency_samples\":{},\"iou_ok\":{},\
         \"latency_ok\":{},\"golden\":\"{}\",\"pass\":{}}}",
        r.name,
        r.outcome.mean_iou,
        r.outcome.iou_samples,
        r.outcome.p99_latency_ms,
        r.outcome.latency_samples,
        r.outcome.iou_ok,
        r.outcome.latency_ok,
        r.golden,
        r.pass
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let measure = args.iter().any(|a| a == "--measure");
    let names: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let mut rows: Vec<Row> = Vec::new();
    let mut failed = false;

    for scenario in golden_scenarios() {
        if !names.is_empty() && !names.iter().any(|n| *n == scenario.name) {
            continue;
        }
        let trace = scenario.record();
        let outcome = score(&trace, scenario.slo);
        let (golden_state, golden_ok) = match check_golden(scenario.name, &trace.canonical_json()) {
            GoldenVerdict::Matched => ("ok", true),
            GoldenVerdict::Missing => ("missing", false),
            GoldenVerdict::Diverged(d) => {
                write_divergence_report(scenario.name, "scenario_matrix", &d);
                ("diverged", false)
            }
        };
        let pass = measure || (outcome.ok() && golden_ok);
        println!(
            "{:<16} iou {:.3} ({} samples)  p99 {:>7.1} ms ({} resp)  slo[iou {} lat {}]  golden {}",
            scenario.name,
            outcome.mean_iou,
            outcome.iou_samples,
            outcome.p99_latency_ms,
            outcome.latency_samples,
            if outcome.iou_ok { "ok" } else { "MISS" },
            if outcome.latency_ok { "ok" } else { "MISS" },
            golden_state
        );
        if !pass {
            failed = true;
        }
        rows.push(Row {
            name: scenario.name.to_string(),
            outcome,
            golden: golden_state,
            pass,
        });
    }

    if full {
        // The long-horizon drift certification: 10k frames over the
        // patrol world, SLO-only (a 10k-frame golden would be megabytes
        // of committed noise for no extra conformance signal).
        let drift = matrix_scenarios()
            .into_iter()
            .find(|m| m.name == "patrol_drift")
            .expect("patrol_drift registered");
        if names.is_empty() || names.iter().any(|n| *n == "patrol_drift") {
            eprintln!(
                "recording patrol_drift_full ({PATROL_DRIFT_FULL_FRAMES} frames) — this takes a while"
            );
            let trace = drift.record_seeded(drift.seed, PATROL_DRIFT_FULL_FRAMES);
            let outcome = score(&trace, drift.slo);
            let pass = measure || outcome.ok();
            println!(
                "patrol_drift_full iou {:.3} ({} samples)  p99 {:>7.1} ms ({} resp)  slo[iou {} lat {}]",
                outcome.mean_iou,
                outcome.iou_samples,
                outcome.p99_latency_ms,
                outcome.latency_samples,
                if outcome.iou_ok { "ok" } else { "MISS" },
                if outcome.latency_ok { "ok" } else { "MISS" },
            );
            if !pass {
                failed = true;
            }
            rows.push(Row {
                name: "patrol_drift_full".to_string(),
                outcome,
                golden: "not-checked",
                pass,
            });
        }
    }

    let dir = repo_root().join("target/conformance");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("scenario_matrix.verdict.json");
    let body = format!(
        "{{\"suite\":\"scenario_matrix\",\"pass\":{},\"scenarios\":[{}]}}\n",
        !failed,
        rows.iter().map(fmt_row).collect::<Vec<_>>().join(",")
    );
    std::fs::write(&path, body).expect("write verdict");
    println!("verdict: {}", path.display());

    if failed && !measure {
        std::process::exit(1);
    }
}
