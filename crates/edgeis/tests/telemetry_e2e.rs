//! End-to-end telemetry tests: behavioral invisibility (goldens and
//! traces are byte-identical with telemetry on or off), causal span
//! propagation (edge spans attach to the originating mobile frame's
//! trace), automatic flight-recorder dumps on fault transitions, and the
//! disabled-path overhead budget.

use edgeis::edge::EdgeFaultConfig;
use edgeis::multi::{run_multi_device_with_stats, MultiDeviceConfig};
use edgeis::serving::ServingConfig;
use edgeis_netsim::FaultSchedule;
use edgeis_telemetry::{export, ArgValue, Telemetry, TelemetryConfig};

/// A small faulted fleet config; `telemetry` is the only degree of
/// freedom so on/off runs are otherwise identical.
fn faulted_config(telemetry: Telemetry) -> MultiDeviceConfig {
    MultiDeviceConfig {
        devices: 2,
        frames: 80,
        seed: 11,
        serving: Some(ServingConfig::default()),
        link_faults: Some(FaultSchedule::new(11).outage(400.0, 1600.0)),
        edge_faults: Some(EdgeFaultConfig {
            shed_queue_horizon_ms: 400.0,
            ..Default::default()
        }),
        telemetry,
        ..Default::default()
    }
}

fn enabled_telemetry(test: &str) -> Telemetry {
    let mut config = TelemetryConfig::enabled(&format!("e2e_{test}"));
    // Isolate per-test output so parallel tests never share a directory.
    config.output_dir = Some(std::path::PathBuf::from(format!(
        "target/telemetry/e2e_{test}"
    )));
    Telemetry::new(config)
}

#[test]
fn telemetry_does_not_perturb_frame_traces() {
    let telemetry = enabled_telemetry("identity");
    let (with_tel, stats_a) = run_multi_device_with_stats(
        edgeis_scene::datasets::indoor_simple,
        &faulted_config(telemetry),
    );
    let (without, stats_b) = run_multi_device_with_stats(
        edgeis_scene::datasets::indoor_simple,
        &faulted_config(Telemetry::disabled()),
    );
    assert_eq!(stats_a, stats_b, "serving stats diverged under telemetry");
    for (a, b) in with_tel.iter().zip(&without) {
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(
                ra.trace, rb.trace,
                "frame {} trace diverged with telemetry on",
                ra.frame
            );
            assert_eq!(ra.tx_bytes, rb.tx_bytes, "frame {} tx_bytes", ra.frame);
            assert_eq!(ra.mobile_ms, rb.mobile_ms, "frame {} mobile_ms", ra.frame);
            assert_eq!(
                ra.response_latency_ms, rb.response_latency_ms,
                "frame {} response latency",
                ra.frame
            );
        }
    }
}

#[test]
fn edge_spans_attach_to_their_mobile_frame_trace() {
    let telemetry = enabled_telemetry("causality");
    let _ = run_multi_device_with_stats(
        edgeis_scene::datasets::indoor_simple,
        &faulted_config(telemetry.clone()),
    );
    let spans = telemetry.spans_snapshot();

    // Every frame root's trace id is the deterministic hash of its
    // (device, frame) identity — recompute and cross-check.
    let mut roots = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.name == "frame") {
        let frame = s
            .args
            .iter()
            .find_map(|(k, v)| match (k, v) {
                (&"frame", ArgValue::U64(f)) => Some(*f),
                _ => None,
            })
            .expect("frame root carries its frame index");
        assert_eq!(
            s.trace_id,
            edgeis::hash::trace_id(s.device, frame),
            "frame root trace id is not the deterministic (device, frame) hash"
        );
        roots.insert(s.trace_id, s.span_id);
    }
    assert!(!roots.is_empty(), "no frame roots recorded");

    // Every edge-side span (decoded from the wire envelope on the edge)
    // must be a child of the span that opened its trace on the mobile.
    let edge_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.name.starts_with("edge."))
        .collect();
    assert!(!edge_spans.is_empty(), "no edge spans recorded");
    for s in &edge_spans {
        let root = roots
            .get(&s.trace_id)
            .unwrap_or_else(|| panic!("edge span has no frame root (trace {:016x})", s.trace_id));
        assert_eq!(
            s.parent_id,
            Some(*root),
            "edge span {} mis-parented",
            s.name
        );
    }

    // Net transfer spans ride the ambient frame context on the mobile.
    assert!(
        spans.iter().any(|s| s.name == "net.uplink"),
        "no uplink spans recorded"
    );
}

#[test]
fn faulted_run_dumps_flight_recorder_and_exports_parse() {
    let telemetry = enabled_telemetry("faulted");
    let (reports, _) = run_multi_device_with_stats(
        edgeis_scene::datasets::indoor_simple,
        &faulted_config(telemetry.clone()),
    );
    let timeouts: u64 = reports.iter().map(|r| r.resilience.timeouts).sum();
    assert!(timeouts > 0, "outage never produced a timeout");

    // The resilience machine left Healthy: the health transition must be
    // on record and the flight recorder must have dumped automatically.
    let events = telemetry.events_snapshot();
    assert!(
        events.iter().any(|e| e.name == "health.transition"),
        "no health transition recorded"
    );
    assert!(
        events.iter().any(|e| e.name == "deadline.missed"),
        "no deadline miss recorded"
    );
    let dir = telemetry
        .output_dir()
        .expect("enabled hub has an output dir");
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("output dir exists after a dump")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("flight_"))
        .collect();
    assert!(!dumps.is_empty(), "no automatic flight dump");
    // Each dump is itself parseable JSONL with a meta header line.
    for d in &dumps {
        let body = std::fs::read_to_string(d.path()).unwrap();
        let lines = export::validate_jsonl(&body).expect("flight dump must be valid JSONL");
        assert!(lines >= 2, "dump {:?} has no content beyond meta", d.path());
        assert!(
            body.lines().next().unwrap().contains("\"type\":\"meta\""),
            "dump must start with a meta line"
        );
    }

    // All three exporters produce parseable output.
    let files = telemetry.export_all().expect("enabled").expect("export IO");
    let jsonl = std::fs::read_to_string(&files.jsonl).unwrap();
    assert!(export::validate_jsonl(&jsonl).expect("spans.jsonl parses") > 0);
    let prom = std::fs::read_to_string(&files.prometheus).unwrap();
    export::validate_prometheus(&prom).expect("metrics.prom parses");
    assert!(
        prom.contains("edgeis_frames_total"),
        "frame counter missing from Prometheus snapshot"
    );
    let chrome = std::fs::read_to_string(&files.chrome_trace).unwrap();
    export::validate_json(&chrome).expect("trace.json parses");
    assert!(
        chrome.contains("\"traceEvents\""),
        "Chrome trace missing traceEvents"
    );
}

#[test]
fn link_health_gauge_tracks_the_fault_state_machine() {
    let telemetry = enabled_telemetry("linkhealth");
    let _ = run_multi_device_with_stats(
        edgeis_scene::datasets::indoor_simple,
        &faulted_config(telemetry.clone()),
    );

    // Reconstruct each device's health walk from its transition events.
    let events = telemetry.events_snapshot();
    let mut walks: std::collections::BTreeMap<u64, Vec<(f64, String, String)>> =
        std::collections::BTreeMap::new();
    for e in events.iter().filter(|e| e.name == "health.transition") {
        let arg = |key: &str| {
            e.args
                .iter()
                .find_map(|(k, v)| match v {
                    ArgValue::Str(s) if *k == key => Some(s.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("health.transition missing {key:?} arg"))
        };
        walks
            .entry(e.device)
            .or_default()
            .push((e.ts_ms, arg("from"), arg("to")));
    }
    assert!(!walks.is_empty(), "scripted outage produced no transitions");

    // Every observed edge must exist in the resilience state machine.
    const LEGAL: &[(&str, &str)] = &[
        ("healthy", "degraded"),
        ("healthy", "outage"),
        ("degraded", "outage"),
        ("recovering", "outage"),
        ("outage", "recovering"),
        ("recovering", "healthy"),
        ("degraded", "healthy"),
        ("outage", "healthy"),
    ];
    let level = |state: &str| match state {
        "healthy" => 0.0,
        "recovering" => 1.0,
        "degraded" => 2.0,
        "outage" => 3.0,
        other => panic!("unknown health state {other:?}"),
    };

    let mut full_arc = false;
    for (device, walk) in &walks {
        assert_eq!(
            walk[0].1, "healthy",
            "device {device} first transition must leave Healthy"
        );
        for pair in walk.windows(2) {
            assert!(
                pair[0].0 <= pair[1].0,
                "device {device} transitions out of time order"
            );
            assert_eq!(
                pair[0].2, pair[1].1,
                "device {device} health chain broke: left {:?} but next departs {:?}",
                pair[0].2, pair[1].1
            );
        }
        for (ts, from, to) in walk {
            assert!(
                LEGAL.contains(&(from.as_str(), to.as_str())),
                "device {device} took illegal edge {from:?}->{to:?} at {ts} ms"
            );
        }
        // The scripted outage should drive at least one device through the
        // whole arc: Degraded, then Outage, then probe-led Recovering, then
        // back to Healthy — in that order.
        let mut want = ["degraded", "outage", "recovering", "healthy"]
            .into_iter()
            .peekable();
        for (_, _, to) in walk {
            if want.peek() == Some(&to.as_str()) {
                want.next();
            }
        }
        if want.peek().is_none() {
            full_arc = true;
        }
    }
    assert!(
        full_arc,
        "no device walked Healthy->Degraded->Outage->Recovering->Healthy: {walks:?}"
    );

    // The exported gauge must agree with each device's final state.
    let files = telemetry.export_all().expect("enabled").expect("export IO");
    let prom = std::fs::read_to_string(&files.prometheus).unwrap();
    for (device, walk) in &walks {
        let needle = format!("edgeis_link_health{{device=\"{device}\"}} ");
        let line = prom
            .lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("no edgeis_link_health sample for device {device}"));
        let value: f64 = line[needle.len()..].trim().parse().expect("gauge value");
        let last = &walk.last().expect("non-empty walk").2;
        assert_eq!(
            value,
            level(last),
            "device {device} gauge {value} disagrees with final state {last:?}"
        );
    }
}

#[test]
fn disabled_telemetry_stays_within_overhead_budget() {
    // The telemetry-off acceptance bar is a <= 1% frame-time regression.
    // Measure the actual disabled-path call cost and compare ~16
    // calls/frame (the instrumentation density of `process_frame`)
    // against the measured mean frame compute of a real run.
    let telemetry = Telemetry::disabled();
    let calls: u64 = 2_000_000;
    let t0 = std::time::Instant::now();
    for i in 0..calls {
        telemetry.emit_span_current("bench", i, 0.0, 1.0, Vec::new());
        std::hint::black_box(&telemetry);
    }
    let per_call_ns = t0.elapsed().as_nanos() as f64 / calls as f64;

    let (reports, _) = run_multi_device_with_stats(
        edgeis_scene::datasets::indoor_simple,
        &MultiDeviceConfig {
            devices: 1,
            frames: 40,
            seed: 3,
            ..Default::default()
        },
    );
    let mean_frame_ms = reports[0].mean_stage_total_ms();
    assert!(mean_frame_ms > 0.0, "no frame compute measured");

    let per_frame_overhead_ms = per_call_ns * 16.0 / 1e6;
    let fraction = per_frame_overhead_ms / mean_frame_ms;
    println!(
        "disabled telemetry: {per_call_ns:.1} ns/call, {per_frame_overhead_ms:.6} ms/frame = \
         {:.4}% of the {mean_frame_ms:.3} ms mean frame",
        fraction * 100.0
    );
    assert!(
        fraction < 0.01,
        "disabled telemetry overhead {per_frame_overhead_ms:.6} ms/frame is {:.3}% of the \
         {mean_frame_ms:.3} ms mean frame (budget 1%; per call {per_call_ns:.1} ns)",
        fraction * 100.0
    );
}
