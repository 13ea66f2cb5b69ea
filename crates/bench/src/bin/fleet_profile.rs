//! Fleet-scale edge-serving throughput bench.
//!
//! Sweeps fleet size × serving configuration on the shared edge and
//! writes `results/BENCH_edge_serving.json`:
//!
//! - `serial_fifo` — the paper's single-tenant FIFO edge,
//!   [`ServingConfig::serial_fifo`] (`MultiDeviceConfig::serving = None`),
//!   the incumbent every serving lever is measured against.
//! - `batch4` — one lane, cross-request batching up to 4.
//! - `shard4` — four lanes with device affinity, no batching.
//! - `full` — the default [`ServingConfig`]: 4 lanes × batch 4 +
//!   guidance cache + deadline admission.
//!
//! Per cell: p50/p99 response round-trip (virtual clock, request send →
//! response arrival), delivered-response throughput, shed rate, batch
//! occupancy and cache hit rate. The headline is the p99 improvement of
//! `full` over `serial_fifo` at 8 devices — the paper's field-deployment
//! fleet size.
//!
//! `--smoke` runs a 2-device, 30-frame sanity sweep and writes nothing
//! (the CI hook).

use edgeis::fleet::{FleetConfig, PlacementPolicy};
use edgeis::multi::{run_multi_device_with_fleet, run_multi_device_with_stats, MultiDeviceConfig};
use edgeis::serving::ServingConfig;
use edgeis_bench::json;
use edgeis_segnet::ZooConfig;
use edgeis_telemetry::Histogram;

const SEED: u64 = 7;

struct Cell {
    config: &'static str,
    devices: usize,
    /// Response round-trips: per-device histograms merged into one — the
    /// same merge-able type the telemetry registry aggregates.
    latency_hist: Histogram,
    queue_wait_hist: Histogram,
    responses: usize,
    sim_seconds: f64,
    mean_iou: f64,
    shed_rate: f64,
    batch_occupancy: f64,
    cache_hit_rate: f64,
}

impl Cell {
    fn p50(&self) -> f64 {
        self.latency_hist.quantile(0.5)
    }
    fn p99(&self) -> f64 {
        self.latency_hist.quantile(0.99)
    }
    fn throughput_rps(&self) -> f64 {
        if self.sim_seconds <= 0.0 {
            0.0
        } else {
            self.responses as f64 / self.sim_seconds
        }
    }
    fn mean_queue_wait(&self) -> f64 {
        self.queue_wait_hist.mean()
    }
}

fn run_cell(
    config_name: &'static str,
    serving: Option<ServingConfig>,
    devices: usize,
    frames: usize,
) -> Cell {
    let config = MultiDeviceConfig {
        devices,
        frames,
        seed: SEED,
        serving,
        ..Default::default()
    };
    let (reports, stats) =
        run_multi_device_with_stats(edgeis_scene::datasets::indoor_simple, &config);
    // One histogram per device, merged — order-independent, so a sharded
    // collection pipeline would aggregate to the same percentiles.
    let latency_hist = Histogram::new();
    let queue_wait_hist = Histogram::new();
    for r in &reports {
        latency_hist.merge_from(&Histogram::from_samples(&r.response_latency_samples()));
        queue_wait_hist.merge_from(&Histogram::from_samples(&r.edge_queue_wait_samples()));
    }
    let mean_iou = reports.iter().map(|r| r.mean_iou()).sum::<f64>() / reports.len().max(1) as f64;
    let stats = stats.expect("every backend reports serving stats");
    let attempts = stats.served + stats.sheds();
    let shed_rate = if attempts == 0 {
        0.0
    } else {
        stats.sheds() as f64 / attempts as f64
    };
    Cell {
        config: config_name,
        devices,
        responses: latency_hist.count() as usize,
        latency_hist,
        queue_wait_hist,
        sim_seconds: frames as f64 / config.fps,
        mean_iou,
        shed_rate,
        batch_occupancy: stats.batch_occupancy(),
        cache_hit_rate: stats.cache_hit_rate(),
    }
}

/// One multi-edge fleet cell: N serving replicas behind a placement
/// policy, fault-free (the faulted story lives in `fleet_failover`).
struct FleetCell {
    edges: usize,
    devices: usize,
    policy: &'static str,
    latency_hist: Histogram,
    responses: usize,
    mean_iou: f64,
    handoffs: u64,
    /// Busiest edge's served count over the per-edge mean (1.0 = perfectly
    /// balanced placement).
    imbalance: f64,
}

impl FleetCell {
    fn p50(&self) -> f64 {
        self.latency_hist.quantile(0.5)
    }
    fn p99(&self) -> f64 {
        self.latency_hist.quantile(0.99)
    }
}

fn run_fleet_cell(
    edges: usize,
    devices: usize,
    policy: PlacementPolicy,
    frames: usize,
) -> FleetCell {
    let config = MultiDeviceConfig {
        devices,
        frames,
        seed: SEED,
        fleet: Some(FleetConfig {
            edges,
            placement: policy,
            ..FleetConfig::default()
        }),
        ..Default::default()
    };
    let (reports, _, stats) =
        run_multi_device_with_fleet(edgeis_scene::datasets::indoor_simple, &config);
    let stats = stats.expect("fleet backend always reports fleet stats");
    let latency_hist = Histogram::new();
    for r in &reports {
        latency_hist.merge_from(&Histogram::from_samples(&r.response_latency_samples()));
    }
    let mean_iou = reports.iter().map(|r| r.mean_iou()).sum::<f64>() / reports.len().max(1) as f64;
    let total_served: u64 = stats.per_edge_served.iter().sum();
    let imbalance = if total_served == 0 {
        0.0
    } else {
        let mean = total_served as f64 / stats.per_edge_served.len().max(1) as f64;
        *stats.per_edge_served.iter().max().unwrap_or(&0) as f64 / mean
    };
    FleetCell {
        edges,
        devices,
        policy: policy.as_str(),
        responses: latency_hist.count() as usize,
        latency_hist,
        mean_iou,
        handoffs: stats.handoffs,
        imbalance,
    }
}

/// One model-zoo sweep cell: the default serving runtime either shedding
/// every deadline miss (`single_model_shed`) or routing misses down the
/// anytime ladder (`route`).
struct ZooCell {
    config: &'static str,
    devices: usize,
    responses: usize,
    latency_hist: Histogram,
    /// served / (served + sheds) at the edge — the deadline hit rate.
    hit_rate: f64,
    shed_rate: f64,
    mean_iou: f64,
    /// Served requests routed below tier 0, over served.
    degraded_share: f64,
    /// Per-tier served counts (largest tier first; empty without a zoo).
    tier_served: Vec<u64>,
}

impl ZooCell {
    fn p50(&self) -> f64 {
        self.latency_hist.quantile(0.5)
    }
    fn p99(&self) -> f64 {
        self.latency_hist.quantile(0.99)
    }
}

fn run_zoo_cell(
    config_name: &'static str,
    zoo: Option<ZooConfig>,
    devices: usize,
    frames: usize,
) -> ZooCell {
    let config = MultiDeviceConfig {
        devices,
        frames,
        seed: SEED,
        serving: Some(ServingConfig {
            zoo,
            ..ServingConfig::default()
        }),
        ..Default::default()
    };
    let (reports, stats) =
        run_multi_device_with_stats(edgeis_scene::datasets::indoor_simple, &config);
    let stats = stats.expect("serving backend always reports serving stats");
    let latency_hist = Histogram::new();
    for r in &reports {
        latency_hist.merge_from(&Histogram::from_samples(&r.response_latency_samples()));
    }
    let mean_iou = reports.iter().map(|r| r.mean_iou()).sum::<f64>() / reports.len().max(1) as f64;
    let attempts = stats.served + stats.sheds();
    let hit_rate = if attempts == 0 {
        1.0
    } else {
        stats.served as f64 / attempts as f64
    };
    let degraded_share = if stats.served == 0 {
        0.0
    } else {
        stats.degraded_served as f64 / stats.served as f64
    };
    ZooCell {
        config: config_name,
        devices,
        responses: latency_hist.count() as usize,
        latency_hist,
        hit_rate,
        shed_rate: 1.0 - hit_rate,
        mean_iou,
        degraded_share,
        tier_served: stats.tier_served.clone(),
    }
}

fn zoo_to_json(cells: &[ZooCell], devices: &[usize], frames: usize) -> String {
    let tier_names: Vec<&'static str> = ZooConfig::standard()
        .tiers
        .iter()
        .map(|k| k.as_str())
        .collect();
    let at8 = |name: &str| cells.iter().find(|c| c.config == name && c.devices == 8);
    let shed8 = at8("single_model_shed");
    let route8 = at8("route");
    json::document(|o| {
        o.inline_object("workload", |w| {
            w.str("scenario", "indoor_simple");
            w.int("seed", SEED as i64);
            w.int("frames", frames as i64);
            w.num("fps", 30.0, 1);
        });
        o.raw(
            "devices_swept",
            &format!(
                "[{}]",
                devices
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        o.raw(
            "tiers",
            &format!(
                "[{}]",
                tier_names
                    .iter()
                    .map(|n| format!("\"{n}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        o.array("cells", |a| {
            for c in cells {
                a.inline_object(|row| {
                    row.str("config", c.config);
                    row.int("devices", c.devices as i64);
                    row.int("responses", c.responses as i64);
                    row.num("deadline_hit_rate", c.hit_rate, 4);
                    row.num("shed_rate", c.shed_rate, 4);
                    row.num("mean_iou", c.mean_iou, 4);
                    row.num("degraded_share", c.degraded_share, 4);
                    row.num("p50_ms", c.p50(), 3);
                    row.num("p99_ms", c.p99(), 3);
                    row.raw(
                        "tier_served",
                        &format!(
                            "[{}]",
                            c.tier_served
                                .iter()
                                .map(|n| n.to_string())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    );
                });
            }
        });
        if let (Some(s), Some(r)) = (shed8, route8) {
            o.num("shed_hit_rate_at_8_devices", s.hit_rate, 4);
            o.num("route_hit_rate_at_8_devices", r.hit_rate, 4);
            o.num("shed_mean_iou_at_8_devices", s.mean_iou, 4);
            o.num("route_mean_iou_at_8_devices", r.mean_iou, 4);
            o.bool(
                "route_beats_shed_at_8_devices",
                r.hit_rate >= s.hit_rate && r.mean_iou > s.mean_iou,
            );
        }
    })
}

fn configs() -> Vec<(&'static str, Option<ServingConfig>)> {
    let batch4 = ServingConfig {
        lanes: 1,
        max_batch: 4,
        ..ServingConfig::default()
    };
    let shard4 = ServingConfig {
        lanes: 4,
        max_batch: 1,
        batch_window_ms: 0.0,
        ..ServingConfig::default()
    };
    vec![
        ("serial_fifo", None),
        ("batch4", Some(batch4)),
        ("shard4", Some(shard4)),
        ("full", Some(ServingConfig::default())),
    ]
}

fn to_json(
    cells: &[Cell],
    fleet_cells: &[FleetCell],
    devices: &[usize],
    frames: usize,
    headline: (f64, f64, f64),
) -> String {
    json::document(|o| {
        o.inline_object("workload", |w| {
            w.str("scenario", "indoor_simple");
            w.int("seed", SEED as i64);
            w.int("frames", frames as i64);
            w.num("fps", 30.0, 1);
            w.int("width", 320);
            w.int("height", 240);
        });
        o.raw(
            "devices_swept",
            &format!(
                "[{}]",
                devices
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        o.array("cells", |a| {
            for c in cells {
                a.inline_object(|row| {
                    row.str("config", c.config);
                    row.int("devices", c.devices as i64);
                    row.int("responses", c.responses as i64);
                    row.num("p50_ms", c.p50(), 3);
                    row.num("p99_ms", c.p99(), 3);
                    row.num("throughput_rps", c.throughput_rps(), 3);
                    row.num("mean_queue_wait_ms", c.mean_queue_wait(), 3);
                    row.num("shed_rate", c.shed_rate, 4);
                    row.num("batch_occupancy", c.batch_occupancy, 3);
                    row.num("cache_hit_rate", c.cache_hit_rate, 4);
                    row.num("mean_iou", c.mean_iou, 4);
                });
            }
        });
        o.array("fleet_cells", |a| {
            for c in fleet_cells {
                a.inline_object(|row| {
                    row.int("edges", c.edges as i64);
                    row.int("devices", c.devices as i64);
                    row.str("placement", c.policy);
                    row.int("responses", c.responses as i64);
                    row.num("p50_ms", c.p50(), 3);
                    row.num("p99_ms", c.p99(), 3);
                    row.int("handoffs", c.handoffs as i64);
                    row.num("imbalance", c.imbalance, 3);
                    row.num("mean_iou", c.mean_iou, 4);
                });
            }
        });
        let (serial_p99, full_p99, speedup) = headline;
        o.num("serial_p99_ms_at_8_devices", serial_p99, 3);
        o.num("full_p99_ms_at_8_devices", full_p99, 3);
        o.num("p99_speedup_at_8_devices", speedup, 3);
    })
}

/// One faulted fleet run with telemetry on (the CI telemetry job):
/// asserts the three exporters parse, edge spans are children of the
/// originating mobile frame traces, the link outage both fired a
/// `slo.burn` alert (with its `edgeis_slo_burn_rate` gauge on the
/// Prometheus snapshot) and produced an automatic flight-recorder dump,
/// and exports outcome-labelled `frames.jsonl` for `edgeis_ops --ingest`.
fn run_telemetry_smoke() {
    use edgeis::edge::EdgeFaultConfig;
    use edgeis_netsim::FaultSchedule;
    use edgeis_telemetry::{export, Telemetry, TelemetryConfig};

    let telemetry = Telemetry::new(TelemetryConfig::enabled("fleet_smoke"));
    let config = MultiDeviceConfig {
        devices: 2,
        frames: 90,
        seed: SEED,
        serving: Some(ServingConfig::default()),
        // A 1.2 s mid-run outage: long enough past the 1.2 s response
        // deadline for timeouts (deadline-miss dumps) and the
        // Healthy -> Degraded -> Outage transitions to fire in-run.
        link_faults: Some(FaultSchedule::new(SEED).outage(400.0, 1600.0)),
        edge_faults: Some(EdgeFaultConfig {
            shed_queue_horizon_ms: 400.0,
            ..Default::default()
        }),
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let (reports, _) = run_multi_device_with_stats(edgeis_scene::datasets::indoor_simple, &config);
    let timeouts: u64 = reports.iter().map(|r| r.resilience.timeouts).sum();
    assert!(timeouts > 0, "telemetry smoke fault plan never fired");

    // Causality: every edge-side span must be a child inside the trace
    // its originating mobile frame opened (trace ids are deterministic
    // functions of device and frame index, propagated over the wire).
    let spans = telemetry.spans_snapshot();
    let roots: std::collections::HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == "frame")
        .map(|s| (s.trace_id, s.span_id))
        .collect();
    let edge_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.name.starts_with("edge."))
        .collect();
    assert!(!edge_spans.is_empty(), "no edge-side spans recorded");
    for s in &edge_spans {
        let root = roots.get(&s.trace_id).unwrap_or_else(|| {
            panic!(
                "edge span {} has no frame root for trace {:016x}",
                s.name, s.trace_id
            )
        });
        assert_eq!(
            s.parent_id,
            Some(*root),
            "edge span {} not parented under its frame root",
            s.name
        );
    }

    // Exporters: all three formats must parse.
    let files = telemetry
        .export_all()
        .expect("telemetry enabled")
        .expect("export IO");
    let jsonl = std::fs::read_to_string(&files.jsonl).expect("read spans.jsonl");
    let lines = export::validate_jsonl(&jsonl).expect("spans.jsonl must parse");
    assert!(lines > 0, "empty spans.jsonl");
    let prom = std::fs::read_to_string(&files.prometheus).expect("read metrics.prom");
    export::validate_prometheus(&prom).expect("metrics.prom must parse");
    let chrome = std::fs::read_to_string(&files.chrome_trace).expect("read trace.json");
    export::validate_json(&chrome).expect("trace.json must parse");

    // The outage must have burned error budget fast enough to alert:
    // at least one `slo.burn` event, and the gauge it mirrors must be on
    // the Prometheus snapshot.
    let burn_alerts = telemetry
        .events_snapshot()
        .iter()
        .filter(|e| e.name == "slo.burn")
        .count();
    assert!(burn_alerts > 0, "outage produced no slo.burn alert");
    assert!(
        !edgeis_bench::ops::parse_burn_gauges(&prom).is_empty(),
        "no edgeis_slo_burn_rate sample in metrics.prom"
    );

    // Outcome-labelled frames, exported next to the spans/metrics so
    // `edgeis_ops --ingest <dir>` can diagnose this run offline. The run
    // is held to the static-scene bar, which the injected outage is
    // expected to violate — exactly the shape the diagnosis explains.
    let dir = telemetry.output_dir().expect("enabled hub has a dir");
    let frames_doc = edgeis_bench::ops::frames_jsonl(
        "fleet_smoke",
        &edgeis::slo::ScenarioSlo::static_scene(),
        &edgeis_bench::ops::samples_from_reports(&reports),
    );
    std::fs::write(dir.join("frames.jsonl"), frames_doc).expect("write frames.jsonl");

    // The outage left Healthy: the flight recorder must have dumped.
    let dumps = std::fs::read_dir(&dir)
        .expect("telemetry dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("flight_"))
        .count();
    assert!(dumps > 0, "no flight dump despite an outage");
    println!(
        "telemetry smoke OK ({lines} jsonl lines, {} edge spans, {dumps} flight dumps, \
         {burn_alerts} burn alerts) in {}",
        edge_spans.len(),
        dir.display()
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (device_counts, frames): (Vec<usize>, usize) = if smoke {
        (vec![2], 30)
    } else {
        (vec![1, 2, 4, 8, 16], 120)
    };

    println!(
        "Edge-serving fleet profile — indoor_simple seed {SEED}, {frames} frames/device{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<12} {:>7} {:>9} {:>9} {:>9} {:>8} {:>7} {:>6} {:>6}",
        "config", "devices", "p50", "p99", "thru", "q-wait", "shed", "batch", "cache"
    );

    let mut cells = Vec::new();
    for &devices in &device_counts {
        for (name, serving) in configs() {
            let cell = run_cell(name, serving, devices, frames);
            println!(
                "{:<12} {:>7} {:>7.1}ms {:>7.1}ms {:>7.2}/s {:>6.1}ms {:>6.1}% {:>6.2} {:>5.1}%",
                cell.config,
                cell.devices,
                cell.p50(),
                cell.p99(),
                cell.throughput_rps(),
                cell.mean_queue_wait(),
                cell.shed_rate * 100.0,
                cell.batch_occupancy,
                cell.cache_hit_rate * 100.0
            );
            cells.push(cell);
        }
    }

    // Model-zoo anytime routing tier: the default serving runtime with
    // and without the zoo, same workload, shed-vs-route head to head.
    let zoo_devices: Vec<usize> = if smoke {
        vec![8]
    } else {
        vec![2, 4, 8, 16, 32, 64]
    };
    println!(
        "\n{:<18} {:>7} {:>9} {:>7} {:>7} {:>9} {:>9}  tiers",
        "zoo config", "devices", "hit-rate", "iou", "degr", "p50", "p99"
    );
    let mut zoo_cells = Vec::new();
    for &devices in &zoo_devices {
        for (name, zoo) in [
            ("single_model_shed", None),
            ("route", Some(ZooConfig::standard())),
        ] {
            let cell = run_zoo_cell(name, zoo, devices, frames);
            println!(
                "{:<18} {:>7} {:>8.1}% {:>7.3} {:>6.1}% {:>7.1}ms {:>7.1}ms  {:?}",
                cell.config,
                cell.devices,
                cell.hit_rate * 100.0,
                cell.mean_iou,
                cell.degraded_share * 100.0,
                cell.p50(),
                cell.p99(),
                cell.tier_served
            );
            zoo_cells.push(cell);
        }
    }

    // Multi-edge fleet tier: edges x devices (up to 64) x placement
    // policy, fault-free steady state.
    let fleet_grid: Vec<(usize, usize)> = if smoke {
        vec![(2, 2)]
    } else {
        vec![(2, 8), (2, 64), (4, 8), (4, 64)]
    };
    let fleet_frames = if smoke { 30 } else { 90 };
    println!(
        "\n{:<16} {:>6} {:>7} {:>9} {:>9} {:>9} {:>10}",
        "placement", "edges", "devices", "p50", "p99", "handoffs", "imbalance"
    );
    let mut fleet_cells = Vec::new();
    for &(edges, devices) in &fleet_grid {
        for policy in [PlacementPolicy::ConsistentHash, PlacementPolicy::LoadAware] {
            let cell = run_fleet_cell(edges, devices, policy, fleet_frames);
            println!(
                "{:<16} {:>6} {:>7} {:>7.1}ms {:>7.1}ms {:>9} {:>10.2}",
                cell.policy,
                cell.edges,
                cell.devices,
                cell.p50(),
                cell.p99(),
                cell.handoffs,
                cell.imbalance
            );
            fleet_cells.push(cell);
        }
    }

    // Headline: p99 at the paper's field fleet size (8 devices on one
    // edge), serving runtime vs the serial FIFO incumbent.
    let headline_devices = if smoke { device_counts[0] } else { 8 };
    let serial_p99 = cells
        .iter()
        .find(|c| c.config == "serial_fifo" && c.devices == headline_devices)
        .map(Cell::p99)
        .unwrap_or(0.0);
    let full_p99 = cells
        .iter()
        .find(|c| c.config == "full" && c.devices == headline_devices)
        .map(Cell::p99)
        .unwrap_or(0.0);
    let speedup = if full_p99 > 0.0 {
        serial_p99 / full_p99
    } else {
        0.0
    };
    println!(
        "\np99 @ {headline_devices} devices: serial {serial_p99:.1} ms -> full {full_p99:.1} ms \
         ({speedup:.2}x)"
    );

    if smoke {
        // CI sanity: every cell must have delivered something.
        for c in &cells {
            assert!(
                c.responses > 0,
                "smoke cell {}@{} delivered no responses",
                c.config,
                c.devices
            );
        }
        for c in &fleet_cells {
            assert!(
                c.responses > 0,
                "smoke fleet cell {}x{} ({}) delivered no responses",
                c.edges,
                c.devices,
                c.policy
            );
        }
        // Model-zoo smoke: both head-to-head cells deliver, and routing
        // never hits the deadline less often than shed-at-admission.
        let shed = zoo_cells
            .iter()
            .find(|c| c.config == "single_model_shed")
            .expect("smoke zoo sweep ran");
        let route = zoo_cells
            .iter()
            .find(|c| c.config == "route")
            .expect("smoke zoo sweep ran");
        assert!(shed.responses > 0 && route.responses > 0);
        assert!(
            route.hit_rate >= shed.hit_rate,
            "routing hit rate {:.3} below shedding's {:.3}",
            route.hit_rate,
            shed.hit_rate
        );
        run_telemetry_smoke();
        println!(
            "smoke OK ({} cells)",
            cells.len() + fleet_cells.len() + zoo_cells.len()
        );
        return;
    }

    let json = to_json(
        &cells,
        &fleet_cells,
        &device_counts,
        frames,
        (serial_p99, full_p99, speedup),
    );
    let path = "results/BENCH_edge_serving.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }

    // Model-zoo headline: at the paper's 8-device fleet, routing must hit
    // (nearly) every deadline while serving strictly better masks than
    // shed-at-admission.
    let at8 = |name: &str| {
        zoo_cells
            .iter()
            .find(|c| c.config == name && c.devices == 8)
            .expect("8-device zoo cells always swept")
    };
    let (shed8, route8) = (at8("single_model_shed"), at8("route"));
    println!(
        "\nmodel zoo @ 8 devices: hit-rate {:.1}% -> {:.1}%, mean IoU {:.4} -> {:.4}",
        shed8.hit_rate * 100.0,
        route8.hit_rate * 100.0,
        shed8.mean_iou,
        route8.mean_iou
    );
    let zoo_json = zoo_to_json(&zoo_cells, &zoo_devices, frames);
    let zoo_path = "results/BENCH_model_zoo.json";
    match std::fs::write(zoo_path, &zoo_json) {
        Ok(()) => println!("wrote {zoo_path}"),
        Err(e) => println!("could not write {zoo_path}: {e}"),
    }
}
