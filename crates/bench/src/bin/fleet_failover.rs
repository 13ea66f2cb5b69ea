//! Chaos-certified fleet failover bench.
//!
//! Two phases, both on the virtual clock:
//!
//! 1. **Chaos certification** — the seeded [`edgeis::chaos`] sweep (≥20
//!    seeds by default) composes edge crashes, brownouts and link outages
//!    against the failover fleet and asserts every fleet invariant: no
//!    dead-edge responses, bounded handoff churn, universal recovery, and
//!    bit-identical traces on unaffected devices vs the fault-free twin.
//! 2. **Recovery SLO** — per seed, one edge (the home of a rotating
//!    victim device) crashes for three seconds mid-run; the same schedule
//!    runs with failover enabled and with the fleet pinned (no-failover
//!    baseline). Device-level unhealthy→healthy episode durations (an
//!    edge crash behind a healthy link churns degraded/recovering, never
//!    sitting in trace-level outage) and the per-device IoU floor across
//!    the crash window are pooled into p50/p99 histograms for each arm.
//!    The crash window is sized past the worst-case detection lag — CFRS
//!    max keyframe interval (1 s) + response deadline (1.2 s) + one retry
//!    cycle — so the pinned victim provably degrades every seed.
//!
//! Writes `results/BENCH_fleet_failover.json`. The headline: recovery-
//! time p99 under failover must be *strictly* better than the pinned
//! baseline — with live handoff the crash is absorbed by placement, so
//! most devices never even enter the outage state.
//!
//! `--smoke` runs a reduced seed set (CI's chaos job) and still writes
//! the JSON.

use edgeis::chaos::{run_chaos, ChaosConfig};
use edgeis::fleet::{rendezvous_rank, FleetConfig};
use edgeis::multi::{run_multi_device_with_fleet, MultiDeviceConfig};
use edgeis_bench::json;
use edgeis_netsim::EdgeFaultScript;
use edgeis_telemetry::Histogram;

const DEVICES: usize = 6;
const EDGES: usize = 4;
const CRASH_START: f64 = 2000.0;
const CRASH_END: f64 = 5000.0;
const CRASH_RESTART: f64 = 150.0;

struct SloArm {
    recovery_ms: Vec<f64>,
    iou_floor: f64,
    handoffs: u64,
    redispatches: u64,
    redispatch_drops: u64,
}

/// One crash scenario, failover on or off. The crashed edge is the home
/// edge of device `seed % DEVICES`, so every seed guarantees tenants.
fn slo_arm(seed: u64, frames: usize, failover: bool) -> SloArm {
    let victim = seed % DEVICES as u64;
    let edge = rendezvous_rank(victim, EDGES)[0];
    let script = EdgeFaultScript::new().crash(edge, CRASH_START, CRASH_END, CRASH_RESTART);
    let config = MultiDeviceConfig {
        devices: DEVICES,
        frames,
        seed,
        fleet: Some(FleetConfig {
            edges: EDGES,
            script,
            failover_enabled: failover,
            ..FleetConfig::default()
        }),
        ..Default::default()
    };
    let (reports, _, stats) =
        run_multi_device_with_fleet(edgeis_scene::datasets::indoor_simple, &config);
    let recovery_ms: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.unhealthy_episode_times_ms())
        .collect();
    // The worst device's accuracy across the crash window plus the
    // detection/recovery aftermath.
    let iou_floor = reports
        .iter()
        .map(|r| r.mean_iou_in_window(CRASH_START, CRASH_END + 500.0))
        .fold(f64::INFINITY, f64::min);
    SloArm {
        recovery_ms,
        iou_floor,
        handoffs: stats.handoffs,
        redispatches: stats.redispatches,
        redispatch_drops: stats.redispatch_drops,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Frames must cover the crash window, its restart tail and a healthy
    // stretch afterwards so the pinned arm's episodes close in-trace;
    // smoke cuts the seed count, not the horizon.
    let (seeds, frames): (u64, usize) = if smoke { (5, 220) } else { (20, 240) };
    let chaos_config = ChaosConfig {
        devices: DEVICES,
        edges: EDGES,
        frames,
        fps: 30.0,
    };

    // Phase 1: chaos certification.
    println!(
        "Chaos sweep — {seeds} seeds, {DEVICES} devices x {EDGES} edges, {frames} frames{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    let mut chaos_cells = Vec::new();
    let mut total_handoffs = 0u64;
    let mut failed_seeds = Vec::new();
    for seed in 0..seeds {
        let outcome = run_chaos(seed, &chaos_config);
        println!(
            "seed {seed:>3}: {} handoffs, {} redispatches, {} unaffected device(s), {}",
            outcome.handoffs,
            outcome.redispatches,
            outcome.unaffected.len(),
            if outcome.ok() { "ok" } else { "VIOLATED" }
        );
        for v in &outcome.violations {
            eprintln!("  violation: {v}");
            if let Some(p) = &outcome.divergence_path {
                eprintln!("  divergence dump: {}", p.display());
            }
        }
        total_handoffs += outcome.handoffs;
        chaos_cells.push((
            seed,
            outcome.ok(),
            outcome.handoffs,
            outcome.redispatches,
            outcome.unaffected.len(),
            outcome.violations.len(),
        ));
        if !outcome.ok() {
            failed_seeds.push(seed);
        }
    }
    assert!(
        failed_seeds.is_empty(),
        "chaos sweep violated invariants on seeds {failed_seeds:?}"
    );
    assert!(total_handoffs > 0, "chaos sweep never exercised a handoff");

    // Phase 2: recovery SLO, failover vs pinned baseline.
    println!("\nRecovery SLO — edge crash {CRASH_START}..{CRASH_END} ms, failover vs pinned\n");
    let failover_hist = Histogram::new();
    let baseline_hist = Histogram::new();
    let mut failover_floor = f64::INFINITY;
    let mut baseline_floor = f64::INFINITY;
    let mut failover_handoffs = 0u64;
    let mut failover_redispatches = 0u64;
    let mut failover_drops = 0u64;
    for seed in 0..seeds {
        let fo = slo_arm(seed, frames, true);
        let base = slo_arm(seed, frames, false);
        failover_hist.merge_from(&Histogram::from_samples(&fo.recovery_ms));
        baseline_hist.merge_from(&Histogram::from_samples(&base.recovery_ms));
        failover_floor = failover_floor.min(fo.iou_floor);
        baseline_floor = baseline_floor.min(base.iou_floor);
        failover_handoffs += fo.handoffs;
        failover_redispatches += fo.redispatches;
        failover_drops += fo.redispatch_drops;
        println!(
            "seed {seed:>3}: failover {} episode(s) floor {:.3} | pinned {} episode(s) floor {:.3}",
            fo.recovery_ms.len(),
            fo.iou_floor,
            base.recovery_ms.len(),
            base.iou_floor
        );
        assert_eq!(base.handoffs, 0, "pinned baseline must never hand off");
    }
    let fo_p50 = failover_hist.quantile(0.5);
    let fo_p99 = failover_hist.quantile(0.99);
    let base_p50 = baseline_hist.quantile(0.5);
    let base_p99 = baseline_hist.quantile(0.99);
    println!(
        "\nrecovery p50/p99: failover {fo_p50:.0}/{fo_p99:.0} ms ({} episodes) vs pinned \
         {base_p50:.0}/{base_p99:.0} ms ({} episodes)",
        failover_hist.count(),
        baseline_hist.count()
    );
    println!(
        "IoU floor in crash window: failover {failover_floor:.3} vs pinned {baseline_floor:.3}"
    );
    // The acceptance headline: crashes must cost the pinned baseline real
    // outage episodes, and failover must beat its p99 outright.
    assert!(
        baseline_hist.count() > 0,
        "pinned baseline never degraded; the crash scenario is toothless"
    );
    assert!(
        fo_p99 < base_p99,
        "failover recovery p99 {fo_p99:.0} ms is not better than pinned {base_p99:.0} ms"
    );
    assert!(failover_handoffs > 0, "failover arm never handed off");

    let out = json::document(|o| {
        o.inline_object("workload", |w| {
            w.str("scenario", "indoor_simple");
            w.int("devices", DEVICES as i64);
            w.int("edges", EDGES as i64);
            w.int("frames", frames as i64);
            w.num("fps", 30.0, 1);
            w.int("seeds", seeds as i64);
        });
        o.array("chaos", |a| {
            for &(seed, ok, handoffs, redispatches, unaffected, violations) in &chaos_cells {
                a.inline_object(|row| {
                    row.int("seed", seed as i64);
                    row.bool("ok", ok);
                    row.int("handoffs", handoffs as i64);
                    row.int("redispatches", redispatches as i64);
                    row.int("unaffected_devices", unaffected as i64);
                    row.int("violations", violations as i64);
                });
            }
        });
        o.object("slo", |slo| {
            slo.raw("crash_window_ms", &format!("[{CRASH_START}, {CRASH_END}]"));
            slo.inline_object("failover", |f| {
                f.num("recovery_p50_ms", fo_p50, 3);
                f.num("recovery_p99_ms", fo_p99, 3);
                f.int("episodes", failover_hist.count() as i64);
                f.num("iou_floor", failover_floor, 4);
                f.int("handoffs", failover_handoffs as i64);
                f.int("redispatches", failover_redispatches as i64);
                f.int("redispatch_drops", failover_drops as i64);
            });
            slo.inline_object("no_failover", |f| {
                f.num("recovery_p50_ms", base_p50, 3);
                f.num("recovery_p99_ms", base_p99, 3);
                f.int("episodes", baseline_hist.count() as i64);
                f.num("iou_floor", baseline_floor, 4);
            });
            slo.num("p99_improvement_ms", base_p99 - fo_p99, 3);
        });
    });

    let path = "results/BENCH_fleet_failover.json";
    let _ = std::fs::create_dir_all("results");
    match std::fs::write(path, &out) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
