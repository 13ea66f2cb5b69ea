//! Chaos certification for the multi-edge fleet.
//!
//! A seeded schedule generator composes the failure modes the repo can
//! model — edge crashes (cold or warm), brownouts, and PR-1 link outages
//! — into a [`ChaosPlan`], runs the same fleet twice (faulted and
//! fault-free twin), and checks the fleet invariants the failover design
//! promises:
//!
//! 1. **No necromancy** — no request is ever answered by an edge the
//!    script says was dead at arrival
//!    ([`FleetStats::dead_edge_responses`](crate::fleet::FleetStats::dead_edge_responses)
//!    stays 0).
//! 2. **Bounded churn** — the handoff count never exceeds what the
//!    per-device cooldown permits (no flapping storms).
//! 3. **Recovery** — every device's resilience state machine is back to
//!    `healthy` by the end of the run (the generator always leaves a
//!    quiet tail for exactly this reason).
//! 4. **Blast-radius isolation** — devices whose links were clean and
//!    whose home edge neither faulted nor participated in any handoff
//!    must produce *bit-identical* per-frame traces to the fault-free
//!    twin run. A fault on edge 2 must not move a single bit on edge 1.
//!
//! Violations are human-readable strings; frame-level divergences are
//! additionally dumped as JSON under `target/chaos/` so CI failures ship
//! forensics. The `fleet_failover` bench drives this across ≥20 seeds;
//! `tests/chaos_invariants.rs` runs a smaller smoke sweep in tier-1.

use crate::fleet::{rendezvous_rank, FleetConfig, PlacementPolicy};
use crate::metrics::Report;
use crate::multi::{run_multi_device_with_fleet, MultiDeviceConfig};
use edgeis_netsim::{EdgeFaultScript, FaultSchedule};
use edgeis_rng::StdRng;
use edgeis_telemetry::export::json_quote;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Shape of one chaos experiment (the schedule itself comes from the
/// seed, not from here).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Mobile devices in the run.
    pub devices: usize,
    /// Edge replicas in the fleet.
    pub edges: usize,
    /// Frames per device.
    pub frames: usize,
    /// Camera frame rate.
    pub fps: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            devices: 5,
            edges: 4,
            frames: 240,
            fps: 30.0,
        }
    }
}

impl ChaosConfig {
    /// Virtual length of the run, ms.
    pub fn run_ms(&self) -> f64 {
        self.frames as f64 / self.fps * 1000.0
    }
}

/// One seeded fault schedule: edge faults plus per-device link faults.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Scripted per-edge crash / brownout windows.
    pub script: EdgeFaultScript,
    /// Devices whose links get scripted outages, with their schedules.
    pub link_faults: BTreeMap<usize, FaultSchedule>,
}

impl ChaosPlan {
    /// Derives a schedule from `seed`: one or two edge crashes (each
    /// targeting the *home* edge of a random device, so the fault always
    /// has tenants to hurt), an optional brownout, and up to two
    /// link-faulted devices. Every window closes at least ~2 s before the
    /// run ends so invariant 3 (everyone recovers) is meaningful rather
    /// than racy.
    pub fn generate(seed: u64, config: &ChaosConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0_5eed);
        let lo = 1500.0;
        let hi = (config.run_ms() - 3000.0).max(lo + 200.0);
        let mut script = EdgeFaultScript::new();
        let mut crashed = BTreeSet::new();
        for _ in 0..1 + rng.random_range(0..2usize) {
            let victim = rng.random_range(0..config.devices) as u64;
            let edge = rendezvous_rank(victim, config.edges)[0];
            if !crashed.insert(edge) {
                continue;
            }
            let start = rng.random_range(lo..hi);
            let end = start + rng.random_range(400.0..1000.0);
            let restart = rng.random_range(50.0..200.0);
            script = if rng.random_bool(0.25) {
                script.warm_crash(edge, start, end, restart)
            } else {
                script.crash(edge, start, end, restart)
            };
        }
        if rng.random_bool(0.5) {
            let edge = rng.random_range(0..config.edges);
            let start = rng.random_range(lo..hi);
            let end = start + rng.random_range(500.0..1200.0);
            let factor = rng.random_range(1.5..2.5);
            script = script.brownout(edge, start, end, factor);
        }
        let mut link_faults = BTreeMap::new();
        for _ in 0..rng.random_range(0..3usize) {
            let device = rng.random_range(0..config.devices);
            if link_faults.contains_key(&device) {
                continue;
            }
            let start = rng.random_range(lo..hi);
            let end = start + rng.random_range(500.0..1000.0);
            link_faults.insert(
                device,
                FaultSchedule::new(seed ^ ((device as u64) << 4)).outage(start, end),
            );
        }
        Self {
            script,
            link_faults,
        }
    }
}

/// What one chaos run found.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The seed the schedule came from.
    pub seed: u64,
    /// The schedule itself.
    pub plan: ChaosPlan,
    /// Invariant violations (empty = certified).
    pub violations: Vec<String>,
    /// Handoffs the faulted run performed.
    pub handoffs: u64,
    /// Crash-lost requests the fleet re-dispatched.
    pub redispatches: u64,
    /// Devices the blast-radius analysis classified as unaffected (the
    /// bit-exactness control group; can be empty on wide schedules).
    pub unaffected: Vec<usize>,
    /// Where the frame-level divergence dump went, if any was written.
    pub divergence_path: Option<PathBuf>,
    /// Per-device reports of the faulted run (for SLO extraction).
    pub reports: Vec<Report>,
}

impl ChaosOutcome {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fn chaos_dir() -> PathBuf {
    // crates/edgeis → workspace root, mirroring the conformance crate's
    // `target/conformance` convention.
    let manifest = option_env!("CARGO_MANIFEST_DIR").unwrap_or(".");
    std::path::Path::new(manifest)
        .parent()
        .and_then(std::path::Path::parent)
        .unwrap_or_else(|| std::path::Path::new("."))
        .join("target/chaos")
}

/// Last non-empty health string in a device report (dropped frames carry
/// an empty default trace).
fn final_health(report: &Report) -> Option<&str> {
    report
        .records
        .iter()
        .rev()
        .map(|r| r.trace.health.as_str())
        .find(|h| !h.is_empty())
}

/// Runs the seeded schedule against a fleet and its fault-free twin and
/// checks every fleet invariant. Pure virtual-clock work: the only side
/// effect is the divergence dump on an invariant-4 failure.
pub fn run_chaos(seed: u64, config: &ChaosConfig) -> ChaosOutcome {
    let plan = ChaosPlan::generate(seed, config);
    let fleet = FleetConfig {
        edges: config.edges,
        // Differential blast-radius analysis needs placement that is
        // independent of cross-edge timing; load-aware would couple
        // every device to every edge's queue depth.
        placement: PlacementPolicy::ConsistentHash,
        ..FleetConfig::default()
    };
    let faulted_config = MultiDeviceConfig {
        devices: config.devices,
        frames: config.frames,
        fps: config.fps,
        seed,
        fleet: Some(FleetConfig {
            script: plan.script.clone(),
            ..fleet.clone()
        }),
        per_device_link_faults: plan.link_faults.clone(),
        ..MultiDeviceConfig::default()
    };
    let twin_config = MultiDeviceConfig {
        fleet: Some(fleet),
        per_device_link_faults: BTreeMap::new(),
        ..faulted_config.clone()
    };

    let (reports, _, stats) =
        run_multi_device_with_fleet(edgeis_scene::datasets::indoor_simple, &faulted_config);
    let (twin_reports, _, twin_stats) =
        run_multi_device_with_fleet(edgeis_scene::datasets::indoor_simple, &twin_config);
    let stats = stats.expect("fleet backend always reports fleet stats");
    let twin_stats = twin_stats.expect("fleet backend always reports fleet stats");

    let mut violations = Vec::new();

    // Invariant 1: no request answered by a dead edge, in either run.
    if stats.dead_edge_responses > 0 {
        violations.push(format!(
            "seed {seed}: {} response(s) produced by a crashed edge",
            stats.dead_edge_responses
        ));
    }
    // Invariant 2: handoff churn bounded by the per-device cooldown
    // (re-dispatch evacuations ride on top of the voluntary budget).
    let cooldown_budget = (config.run_ms()
        / faulted_config.fleet.as_ref().unwrap().handoff_cooldown_ms)
        .ceil() as u64
        + 2;
    let bound = config.devices as u64 * cooldown_budget + stats.redispatches;
    if stats.handoffs > bound {
        violations.push(format!(
            "seed {seed}: {} handoffs exceed the churn bound {bound}",
            stats.handoffs
        ));
    }
    if twin_stats.handoffs > 0 {
        violations.push(format!(
            "seed {seed}: fault-free twin performed {} handoff(s)",
            twin_stats.handoffs
        ));
    }
    // Invariant 3: every device is healthy again by the end of the run.
    for (d, report) in reports.iter().enumerate() {
        match final_health(report) {
            Some("healthy") => {}
            Some(other) => violations.push(format!(
                "seed {seed}: device {d} finished the run {other}, not healthy"
            )),
            None => violations.push(format!("seed {seed}: device {d} has no health trace")),
        }
    }

    // Invariant 4: blast-radius isolation. An edge is dirty if the script
    // touches it, if any handoff left or entered it, or if one of its home
    // devices had a faulted link (its contention pattern changed). A clean
    // device on a clean edge must trace bit-identically to the twin.
    let mut dirty_edges: BTreeSet<usize> = plan.script.windows().iter().map(|w| w.edge).collect();
    for h in &stats.handoff_log {
        dirty_edges.insert(h.from);
        dirty_edges.insert(h.to);
    }
    for &d in plan.link_faults.keys() {
        dirty_edges.insert(rendezvous_rank(d as u64, config.edges)[0]);
    }
    let unaffected: Vec<usize> = (0..config.devices)
        .filter(|d| {
            !plan.link_faults.contains_key(d)
                && !dirty_edges.contains(&rendezvous_rank(*d as u64, config.edges)[0])
        })
        .collect();

    let mut mismatches = Vec::new();
    for &d in &unaffected {
        let (a, b) = (&reports[d], &twin_reports[d]);
        if a.records.len() != b.records.len() {
            violations.push(format!(
                "seed {seed}: unaffected device {d} record count {} != twin {}",
                a.records.len(),
                b.records.len()
            ));
            continue;
        }
        for (ra, rb) in a.records.iter().zip(&b.records) {
            let (da, db) = (ra.trace.digest(), rb.trace.digest());
            if da != db {
                mismatches.push(format!(
                    "{{\"device\":{d},\"frame\":{},\"faulted\":\"{da:016x}\",\
                     \"twin\":\"{db:016x}\",\"faulted_health\":{},\"twin_health\":{}}}",
                    ra.frame,
                    json_quote(&ra.trace.health),
                    json_quote(&rb.trace.health),
                ));
            }
        }
    }
    let divergence_path = if mismatches.is_empty() {
        None
    } else {
        violations.push(format!(
            "seed {seed}: {} frame(s) diverged on unaffected devices {unaffected:?}",
            mismatches.len()
        ));
        let dir = chaos_dir();
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("chaos_seed_{seed}.divergence.json"));
        let body = format!(
            "{{\"seed\":{seed},\"unaffected\":{unaffected:?},\"mismatches\":[{}]}}\n",
            mismatches.join(",")
        );
        let _ = std::fs::write(&path, body);
        Some(path)
    };

    ChaosOutcome {
        seed,
        plan,
        violations,
        handoffs: stats.handoffs,
        redispatches: stats.redispatches,
        unaffected,
        divergence_path,
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_generation_is_seed_deterministic_and_well_formed() {
        let config = ChaosConfig::default();
        for seed in 0..40u64 {
            let a = ChaosPlan::generate(seed, &config);
            let b = ChaosPlan::generate(seed, &config);
            assert_eq!(a.script, b.script, "seed {seed} script not deterministic");
            assert_eq!(
                a.link_faults.keys().collect::<Vec<_>>(),
                b.link_faults.keys().collect::<Vec<_>>()
            );
            assert!(
                !a.script.windows().is_empty(),
                "seed {seed} scripted nothing"
            );
            let quiet_tail = config.run_ms() - a.script.last_fault_ms();
            assert!(
                quiet_tail >= 1500.0,
                "seed {seed} leaves only {quiet_tail:.0} ms of quiet tail"
            );
            for w in a.script.windows() {
                assert!(w.edge < config.edges);
                assert!(w.start_ms >= 1500.0 && w.end_ms > w.start_ms);
            }
            for d in a.link_faults.keys() {
                assert!(*d < config.devices);
            }
        }
        // Seeds actually vary the schedule.
        let plans: BTreeSet<usize> = (0..10)
            .map(|s| ChaosPlan::generate(s, &config).script.windows().len())
            .collect();
        let starts: BTreeSet<u64> = (0..10)
            .map(|s| {
                ChaosPlan::generate(s, &config).script.windows()[0]
                    .start_ms
                    .to_bits()
            })
            .collect();
        assert!(
            plans.len() > 1 || starts.len() > 1,
            "seeds do not vary plans"
        );
    }
}
