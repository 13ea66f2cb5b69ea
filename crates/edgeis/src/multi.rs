//! Multi-device experiments: several mobile devices sharing one edge
//! server, as in the paper's field deployment (8 devices on a single
//! Jetson AGX Xavier, §VI-G).
//!
//! All devices run on the same virtual clock; their offloaded frames
//! contend for the shared GPU FIFO, so per-device result latency grows
//! with fleet size — the effect this module measures.

use crate::edge::{EdgeFaultConfig, SharedEdge};
use crate::fleet::{EdgeFleet, FleetConfig, FleetStats};
use crate::metrics::{FrameOutcome, Report};
use crate::pipeline::{class_map, DeviceFrames, PipelineConfig};
use crate::serving::{ServingConfig, ServingRuntime, ServingStats};
use crate::system::{EdgeIsConfig, EdgeIsSystem, SegmentationSystem};
use edgeis_geometry::Camera;
use edgeis_netsim::{FaultSchedule, LinkKind};
use edgeis_scene::World;
use edgeis_segnet::{EdgeModel, ModelKind};

/// Configuration of a multi-device run.
#[derive(Debug, Clone)]
pub struct MultiDeviceConfig {
    /// Shared camera model.
    pub camera: Camera,
    /// Number of devices on the shared edge.
    pub devices: usize,
    /// Frames per device.
    pub frames: usize,
    /// Camera frame rate.
    pub fps: f64,
    /// Link kind each device uses (independent links, shared GPU).
    pub link: LinkKind,
    /// Warmup frames excluded from scoring.
    pub warmup_frames: usize,
    /// Minimum scored instance area.
    pub min_scored_area: usize,
    /// Base seed.
    pub seed: u64,
    /// Scripted link faults, installed on every device's link (each
    /// device re-seeds the schedule so probabilistic faults stay
    /// independent across devices).
    pub link_faults: Option<FaultSchedule>,
    /// Edge-side fault model, installed on the shared server.
    pub edge_faults: Option<EdgeFaultConfig>,
    /// Serving-runtime configuration for the shared edge. `None` is the
    /// paper's serial FIFO edge ([`ServingConfig::serial_fifo`]); `Some`
    /// picks another [`ServingRuntime`] configuration (batched, sharded,
    /// cached, admission-controlled).
    pub serving: Option<ServingConfig>,
    /// Multi-edge fleet configuration. `Some` replaces the single shared
    /// edge with an [`EdgeFleet`] of serving replicas (its own
    /// [`ServingConfig`] lives inside [`FleetConfig`]; the `serving` and
    /// `edge_faults` fields above are ignored — per-edge faults come from
    /// the fleet's [`edgeis_netsim::EdgeFaultScript`]).
    pub fleet: Option<FleetConfig>,
    /// Per-device link-fault overrides, keyed by device index. A listed
    /// device uses its own schedule instead of the shared `link_faults`;
    /// unlisted devices keep the shared one. This is what lets a chaos
    /// schedule fault *some* devices' links while leaving the rest as a
    /// bit-exactness control group.
    pub per_device_link_faults: std::collections::BTreeMap<usize, FaultSchedule>,
    /// Telemetry hub installed on every device and the shared edge.
    /// Disabled by default; the caller owns the hub and exports it after
    /// the run (`Telemetry::export_all`).
    pub telemetry: edgeis_telemetry::Telemetry,
}

impl Default for MultiDeviceConfig {
    fn default() -> Self {
        Self {
            camera: Camera::with_hfov(1.2, 320, 240),
            devices: 4,
            frames: 120,
            fps: 30.0,
            link: LinkKind::Wifi5,
            warmup_frames: 30,
            min_scored_area: 80,
            seed: 1,
            link_faults: None,
            edge_faults: None,
            serving: None,
            fleet: None,
            per_device_link_faults: std::collections::BTreeMap::new(),
            telemetry: edgeis_telemetry::Telemetry::disabled(),
        }
    }
}

/// Runs `devices` edgeIS instances over per-device worlds produced by
/// `make_world`, all contending for one shared edge server. Returns one
/// report per device.
pub fn run_multi_device<F>(make_world: F, config: &MultiDeviceConfig) -> Vec<Report>
where
    F: Fn(u64) -> World,
{
    run_multi_device_with_stats(make_world, config).0
}

/// [`run_multi_device`], also returning the shared edge's serving
/// accounting (always `Some`: every backend is a serving runtime).
pub fn run_multi_device_with_stats<F>(
    make_world: F,
    config: &MultiDeviceConfig,
) -> (Vec<Report>, Option<ServingStats>)
where
    F: Fn(u64) -> World,
{
    let (reports, serving, _) = run_multi_device_with_fleet(make_world, config);
    (reports, Some(serving))
}

/// [`run_multi_device_with_stats`], also returning the fleet-tier
/// accounting (`None` unless the run used a [`FleetConfig`] backend).
pub fn run_multi_device_with_fleet<F>(
    make_world: F,
    config: &MultiDeviceConfig,
) -> (Vec<Report>, ServingStats, Option<FleetStats>)
where
    F: Fn(u64) -> World,
{
    let shared = if let Some(fleet) = &config.fleet {
        // Fleet edges are replicas: same model seed, same base seed, so a
        // handoff changes where a request runs but never its payload.
        SharedEdge::fleet(EdgeFleet::new(
            ModelKind::MaskRcnn,
            config.camera.width,
            config.camera.height,
            config.seed ^ 0x777,
            config.seed ^ 0x777,
            fleet.clone(),
        ))
    } else {
        let model = EdgeModel::new(
            ModelKind::MaskRcnn,
            config.camera.width,
            config.camera.height,
            config.seed ^ 0x777,
        );
        let serving = config
            .serving
            .clone()
            .unwrap_or_else(ServingConfig::serial_fifo);
        SharedEdge::serving(ServingRuntime::new(model, config.seed ^ 0x777, serving))
    };
    if config.fleet.is_none() {
        if let Some(edge_faults) = &config.edge_faults {
            shared.set_faults(edge_faults.clone());
        }
    }

    let worlds: Vec<World> = (0..config.devices)
        .map(|d| make_world(config.seed + d as u64))
        .collect();
    let classes: Vec<_> = worlds.iter().map(class_map).collect();
    let pipeline = PipelineConfig {
        fps: config.fps,
        frames: config.frames,
        min_scored_area: config.min_scored_area,
        warmup_frames: config.warmup_frames,
    };
    let mut devices: Vec<(DeviceFrames, EdgeIsSystem)> = worlds
        .iter()
        .zip(&classes)
        .enumerate()
        .map(|(d, (world, classes))| {
            let sys_cfg = EdgeIsConfig::full(config.camera, config.seed + d as u64);
            let mut system = EdgeIsSystem::with_shared_edge(sys_cfg, config.link, shared.clone());
            system.set_device_id(d as u64);
            if config.telemetry.is_enabled() {
                system.set_telemetry(config.telemetry.clone());
            }
            let faults = config
                .per_device_link_faults
                .get(&d)
                .or(config.link_faults.as_ref());
            if let Some(faults) = faults {
                system.install_link_faults(faults.reseeded(config.seed ^ ((d as u64) << 8)));
            }
            let frames = DeviceFrames::new(world, config.camera, classes, pipeline, d as u64);
            (frames, system)
        })
        .collect();

    // Lock-step on the shared clock, devices in index order within a
    // frame: that order is the order their requests reach the edge.
    for i in 0..config.frames {
        for (frames, system) in &mut devices {
            frames.step(system, i, &config.telemetry);
        }
    }

    // --- HandoffCold forensics post-pass. ---
    // The mobile side cannot see a fleet handoff (by design: a replica
    // swap is payload-invisible), so the cold-start label is applied
    // here from the fleet's own handoff log: frames of the moved device
    // inside the post-handoff residency window, unless a stronger cause
    // already labeled them.
    if let Some(stats) = shared.fleet_stats() {
        let window_ms = config
            .fleet
            .as_ref()
            .map(|f| f.handoff_cooldown_ms)
            .unwrap_or(250.0);
        for h in &stats.handoff_log {
            let Some((frames, _)) = devices.get_mut(h.device as usize) else {
                continue;
            };
            for rec in &mut frames.records {
                if rec.time_ms >= h.at_ms
                    && rec.time_ms < h.at_ms + window_ms
                    && rec.outcome == FrameOutcome::Healthy
                {
                    rec.outcome = FrameOutcome::HandoffCold;
                }
            }
        }
    }

    let reports = devices
        .into_iter()
        .enumerate()
        .map(|(d, (frames, system))| Report {
            system: format!("edgeIS (device {d})"),
            scenario: worlds[d].name.clone(),
            records: frames.records,
            resilience: system.resilience_stats().cloned().unwrap_or_default(),
        })
        .collect();
    (reports, shared.serving_stats(), shared.fleet_stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeis_scene::datasets;

    #[test]
    fn fleet_contention_degrades_gracefully() {
        let solo = MultiDeviceConfig {
            devices: 1,
            frames: 90,
            ..Default::default()
        };
        let fleet = MultiDeviceConfig {
            devices: 4,
            frames: 90,
            ..Default::default()
        };
        let solo_reports = run_multi_device(datasets::indoor_simple, &solo);
        let fleet_reports = run_multi_device(datasets::indoor_simple, &fleet);
        assert_eq!(solo_reports.len(), 1);
        assert_eq!(fleet_reports.len(), 4);

        let solo_iou = solo_reports[0].mean_iou();
        let fleet_iou: f64 = fleet_reports.iter().map(|r| r.mean_iou()).sum::<f64>() / 4.0;
        // Contention can only hurt; but the system must stay functional.
        assert!(
            fleet_iou <= solo_iou + 0.05,
            "fleet {fleet_iou:.3} should not beat solo {solo_iou:.3}"
        );
        // Four devices on one TX2-class edge saturate the GPU queue; the
        // admission control must keep the fleet degraded-but-functional.
        assert!(fleet_iou > 0.2, "fleet collapsed: {fleet_iou:.3}");
    }

    #[test]
    fn serving_backend_keeps_fleet_functional_and_reports_stats() {
        let serial = MultiDeviceConfig {
            devices: 4,
            frames: 90,
            ..Default::default()
        };
        let serving = MultiDeviceConfig {
            serving: Some(ServingConfig::default()),
            ..serial.clone()
        };
        let (serial_reports, serial_stats) =
            run_multi_device_with_stats(datasets::indoor_simple, &serial);
        let (serving_reports, serving_stats) =
            run_multi_device_with_stats(datasets::indoor_simple, &serving);
        // The serial FIFO edge serves every request alone and caches
        // nothing.
        let serial_stats = serial_stats.expect("every backend reports serving stats");
        assert!(serial_stats.served > 0, "the serial edge served nothing");
        assert_eq!(serial_stats.batches, serial_stats.served);
        assert_eq!(serial_stats.batch_joins, 0);
        assert_eq!(serial_stats.cache_hits, 0);
        let stats = serving_stats.expect("every backend reports serving stats");
        assert!(stats.served > 0, "nothing was served");

        // The serving runtime must not cost accuracy relative to the
        // serial FIFO under the same contention.
        let serial_iou: f64 =
            serial_reports.iter().map(|r| r.mean_iou()).sum::<f64>() / serial_reports.len() as f64;
        let serving_iou: f64 = serving_reports.iter().map(|r| r.mean_iou()).sum::<f64>()
            / serving_reports.len() as f64;
        assert!(
            serving_iou > serial_iou - 0.05,
            "serving backend lost accuracy: {serving_iou:.3} vs serial {serial_iou:.3}"
        );
        // The latency observability must flow end to end: some frame in a
        // contended run carries a response round-trip.
        let samples: usize = serving_reports
            .iter()
            .map(|r| r.response_latency_samples().len())
            .sum();
        assert!(samples > 0, "no response latency ever recorded");
    }

    #[test]
    fn fleet_survives_shared_faults() {
        use crate::edge::EdgeFaultConfig;
        use edgeis_netsim::FaultSchedule;

        // Mid-run: the shared edge crashes for half a second while every
        // device's link also drops a third of responses.
        let config = MultiDeviceConfig {
            devices: 3,
            frames: 120,
            link_faults: Some(FaultSchedule::new(5).drop_responses(1500.0, 3000.0, 0.33)),
            edge_faults: Some(EdgeFaultConfig {
                crash_windows: vec![(1800.0, 2300.0)],
                restart_ms: 100.0,
                shed_queue_horizon_ms: 900.0,
                ..Default::default()
            }),
            ..Default::default()
        };
        let reports = run_multi_device(datasets::indoor_simple, &config);
        assert_eq!(reports.len(), 3);
        // Faulted contention degrades accuracy but must not collapse the
        // fleet. (Individual devices can starve under contention — the
        // last device in the FIFO is admission-held the most — so the
        // floor is on the fleet, as in the benign contention test.)
        let fleet_iou: f64 =
            reports.iter().map(|r| r.mean_iou()).sum::<f64>() / reports.len() as f64;
        assert!(
            fleet_iou > 0.12,
            "fleet collapsed under faults: {fleet_iou:.3}"
        );
        // The faults must actually have bitten, and the policy must have
        // brought at least one device back.
        let total_timeouts: u64 = reports.iter().map(|r| r.resilience.timeouts).sum();
        let total_recoveries: u64 = reports.iter().map(|r| r.resilience.recoveries).sum();
        assert!(total_timeouts > 0, "fault plan never fired");
        assert!(total_recoveries > 0, "no device completed a recovery");
    }

    #[test]
    fn fleet_backend_fails_over_when_an_edge_crashes() {
        use crate::fleet::rendezvous_rank;
        use edgeis_netsim::EdgeFaultScript;

        // Crash device 0's home edge for a full second mid-run. With
        // failover the fleet evacuates its tenants and keeps serving;
        // the pinned baseline just eats the losses.
        let home = rendezvous_rank(0, 3)[0];
        let script = EdgeFaultScript::new().crash(home, 1500.0, 2500.0, 120.0);
        let failover = MultiDeviceConfig {
            devices: 4,
            frames: 120,
            fleet: Some(FleetConfig {
                edges: 3,
                script: script.clone(),
                ..FleetConfig::default()
            }),
            ..Default::default()
        };
        let pinned = MultiDeviceConfig {
            fleet: Some(FleetConfig {
                edges: 3,
                script,
                failover_enabled: false,
                ..FleetConfig::default()
            }),
            ..failover.clone()
        };

        let (reports, serving, fleet) =
            run_multi_device_with_fleet(datasets::indoor_simple, &failover);
        let stats = fleet.expect("fleet backend must report fleet stats");
        assert_eq!(reports.len(), 4);
        assert!(stats.handoffs >= 1, "nobody was evacuated off the crash");
        assert_eq!(stats.dead_edge_responses, 0, "a dead edge answered");
        assert_eq!(
            stats.per_edge_served.iter().sum::<u64>(),
            serving.served,
            "fleet and serving accounting disagree"
        );
        let fleet_iou: f64 =
            reports.iter().map(|r| r.mean_iou()).sum::<f64>() / reports.len() as f64;
        assert!(fleet_iou > 0.2, "failover fleet collapsed: {fleet_iou:.3}");

        let (_, _, pinned_stats) = run_multi_device_with_fleet(datasets::indoor_simple, &pinned);
        let pinned_stats = pinned_stats.expect("fleet stats");
        assert_eq!(pinned_stats.handoffs, 0, "baseline must never hand off");
    }
}
