//! Fixed scenarios the golden traces are recorded over.
//!
//! Each scenario is fully determined by its name: world seed, camera,
//! link, fault plan and frame count are all pinned here, so a golden
//! recorded today and a trace recorded after any refactor are comparable
//! frame-by-frame.

use crate::diff::Divergence;
use crate::trace::Trace;
use edgeis::multi::{run_multi_device, MultiDeviceConfig};
use edgeis::pipeline::{class_map, run_pipeline, PipelineConfig};
use edgeis::slo::ScenarioSlo;
use edgeis::{EdgeIsConfig, EdgeIsSystem, ServingConfig};
use edgeis_geometry::Camera;
use edgeis_imaging::GrayImage;
use edgeis_netsim::{FaultSchedule, LinkKind};
use edgeis_scene::datasets;
use edgeis_scene::World;

/// Shared camera model for every scenario except the hi-res ones.
pub fn camera() -> Camera {
    Camera::with_hfov(1.2, 320, 240)
}

/// Records a single-device run of the full edgeIS system over an
/// arbitrary world, after letting `tweak` adjust the system
/// configuration. The scenario-matrix recorders and the differential
/// oracles both bottom out here.
pub fn record_world_with(
    name: &str,
    world: &World,
    camera: Camera,
    frames: usize,
    seed: u64,
    faults: Option<FaultSchedule>,
    tweak: impl FnOnce(&mut EdgeIsConfig),
) -> Trace {
    let classes = class_map(world);
    let mut config = EdgeIsConfig::full(camera, seed);
    tweak(&mut config);
    let mut system = EdgeIsSystem::new(config, LinkKind::Wifi5);
    if let Some(schedule) = faults {
        system.install_link_faults(schedule);
    }
    let pipeline = PipelineConfig {
        frames,
        warmup_frames: 20,
        ..Default::default()
    };
    let report = run_pipeline(&mut system, world, &camera, &classes, &pipeline);
    Trace::from_reports(name, &[report])
}

/// [`record_world_with`] over the legacy `indoor_simple` world at the
/// shared 320×240 camera — the recorder behind the original golden set
/// and the differential oracles.
pub fn record_single_with(
    name: &str,
    frames: usize,
    seed: u64,
    faults: Option<FaultSchedule>,
    tweak: impl FnOnce(&mut EdgeIsConfig),
) -> Trace {
    let world = datasets::indoor_simple(seed);
    record_world_with(name, &world, camera(), frames, seed, faults, tweak)
}

/// The response-drop fault window used by the `single_faulted` scenario:
/// long enough to push the resilience policy through Degraded → Outage →
/// Recovering within the scenario's 90 frames (3 s at 30 fps).
pub fn faulted_schedule() -> FaultSchedule {
    FaultSchedule::new(5).drop_responses(700.0, 1900.0, 0.85)
}

/// Records a fleet run (shared edge), optionally on the serving runtime.
pub fn record_fleet(
    name: &str,
    devices: usize,
    frames: usize,
    serving: Option<ServingConfig>,
) -> Trace {
    let config = MultiDeviceConfig {
        camera: camera(),
        devices,
        frames,
        serving,
        ..Default::default()
    };
    let reports = run_multi_device(datasets::indoor_simple, &config);
    Trace::from_reports(name, &reports)
}

/// Runs the shipped ORB detector (one scratch reused across frames, as the
/// VO front end does) and the clamped reference oracle
/// ([`edgeis_imaging::features::reference`]) over every frame of the
/// `indoor_simple` render that [`record_single_with`] runs, with the
/// system's own detector config, and returns the first frame and field
/// where they disagree. Every trace field downstream of VO is a function
/// of these outputs, so this is the detector half of the trace oracle.
pub fn detector_divergence(frames: usize, seed: u64) -> Option<Divergence> {
    use edgeis_imaging::{detect_orb_with_scratch, features::reference, OrbScratch};

    let world = datasets::indoor_simple(seed);
    let orb = EdgeIsConfig::full(camera(), seed).vo.orb;
    let mut scratch = OrbScratch::default();
    let diverged = |frame: usize, field: String, lhs: String, rhs: String| Divergence {
        left: "reference".into(),
        right: "shipped".into(),
        device: 0,
        frame: frame as u64,
        field,
        lhs,
        rhs,
    };
    for (i, image) in rendered_frames(&world, frames).enumerate() {
        let (ref_kps, ref_descs) = reference::detect_orb(&image, &orb);
        let (kps, descs) = detect_orb_with_scratch(&image, &orb, &mut scratch);
        if ref_kps.len() != kps.len() {
            return Some(diverged(
                i,
                "keypoint_count".into(),
                ref_kps.len().to_string(),
                kps.len().to_string(),
            ));
        }
        for (k, (a, b)) in ref_kps.iter().zip(&kps).enumerate() {
            if a != b {
                return Some(diverged(
                    i,
                    format!("keypoints[{k}]"),
                    format!("{a:?}"),
                    format!("{b:?}"),
                ));
            }
        }
        for (k, (a, b)) in ref_descs.iter().zip(&descs).enumerate() {
            if a != b {
                return Some(diverged(
                    i,
                    format!("descriptors[{k}]"),
                    format!("{a:?}"),
                    format!("{b:?}"),
                ));
            }
        }
    }
    None
}

/// The first `frames` camera images of `world` at the shared camera and
/// the pipeline's default frame rate — what the VO front end sees.
pub fn rendered_frames(world: &World, frames: usize) -> impl Iterator<Item = GrayImage> + '_ {
    let camera = camera();
    let fps = PipelineConfig::default().fps;
    (0..frames).map(move |i| {
        let t = i as f64 / fps;
        world
            .scene
            .render_at(&camera, &world.trajectory.pose_at(t), t)
            .image
    })
}

/// Records the multi-edge failover scenario: a 3-edge fleet, 3 devices,
/// with the home edge of device 0 crashing for 800 ms mid-run so at
/// least one live handoff and the warm/cold residency path are on the
/// recorded trace. One of the [`golden_scenarios`].
pub fn record_fleet_failover(name: &str) -> Trace {
    use edgeis::fleet::{rendezvous_rank, FleetConfig};
    use edgeis::multi::run_multi_device_with_fleet;
    use edgeis_netsim::EdgeFaultScript;

    let home = rendezvous_rank(0, 3)[0];
    let config = MultiDeviceConfig {
        camera: camera(),
        devices: 3,
        frames: 120,
        fleet: Some(FleetConfig {
            edges: 3,
            script: EdgeFaultScript::new().crash(home, 1600.0, 2400.0, 120.0),
            ..FleetConfig::default()
        }),
        ..Default::default()
    };
    let (reports, _, stats) = run_multi_device_with_fleet(datasets::indoor_simple, &config);
    let stats = stats.expect("fleet backend always reports fleet stats");
    assert!(
        stats.handoffs >= 1,
        "failover scenario recorded no handoff; the trace would not cover the fleet tier"
    );
    assert_eq!(stats.dead_edge_responses, 0);
    Trace::from_reports(name, &reports)
}

/// One scenario of the conformance matrix: a preset world, a pinned
/// camera/seed/length, and the accuracy/latency budgets it must meet.
#[derive(Debug, Clone)]
pub struct MatrixScenario {
    /// Scenario (and golden file) name.
    pub name: &'static str,
    /// World generator from `edgeis_scene::datasets`.
    pub preset: fn(u64) -> World,
    /// Pinned world seed for the golden recording.
    pub seed: u64,
    /// Frames in the golden (smoke) recording.
    pub frames: usize,
    /// Camera width in pixels.
    pub width: u32,
    /// Camera height in pixels.
    pub height: u32,
    /// Budgets asserted by the `scenario_matrix` suite.
    pub slo: ScenarioSlo,
    /// Deployment-specific config adjustment, applied on top of
    /// [`EdgeIsConfig::full`] for every recording of this scenario (plain
    /// `fn` so the scenario stays `Clone + Debug`). Scenario tweaks model
    /// per-deployment tuning and are part of the scenario's pinned
    /// identity, like its seed and camera. All current entries run stock
    /// defaults; the hook exists so a future preset can pin its tuning
    /// without forking the recorder.
    pub tweak: fn(&mut edgeis::EdgeIsConfig),
}

impl MatrixScenario {
    /// The scenario's camera model.
    pub fn camera(&self) -> Camera {
        Camera::with_hfov(1.2, self.width, self.height)
    }

    /// Records the scenario at its pinned seed and length.
    pub fn record(&self) -> Trace {
        self.record_seeded(self.seed, self.frames)
    }

    /// Records the scenario world at an alternate seed or length (the
    /// seed-sweep robustness test and the 10k drift run use this).
    pub fn record_seeded(&self, seed: u64, frames: usize) -> Trace {
        let world = (self.preset)(seed);
        record_world_with(
            self.name,
            &world,
            self.camera(),
            frames,
            seed,
            None,
            self.tweak,
        )
    }
}

/// No config adjustment (most matrix scenarios run stock defaults).
fn stock_config(_: &mut edgeis::EdgeIsConfig) {}

/// Frames in the full long-horizon drift run (`--full` only; the golden
/// smoke variant records [`matrix_scenarios`]' much shorter prefix).
pub const PATROL_DRIFT_FULL_FRAMES: usize = 10_000;

/// The scenario matrix: one entry per stressor family.
///
/// SLO floors are committed from a 3-seed sweep (`scenario_bench
/// --seeds`, offsets +0/+101/+202): the worst seed's mean IoU minus a
/// safety margin, on top of which [`ScenarioSlo::check`] applies the
/// host tolerance. Latency ceilings are the worst observed p99 plus
/// ~30% headroom — p99 is mostly virtual-clock but keyframe cadence
/// (and with it queueing) shifts with measured stage wall-clock, so a
/// tight ceiling would only measure the host. `EXPERIMENTS.md` has the
/// re-measurement recipe. The per-scenario "Sweep" ranges below are the
/// `seed_sweep` test's current mean-IoU readings, not the
/// calibration-time ones.
pub fn matrix_scenarios() -> Vec<MatrixScenario> {
    vec![
        // Jog-speed ego-motion is the paper's hardest regime (Fig. 12):
        // the map dies and rebuilds repeatedly, so the honest floor is
        // low. Before the accuracy-recovery work (permissive init
        // fallback, bootstrap urgency, track-loss reset) one of the three
        // sweep seeds never initialized at all and scored 0.0. Sweep
        // 0.175–0.267.
        MatrixScenario {
            name: "urban_rush",
            preset: datasets::urban_rush,
            seed: 11,
            frames: 72,
            width: 320,
            height: 240,
            slo: ScenarioSlo {
                min_iou: 0.15,
                max_p99_ms: 540.0,
            },
            tweak: stock_config,
        },
        // Sweep 0.389–0.616; seed +101 is below the floor (ROADMAP
        // item 1).
        MatrixScenario {
            name: "crowd_occlusion",
            preset: datasets::crowd_occlusion,
            seed: 12,
            frames: 72,
            width: 320,
            height: 240,
            slo: ScenarioSlo {
                min_iou: 0.45,
                max_p99_ms: 420.0,
            },
            tweak: stock_config,
        },
        // Sweep 0.624–0.766.
        MatrixScenario {
            name: "lighting_shift",
            preset: datasets::lighting_shift,
            seed: 13,
            frames: 72,
            width: 320,
            height: 240,
            slo: ScenarioSlo {
                min_iou: 0.48,
                max_p99_ms: 460.0,
            },
            tweak: stock_config,
        },
        // Sweep 0.645–0.725.
        MatrixScenario {
            name: "object_churn",
            preset: datasets::object_churn,
            seed: 14,
            frames: 90,
            width: 320,
            height: 240,
            slo: ScenarioSlo {
                min_iou: 0.50,
                max_p99_ms: 450.0,
            },
            tweak: stock_config,
        },
        // Sweep 0.739–0.793; the same budgets gate the 10k-frame
        // `--full` drift run.
        MatrixScenario {
            name: "patrol_drift",
            preset: datasets::patrol_drift,
            seed: 15,
            frames: 240,
            width: 320,
            height: 240,
            slo: ScenarioSlo {
                min_iou: 0.48,
                max_p99_ms: 520.0,
            },
            tweak: stock_config,
        },
        // 640×480 over Wi-Fi: ~4× the uplink bytes per keyframe pushes
        // the p99 well past the QVGA scenarios, and the first usable map
        // lands late, dragging the mean down (per-instance IoU reaches
        // 0.7–0.9 once warm). Sweep 0.270–0.518.
        MatrixScenario {
            name: "atrium_hires",
            preset: datasets::atrium_hires,
            seed: 16,
            frames: 120,
            width: 640,
            height: 480,
            slo: ScenarioSlo {
                min_iou: 0.28,
                max_p99_ms: 920.0,
            },
            tweak: stock_config,
        },
    ]
}

/// One golden scenario: a name, a deterministic recorder, and the
/// budgets its recording must meet.
pub struct Scenario {
    pub name: &'static str,
    /// Budgets asserted against the recorded trace.
    pub slo: ScenarioSlo,
    record: Box<dyn Fn() -> Trace>,
}

impl Scenario {
    /// Runs the scenario and returns its canonical trace.
    pub fn record(&self) -> Trace {
        (self.record)()
    }
}

/// The golden set: every scenario with a committed trace under
/// `tests/golden/` — the three original indoor scenarios, the failover
/// fleet ([`record_fleet_failover`]) and the full [`matrix_scenarios`]
/// sweep.
pub fn golden_scenarios() -> Vec<Scenario> {
    // Legacy budgets follow the same calibration rule as the matrix
    // (observed IoU minus margin, observed p99 plus ~30–50% headroom).
    // With the serial FIFO edge on `ServingRuntime` and the shipped
    // defaults they measure 0.667/390ms, 0.713/342ms and 0.850/283ms
    // respectively. single_faulted clears its floor only because its
    // last response before the drop window now carries every mask
    // (ROADMAP item 1).
    let mut scenarios = vec![
        Scenario {
            name: "single_cfrs",
            slo: ScenarioSlo {
                min_iou: 0.45,
                max_p99_ms: 520.0,
            },
            record: Box::new(|| record_single_with("single_cfrs", 60, 1, None, |_| {})),
        },
        Scenario {
            name: "single_faulted",
            // The 85% response-drop window starves mask refresh for over
            // a third of the run, so the IoU budget is looser.
            slo: ScenarioSlo {
                min_iou: 0.50,
                max_p99_ms: 520.0,
            },
            record: Box::new(|| {
                record_single_with("single_faulted", 90, 2, Some(faulted_schedule()), |_| {})
            }),
        },
        Scenario {
            name: "fleet_serving",
            slo: ScenarioSlo {
                min_iou: 0.70,
                max_p99_ms: 450.0,
            },
            record: Box::new(|| {
                record_fleet("fleet_serving", 2, 48, Some(ServingConfig::default()))
            }),
        },
        Scenario {
            name: "fleet_failover",
            // Same calibration rule; measured 0.750/283ms.
            slo: ScenarioSlo {
                min_iou: 0.60,
                max_p99_ms: 400.0,
            },
            record: Box::new(|| record_fleet_failover("fleet_failover")),
        },
    ];
    for m in matrix_scenarios() {
        scenarios.push(Scenario {
            name: m.name,
            slo: m.slo,
            record: Box::new(move || m.record()),
        });
    }
    scenarios
}
