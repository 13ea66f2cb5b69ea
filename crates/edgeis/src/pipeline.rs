//! Drives a [`SegmentationSystem`] over a synthetic world on a virtual
//! clock, applies the backlog/staleness model and scores every frame.

use crate::metrics::{FrameOutcome, FrameRecord, Report};
use crate::system::{FrameInput, FrameOutput, SegmentationSystem};
use edgeis_geometry::Camera;
use edgeis_imaging::{iou, Mask};
use edgeis_scene::World;
use edgeis_telemetry::{ArgValue, Telemetry};
use std::collections::BTreeMap;

/// Pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Camera frame rate.
    pub fps: f64,
    /// Number of frames to simulate.
    pub frames: usize,
    /// Ground-truth instances smaller than this many pixels are not
    /// scored (sub-resolution slivers).
    pub min_scored_area: usize,
    /// Frames at the start excluded from accuracy scoring (system
    /// bootstrap: first annotations must arrive before any system can
    /// render anything).
    pub warmup_frames: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            fps: 30.0,
            frames: 150,
            min_scored_area: 80,
            warmup_frames: 30,
        }
    }
}

/// Runs the system over the world and scores each rendered frame against
/// pixel-exact ground truth.
///
/// The paper observes that per-frame latency beyond the 33 ms camera
/// interval "accumulates and eventually results in a delayed mask
/// rendering on a later frame"; the backlog model implements exactly that:
/// excess latency accumulates, and the masks actually rendered at frame
/// `i` are the ones computed `backlog / interval` frames ago.
pub fn run_pipeline(
    system: &mut dyn SegmentationSystem,
    world: &World,
    camera: &Camera,
    classes: &BTreeMap<u16, u8>,
    config: &PipelineConfig,
) -> Report {
    let mut device = DeviceFrames::new(world, *camera, classes, *config, 0);
    let telemetry = Telemetry::disabled();
    for i in 0..config.frames {
        device.step(system, i, &telemetry);
    }
    Report {
        system: system.name().to_string(),
        scenario: world.name.clone(),
        records: device.records,
        resilience: system.resilience_stats().cloned().unwrap_or_default(),
    }
}

/// One device's frame loop: the frame-drop backlog, the stale-frame
/// count, the masks on screen and the records scored so far.
/// [`run_pipeline`] drives one; the multi-device loop drives one per
/// device on the shared clock.
pub(crate) struct DeviceFrames<'w> {
    world: &'w World,
    camera: Camera,
    classes: &'w BTreeMap<u16, u8>,
    config: PipelineConfig,
    device: u64,
    backlog: f64,
    stale: usize,
    last_masks: Vec<(u16, Mask)>,
    pub(crate) records: Vec<FrameRecord>,
}

impl<'w> DeviceFrames<'w> {
    pub(crate) fn new(
        world: &'w World,
        camera: Camera,
        classes: &'w BTreeMap<u16, u8>,
        config: PipelineConfig,
        device: u64,
    ) -> Self {
        Self {
            world,
            camera,
            classes,
            config,
            device,
            backlog: 0.0,
            stale: 0,
            last_masks: Vec::new(),
            records: Vec::with_capacity(config.frames),
        }
    }

    /// Renders frame `i`, runs it through `system` unless the device is
    /// still busy, and records what the user sees scored against ground
    /// truth.
    pub(crate) fn step(
        &mut self,
        system: &mut dyn SegmentationSystem,
        i: usize,
        telemetry: &Telemetry,
    ) {
        let interval = 1000.0 / self.config.fps;
        let t = i as f64 / self.config.fps;
        let now = t * 1000.0;
        let pose = self.world.trajectory.pose_at(t);
        let frame = self.world.scene.render_at(&self.camera, &pose, t);

        // Frame-drop model: when the previous frame's processing spilled
        // past the camera interval, the device is still busy — this frame
        // is dropped and the previous masks are re-rendered (the paper's
        // "delayed mask rendering on a later frame").
        let out = if self.backlog >= interval {
            self.backlog -= interval;
            self.stale += 1;
            if telemetry.is_enabled() {
                telemetry.emit_event_current(
                    "frame.dropped",
                    self.device,
                    now,
                    vec![
                        ("frame", ArgValue::U64(i as u64)),
                        ("backlog_ms", ArgValue::F64(self.backlog)),
                    ],
                );
            }
            FrameOutput {
                mobile_ms: interval,
                // A dropped frame re-renders masks `stale` frames old: the
                // user sees stale guidance, and the age says how stale.
                outcome: FrameOutcome::StaleGuidance {
                    age_ms: self.stale as f64 * interval,
                },
                ..Default::default()
            }
        } else {
            let input = FrameInput {
                index: i as u64,
                time_ms: now,
                frame: &frame,
                classes: self.classes,
            };
            let mut out = system.process_frame(&input, now);
            self.backlog = (self.backlog + out.mobile_ms - interval).max(0.0);
            self.last_masks = std::mem::take(&mut out.masks);
            self.stale = 0;
            out
        };

        // Score: every sufficiently visible ground-truth instance
        // (after the bootstrap warmup).
        let mut ious = Vec::new();
        if i >= self.config.warmup_frames {
            for (id, gt) in frame.labels.instance_masks() {
                if gt.area() < self.config.min_scored_area {
                    continue;
                }
                let score = self
                    .last_masks
                    .iter()
                    .find(|(l, _)| *l == id)
                    .map(|(_, m)| iou(&gt, m))
                    .unwrap_or(0.0);
                ious.push((id, score));
            }
        }

        self.records.push(FrameRecord {
            frame: i as u64,
            time_ms: now,
            ious,
            mobile_ms: out.mobile_ms,
            tx_bytes: out.tx_bytes,
            transmitted: out.transmitted,
            stale_frames: self.stale,
            stages: out.stages,
            edge_queue_wait_ms: out.edge_queue_wait_ms,
            response_latency_ms: out.response_latency_ms,
            trace: out.trace,
            outcome: out.outcome,
        });
    }
}

/// Builds the class map (instance id → class id) a world's scene implies.
pub fn class_map(world: &World) -> BTreeMap<u16, u8> {
    world
        .scene
        .objects()
        .iter()
        .filter(|o| !o.is_background)
        .map(|o| (o.id, o.class.index() as u8))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FrameTrace;
    use edgeis_netsim::SimMs;
    use edgeis_scene::datasets;
    use edgeis_telemetry::TelemetryConfig;

    /// Takes a fixed 2.5 camera intervals per frame and renders each
    /// processed frame's own ground truth, so every processed frame scores
    /// IoU 1 and a dropped frame scores whatever the last masks are worth.
    struct SlowStub {
        mobile_ms: f64,
        processed: Vec<u64>,
    }

    impl SegmentationSystem for SlowStub {
        fn name(&self) -> &'static str {
            "slow_stub"
        }

        fn process_frame(&mut self, input: &FrameInput<'_>, _now: SimMs) -> FrameOutput {
            self.processed.push(input.index);
            FrameOutput {
                masks: input.frame.labels.instance_masks(),
                mobile_ms: self.mobile_ms,
                tx_bytes: 7,
                transmitted: true,
                outcome: FrameOutcome::Healthy,
                ..Default::default()
            }
        }
    }

    #[test]
    fn slow_frames_drop_the_backlog_and_rescore_the_last_masks() {
        // 25 fps keeps the interval (40 ms) and the backlog exact in f64.
        // At 100 ms per frame the backlog runs 0 → 60 (process) → 20
        // (drop) → 80 (process) → 40 (drop) → 0 (drop, at exactly one
        // interval) → 60 …: frames 0 and 2 of every 5 are processed, and
        // the third drop in a row is two frames stale.
        let config = PipelineConfig {
            fps: 25.0,
            frames: 15,
            min_scored_area: 1,
            warmup_frames: 0,
        };
        let interval = 40.0;
        let camera = Camera::with_hfov(1.2, 96, 72);
        let world = datasets::indoor_simple(3);
        let classes = class_map(&world);
        let mut system = SlowStub {
            mobile_ms: 2.5 * interval,
            processed: Vec::new(),
        };
        let telemetry = Telemetry::new(TelemetryConfig::enabled("frame_drop"));
        let mut device = DeviceFrames::new(&world, camera, &classes, config, 4);
        for i in 0..config.frames {
            device.step(&mut system, i, &telemetry);
        }

        let processed: Vec<u64> = (0..15).filter(|i| matches!(i % 5, 0 | 2)).collect();
        assert_eq!(system.processed, processed);
        let stale: Vec<usize> = device.records.iter().map(|r| r.stale_frames).collect();
        assert_eq!(stale, [0, 1, 0, 1, 2].repeat(3));

        let mut last_shown = 0;
        for (i, rec) in device.records.iter().enumerate() {
            let t = i as f64 / config.fps;
            let frame = world
                .scene
                .render_at(&camera, &world.trajectory.pose_at(t), t);
            assert!(!rec.ious.is_empty(), "frame {i} scored nothing");
            if rec.stale_frames == 0 {
                last_shown = i;
                assert_eq!(rec.outcome, FrameOutcome::Healthy);
                assert_eq!((rec.mobile_ms, rec.tx_bytes), (2.5 * interval, 7));
                assert!(rec.ious.iter().all(|&(_, s)| s == 1.0), "frame {i}");
                continue;
            }
            assert_eq!(
                rec.outcome,
                FrameOutcome::StaleGuidance {
                    age_ms: rec.stale_frames as f64 * interval
                },
                "frame {i}"
            );
            assert_eq!((rec.mobile_ms, rec.tx_bytes), (interval, 0));
            assert!(!rec.transmitted && rec.trace == FrameTrace::default());
            // The masks on screen are the last processed frame's ground
            // truth, scored against this frame's.
            let ts = last_shown as f64 / config.fps;
            let shown = world
                .scene
                .render_at(&camera, &world.trajectory.pose_at(ts), ts)
                .labels;
            for &(id, score) in &rec.ious {
                let gt = frame.labels.instance_mask(id);
                let expected = if shown.instance_ids().contains(&id) {
                    iou(&gt, &shown.instance_mask(id))
                } else {
                    0.0
                };
                assert_eq!(score, expected, "frame {i} instance {id}");
            }
        }

        let dropped: Vec<(u64, u64)> = telemetry
            .events_snapshot()
            .iter()
            .filter(|e| e.name == "frame.dropped")
            .map(|e| match e.args[0] {
                ("frame", ArgValue::U64(f)) => (e.device, f),
                _ => panic!("frame.dropped without its frame index"),
            })
            .collect();
        let expected: Vec<(u64, u64)> = (0..15)
            .filter(|i| !processed.contains(i))
            .map(|i| (4, i))
            .collect();
        assert_eq!(dropped, expected);
    }
}
