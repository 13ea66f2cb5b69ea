//! The [`SegmentationSystem`] trait and the full edgeIS system.
//!
//! Besides the paper's steady-state pipeline, the mobile side carries a
//! resilience policy for hostile conditions (scripted link faults, edge
//! crashes): per-request deadlines, bounded backed-off retries, an
//! outage detector that degrades to pure local tracking, and a recovery
//! re-sync once the link heals. See `DESIGN.md` for the state machine.

use crate::cfrs::{CfrsConfig, CfrsDecision, CfrsPlanner, TransmitReason};
use crate::cost::MobileCostModel;
use crate::edge::{EdgeFaultConfig, EdgeServer, PendingResponse, SharedEdge};
use crate::metrics::{FrameOutcome, ResilienceStats, StageBreakdownMs};
use crate::resources::{ResourceConfig, ResourceLedger};
use crate::trace::{
    digest_masks, digest_uplink, fnv1a64_extend, pose_vector, FrameTrace, FNV_OFFSET,
};
use crate::wire::{RequestEnvelope, WireDetection};
use edgeis_codec::{encode_with_scratch, QualityLevel, TileGrid, TilePlan};
use edgeis_geometry::Camera;
use edgeis_imaging::{GrayImage, LabelMap, Mask, MotionVectorField, RleMask};
use edgeis_netsim::{Direction, FaultSchedule, Link, LinkKind, SimMs};
use edgeis_scene::RenderedFrame;
use edgeis_segnet::{EdgeModel, FrameObservation, ModelKind};
use edgeis_telemetry::{ArgValue, BurnTracker, Counter, Gauge, Histogram, Telemetry, TraceContext};
use edgeis_vo::{VisualOdometry, VoConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Milliseconds elapsed since `start` (host wall clock, not sim time).
fn elapsed_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1000.0
}

/// Input to one frame step: the rendered frame plus scene class metadata.
#[derive(Debug)]
pub struct FrameInput<'a> {
    /// Frame index (0-based).
    pub index: u64,
    /// Virtual capture time, ms.
    pub time_ms: SimMs,
    /// The rendered frame (image + ground-truth labels used by the edge
    /// simulator; the mobile side only looks at the image).
    pub frame: &'a RenderedFrame,
    /// Class id per instance label.
    pub classes: &'a BTreeMap<u16, u8>,
}

/// What a system hands to the renderer for one frame.
#[derive(Debug, Clone, Default)]
pub struct FrameOutput {
    /// Masks rendered to the user this frame.
    pub masks: Vec<(u16, Mask)>,
    /// Mobile-side processing latency, ms (modeled).
    pub mobile_ms: f64,
    /// Bytes sent uplink this frame.
    pub tx_bytes: usize,
    /// Whether a frame was offloaded.
    pub transmitted: bool,
    /// Measured wall-clock per pipeline stage (host time, for the perf
    /// profile; all zero for systems without instrumentation).
    pub stages: StageBreakdownMs,
    /// Virtual time the worst edge response delivered this frame waited in
    /// the edge queue, ms (`None` when no response arrived).
    pub edge_queue_wait_ms: Option<f64>,
    /// Virtual request→response round-trip of the worst edge response
    /// delivered this frame, ms (`None` when no response arrived).
    pub response_latency_ms: Option<f64>,
    /// Deterministic conformance trace of this frame (see [`FrameTrace`]).
    pub trace: FrameTrace,
    /// Causal outcome of this frame (forensics; see
    /// [`FrameOutcome`]). Derived from state the system already tracks —
    /// never part of [`FrameTrace`] or its digest, so goldens are
    /// untouched.
    pub outcome: FrameOutcome,
}

/// A mobile+edge segmentation system under test.
pub trait SegmentationSystem {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// Processes one camera frame at virtual time `now` and returns what
    /// would be rendered.
    fn process_frame(&mut self, input: &FrameInput<'_>, now: SimMs) -> FrameOutput;

    /// Resource ledger, when the system tracks one.
    fn resources(&self) -> Option<&ResourceLedger> {
        None
    }

    /// Resilience counters, when the system tracks them.
    fn resilience_stats(&self) -> Option<&ResilienceStats> {
        None
    }
}

/// Paints `(label, mask)` pairs into a label map in the given order, so a
/// later mask wins the pixels it shares with an earlier one.
fn paint_labels<'a>(
    width: u32,
    height: u32,
    masks: impl IntoIterator<Item = (u16, &'a Mask)>,
) -> LabelMap {
    let mut lm = LabelMap::new(width, height);
    for (label, mask) in masks {
        for (x, y) in mask.iter_set() {
            lm.set(x, y, label);
        }
    }
    lm
}

/// Paints decoded detections into a label map (ascending confidence so
/// the most confident detection wins contested pixels).
fn label_map_from_detections(width: u32, height: u32, detections: &[WireDetection]) -> LabelMap {
    let mut sorted: Vec<&WireDetection> = detections.iter().collect();
    sorted.sort_by(|a, b| {
        a.confidence
            .partial_cmp(&b.confidence)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    paint_labels(
        width,
        height,
        sorted.into_iter().map(|d| (d.instance, &d.mask)),
    )
}

/// Health of the mobile↔edge path as the resilience policy perceives it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LinkHealth {
    /// Responses flowing normally.
    #[default]
    Healthy,
    /// At least one recent timeout; retries in progress.
    Degraded,
    /// Consecutive timeouts crossed the threshold: the device assumes the
    /// link (or edge) is down, stops offloading and probes periodically.
    Outage,
    /// A probe got through; waiting for the recovery keyframe's response.
    Recovering,
}

impl LinkHealth {
    /// Canonical lowercase name, used in conformance traces.
    pub fn as_str(&self) -> &'static str {
        match self {
            LinkHealth::Healthy => "healthy",
            LinkHealth::Degraded => "degraded",
            LinkHealth::Outage => "outage",
            LinkHealth::Recovering => "recovering",
        }
    }
}

/// Mobile-side resilience policy parameters.
///
/// The first two fields are the backpressure bounds that used to be magic
/// numbers in the transmit decision; the rest drive the fault handling.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Master switch: when off, the system keeps the plain best-effort
    /// behaviour (no deadlines/retries/outage handling) except for a very
    /// lax request reaper that stops lost requests from wedging the
    /// pipeline forever.
    pub enabled: bool,
    /// Bounded request pipelining per device: hold transmissions while
    /// this many requests are outstanding.
    pub max_pending: usize,
    /// Admission control against the edge queue: hold transmissions while
    /// the edge is busy beyond `now + horizon`.
    pub edge_backlog_horizon_ms: f64,
    /// A request without a usable response this long after sending is
    /// declared timed out; responses arriving later are discarded as
    /// stale rather than applied to the (much newer) local state.
    pub response_deadline_ms: f64,
    /// Retries per timed-out request before giving up.
    pub max_retries: u32,
    /// Exponential backoff base: retry `k` waits `base * 2^(k-1)` ms.
    pub retry_backoff_base_ms: f64,
    /// Backoff ceiling, ms.
    pub retry_backoff_max_ms: f64,
    /// Consecutive timeouts that trip the outage detector.
    pub outage_after_timeouts: u32,
    /// Spacing of link probes while in the outage state, ms.
    pub probe_interval_ms: f64,
    /// Size of a link probe, bytes (a ping-sized datagram).
    pub probe_bytes: usize,
    /// Forced full-scan keyframes sent after a probe succeeds. One is not
    /// enough: its response is already a round-trip stale by the time it
    /// applies, and the frozen VO map needs several fresh annotations
    /// before mask transfer is trustworthy again — until then, planner
    /// guidance would anchor the edge onto drifted masks.
    pub recovery_keyframes: u32,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            max_pending: 3,
            edge_backlog_horizon_ms: 400.0,
            response_deadline_ms: 1200.0,
            max_retries: 2,
            retry_backoff_base_ms: 100.0,
            retry_backoff_max_ms: 1600.0,
            outage_after_timeouts: 2,
            probe_interval_ms: 66.0,
            probe_bytes: 256,
            recovery_keyframes: 4,
        }
    }
}

/// Configuration of the edgeIS system (and its ablations).
#[derive(Debug, Clone)]
pub struct EdgeIsConfig {
    /// Camera intrinsics shared with the renderer.
    pub camera: Camera,
    /// VO parameters (§III).
    pub vo: VoConfig,
    /// CFRS parameters (§V).
    pub cfrs: CfrsConfig,
    /// Mobile compute-cost calibration.
    pub cost: MobileCostModel,
    /// Resource-model calibration.
    pub resources: ResourceConfig,
    /// Resilience policy parameters.
    pub resilience: ResilienceConfig,
    /// Edge model (Mask R-CNN in the paper).
    pub model: ModelKind,
    /// Enable motion-aware mobile mask transfer; when off, the mobile side
    /// falls back to motion-vector warping (the Fig. 16 baseline tracker).
    pub use_mamt: bool,
    /// Enable contour instructed inference acceleration (guidance to the
    /// edge model).
    pub use_ciia: bool,
    /// Enable content-based fine-grained RoI selection; when off, frames
    /// are offloaded back-to-back at uniform high quality.
    pub use_cfrs: bool,
    /// Detections below this confidence are dropped on the mobile side.
    pub min_confidence: f64,
    /// RNG seed for the edge model.
    pub seed: u64,
}

impl EdgeIsConfig {
    /// Full edgeIS for a camera.
    pub fn full(camera: Camera, seed: u64) -> Self {
        // Median depth fold for contour transfer: the mean borrows depth
        // across occlusion boundaries (a handful of neighbour anchors on
        // the far surface drag the contour point), while the median sticks
        // to the majority surface. Measured on the scenario matrix it is
        // worth +0.01–0.04 mean IoU on every preset (see DESIGN.md §16);
        // every committed golden is recorded with it.
        let mut vo = VoConfig::default();
        vo.transfer.depth_stat = edgeis_vo::transfer::DepthStat::Median;
        Self {
            camera,
            vo,
            cfrs: CfrsConfig::default(),
            cost: MobileCostModel::default(),
            resources: ResourceConfig::default(),
            resilience: ResilienceConfig::default(),
            model: ModelKind::MaskRcnn,
            use_mamt: true,
            use_ciia: true,
            use_cfrs: true,
            min_confidence: 0.5,
            seed,
        }
    }
}

/// Which local tracker the mobile side runs.
enum MobileTracker {
    /// The paper's §III VO-based transfer.
    Vo {
        vo: Box<VisualOdometry>,
        /// Previous world-motion translation per object, for the CFRS
        /// motion trigger.
        prev_motion: BTreeMap<u16, edgeis_geometry::Vec3>,
        /// The last applied edge answer (detections reaching
        /// `min_confidence`), shown while the VO shows no mask (see
        /// [`MobileTracker::held_masks`]).
        held: Vec<(u16, RleMask)>,
    },
    /// Motion-vector warping of the last received masks (ablation /
    /// baseline tracker).
    MotionVector {
        prev_image: Option<GrayImage>,
        cached: Vec<(u16, Mask)>,
        /// Mean displacement accumulated since the last transmission.
        motion_since_tx: f64,
    },
}

/// What the track phase hands to the decide, offload and label phases.
#[derive(Default)]
struct Tracked {
    /// Masks to render, short-horizon fallbacks included (and, once the
    /// offload phase has run, the held edge answer on a frame with none).
    masks: Vec<(u16, Mask)>,
    /// Recently rendered objects missing now, with their last mask.
    lost: Vec<(u16, Mask)>,
    /// Newly observed share of the frame (1 once an object is lost).
    new_area_fraction: f64,
    /// Unlabeled feature pixels (new areas for the plan and guidance).
    new_pixels: Vec<(f64, f64)>,
    /// The tracker's id for this frame (request and annotation key).
    frame_id: u64,
    pose: Option<[f64; 6]>,
    /// Cost-model inputs (zero for the MV tracker).
    features: usize,
    matches: usize,
    poses: usize,
}

impl MobileTracker {
    fn new(config: &EdgeIsConfig) -> Self {
        if config.use_mamt {
            MobileTracker::Vo {
                vo: Box::new(VisualOdometry::new(config.camera, config.vo.clone())),
                prev_motion: BTreeMap::new(),
                held: Vec::new(),
            }
        } else {
            MobileTracker::MotionVector {
                prev_image: None,
                cached: Vec::new(),
                motion_since_tx: 0.0,
            }
        }
    }

    /// Whether the mobile map / cache is initialized.
    fn initialized(&self) -> bool {
        match self {
            MobileTracker::Vo { vo, .. } => vo.is_tracking(),
            MobileTracker::MotionVector { cached, .. } => !cached.is_empty(),
        }
    }

    /// Peak bytes of the detector/matcher scratch (none for MV).
    fn scratch_peak_bytes(&self) -> usize {
        match self {
            MobileTracker::Vo { vo, .. } => vo.scratch_peak_bytes(),
            MobileTracker::MotionVector { .. } => 0,
        }
    }

    /// Two-frame initialization keeps failing (the MV tracker has no map).
    fn init_struggling(&self) -> bool {
        matches!(self, MobileTracker::Vo { vo, .. } if vo.init_struggling())
    }

    /// Applies a decoded response's detections of frame `frame_id` that
    /// reach `min_confidence`.
    fn apply(&mut self, frame_id: u64, detections: &[WireDetection], min_confidence: f64) {
        let kept: Vec<WireDetection> = detections
            .iter()
            .filter(|d| d.confidence >= min_confidence)
            .cloned()
            .collect();
        // An empty detection set never overwrites live local state: the
        // paper's annotation pipeline relabels map points from the edge's
        // masks, so applying "edge saw nothing" while objects are tracked
        // would erase every label (and with it every tracked object) on a
        // single guided miss.
        if kept.is_empty() && self.initialized() {
            return;
        }
        match self {
            MobileTracker::Vo { vo, held, .. } => {
                let Camera { width, height, .. } = *vo.camera();
                let lm = label_map_from_detections(width, height, &kept);
                let _ = vo.apply_edge_masks(frame_id, &lm);
                if !kept.is_empty() {
                    *held = kept.iter().map(|d| (d.instance, d.mask.to_rle())).collect();
                }
            }
            MobileTracker::MotionVector {
                cached,
                motion_since_tx,
                ..
            } => {
                *cached = kept.into_iter().map(|d| (d.instance, d.mask)).collect();
                *motion_since_tx = 0.0;
            }
        }
    }

    /// Tracks one frame and predicts its masks. The VO tracker also feeds
    /// per-object motion to the CFRS motion trigger and times its stages.
    fn track(
        &mut self,
        input: &FrameInput<'_>,
        planner: &mut CfrsPlanner,
        stages: &mut StageBreakdownMs,
    ) -> Tracked {
        match self {
            MobileTracker::Vo {
                vo, prev_motion, ..
            } => {
                let out = vo.process_frame(&input.frame.image, input.time_ms / 1000.0);
                stages.detect = out.detect_ms;
                stages.matching = out.match_ms;
                stages.ba = out.ba_ms;
                stages.transfer = out.transfer_ms;
                for obj in &out.objects {
                    if let Some(d) = obj.world_motion {
                        let prev = prev_motion
                            .insert(obj.label, d.translation)
                            .unwrap_or(d.translation);
                        planner.record_motion(obj.label, (d.translation - prev).norm());
                    }
                }
                Tracked {
                    masks: out
                        .objects
                        .iter()
                        .filter_map(|o| o.mask.clone().map(|m| (o.label, m)))
                        .collect(),
                    lost: Vec::new(),
                    new_area_fraction: out.new_area_fraction,
                    new_pixels: out.unlabeled_feature_pixels,
                    frame_id: out.frame_id,
                    pose: out.pose.as_ref().map(pose_vector),
                    features: out.features,
                    matches: out.matches,
                    poses: 1 + out.objects.iter().filter(|o| o.matched_points >= 3).count(),
                }
            }
            MobileTracker::MotionVector {
                prev_image,
                cached,
                motion_since_tx,
            } => {
                let mut masks = Vec::new();
                if let Some(prev) = prev_image.as_ref() {
                    let field = MotionVectorField::estimate(prev, &input.frame.image, 16, 12);
                    *motion_since_tx += field.mean_magnitude();
                    for (label, mask) in cached.iter_mut() {
                        *mask = field.warp_mask(mask);
                        masks.push((*label, mask.clone()));
                    }
                }
                *prev_image = Some(input.frame.image.clone());
                Tracked {
                    masks,
                    // Without a map, "newly observed" is approximated by
                    // the amount of motion since the caches were refreshed.
                    new_area_fraction: (*motion_since_tx / 40.0).min(1.0),
                    frame_id: input.index,
                    ..Default::default()
                }
            }
        }
    }

    /// The last applied edge answer, decoded, for a frame on which the
    /// tracker renders nothing (empty for the MV tracker, whose cache
    /// already is the last answer). Display only: these never enter the
    /// tile plan, CIIA guidance, lost-object bookkeeping, self-annotation
    /// or the cost model.
    fn held_masks(&self) -> Vec<(u16, Mask)> {
        match self {
            MobileTracker::Vo { held, .. } => held
                .iter()
                .map(|(label, rle)| (*label, rle.to_mask()))
                .collect(),
            MobileTracker::MotionVector { .. } => Vec::new(),
        }
    }

    /// Modeled mobile compute for a tracked frame, ms.
    fn frame_ms(&self, cost: &MobileCostModel, tracked: &Tracked, transmit: bool) -> f64 {
        let objects = tracked.masks.len();
        match self {
            MobileTracker::Vo { .. } => cost.edgeis_frame_ms(
                tracked.features,
                tracked.matches,
                tracked.poses,
                objects,
                transmit,
            ),
            MobileTracker::MotionVector { .. } => cost.mv_frame_ms(objects, transmit, 0.0),
        }
    }

    /// Outage self-annotation: feeds the tracker's own masks back as a
    /// pseudo-annotation of frame `frame_id` (VO only, while it holds a
    /// map). Map points are only triangulated when an annotation arrives,
    /// so a long outage freezes the map while the camera keeps moving:
    /// pose quality and mask transfer then decay with distance travelled,
    /// and the first post-outage annotation lands on dead-reckoned
    /// geometry it cannot fix. Pseudo-annotations keep the map growing
    /// along the trajectory; the labels drift with the coasted masks, but
    /// the geometry stays fresh and the first real edge annotation snaps
    /// the labels back.
    fn self_annotate(&mut self, frame_id: u64, masks: &[(u16, Mask)]) {
        if let MobileTracker::Vo { vo, .. } = self {
            if vo.is_tracking() && !masks.is_empty() {
                let Camera { width, height, .. } = *vo.camera();
                let lm = paint_labels(width, height, masks.iter().map(|(l, m)| (*l, m)));
                let _ = vo.apply_edge_masks(frame_id, &lm);
            }
        }
    }
}

/// What one `deliver` pass produced: the latency observability
/// pair plus the arrival/application digests for the conformance trace.
#[derive(Default)]
struct Delivered {
    edge_queue_wait_ms: Option<f64>,
    response_latency_ms: Option<f64>,
    responses: u32,
    response_digest: u64,
    applied_digest: u64,
    /// Zoo tier of the last applied response ("" without a zoo or when
    /// nothing was applied this pass).
    tier: &'static str,
    // --- Forensics flags (observational; feed FrameOutcome + burn). ---
    /// Link-failure signals this pass (timeouts + corrupt responses).
    failures: u32,
    /// Overload-shed rejects received this pass.
    shed: u32,
    /// A degraded-tier response was applied this pass.
    degraded_applied: bool,
    /// A response was applied while retries were in flight — the frame
    /// only succeeded thanks to the retry machinery.
    retry_recovered: bool,
}

/// What the offload phase sent (all zero on a held frame).
#[derive(Default)]
struct Offloaded {
    tx_bytes: usize,
    tile_levels: [u32; 4],
    uplink_digest: u64,
}

/// One outstanding offload request, as the mobile side sees it. The
/// device cannot observe a lost request directly — `response` being
/// `None` (uplink lost, edge crashed, downlink dropped) only manifests
/// when the deadline expires.
struct InFlight {
    /// When the request left the device (response latency baseline).
    sent_ms: SimMs,
    /// When the device gives up waiting.
    deadline_ms: SimMs,
    /// The response travelling back, if any ever will.
    response: Option<PendingResponse>,
    /// The deadline fired: the request slot is freed (retries allowed),
    /// but the socket keeps listening — a response that still shows up is
    /// stale, not invisible.
    timed_out: bool,
}

/// The edgeIS system: mobile (VO + CFRS) + edge (CIIA) over a link.
pub struct EdgeIsSystem {
    config: EdgeIsConfig,
    tracker: MobileTracker,
    planner: CfrsPlanner,
    link: Link,
    server: SharedEdge,
    pending: Vec<InFlight>,
    ledger: ResourceLedger,
    /// Last frame index each object was successfully rendered, with its
    /// last known mask — drives the lost-object mask-correction regions.
    last_seen: BTreeMap<u16, (u64, Mask)>,
    /// Transmissions issued so far (drives periodic full scans in
    /// continuous mode).
    tx_count: u64,
    /// Identity on a shared edge: lane affinity, per-request seeding and
    /// the guidance cache key all hang off this (0 for solo runs).
    device_id: u64,
    // --- Resilience state (see DESIGN.md). ---
    health: LinkHealth,
    consecutive_timeouts: u32,
    /// A timed-out request is owed a re-send.
    retry_pending: bool,
    /// Retry attempts since the last good response (bounds the backoff).
    retry_attempt: u32,
    /// Backoff gate: no transmission before this time.
    next_tx_allowed_ms: SimMs,
    /// Remaining forced recovery keyframes (set on probe success).
    recovery_tx_left: u32,
    last_probe_ms: SimMs,
    /// When the probe detected the healed link (recovery timer start).
    recovery_started_ms: Option<SimMs>,
    stats: ResilienceStats,
    // --- Frame forensics (observational only; see FrameOutcome). ---
    /// The tracker held a live map at some earlier frame (separates a
    /// mid-run track loss from the initial bootstrap).
    was_tracking: bool,
    /// A track loss is waiting for re-initialization (set on loss,
    /// cleared when tracking returns and the re-init window opens).
    reinit_owed: bool,
    /// Frames left in the post-relocalization re-init window.
    reinit_frames_left: u32,
    /// Virtual time the last annotation was applied (`None` before any).
    last_applied_ms: Option<SimMs>,
    /// Transmissions since the last applied annotation (distinguishes
    /// "guidance stale because nothing came back" from "nothing sent").
    tx_since_applied: u32,
    name: &'static str,
    /// Telemetry hub handle (disabled by default: one branch per call).
    telemetry: Telemetry,
    /// Cached per-device metric handles (None while telemetry is off, so
    /// the hot path never pays a registry lookup).
    tele: Option<DeviceMetrics>,
    /// Per-device SLO burn-rate tracker (None while telemetry is off —
    /// the burn engine is pure observability and must cost the disabled
    /// hot path exactly one branch).
    burn: Option<BurnTracker>,
    /// Reusable tile-encoder scratch (energy map + integral image): the
    /// encode stage rebuilds these in place instead of reallocating them
    /// every transmitted frame.
    encode_scratch: edgeis_codec::EncodeScratch,
}

/// Pre-resolved metric handles for one device. Looked up once in
/// `set_telemetry` so per-frame updates are plain atomic ops.
struct DeviceMetrics {
    frames: Counter,
    transmits: Counter,
    tx_bytes: Counter,
    timeouts: Counter,
    stale_drops: Counter,
    corrupt_responses: Counter,
    shed_responses: Counter,
    degraded_tier_responses: Counter,
    mobile_ms: Histogram,
    queue_wait_ms: Histogram,
    response_latency_ms: Histogram,
    health: Gauge,
    burn_rate: Gauge,
}

impl DeviceMetrics {
    fn new(telemetry: &Telemetry, device: u64) -> Option<Self> {
        let registry = telemetry.registry()?;
        let dev = device.to_string();
        let labels: &[(&str, &str)] = &[("device", dev.as_str())];
        Some(Self {
            frames: registry.counter("edgeis_frames_total", labels),
            transmits: registry.counter("edgeis_transmits_total", labels),
            tx_bytes: registry.counter("edgeis_tx_bytes_total", labels),
            timeouts: registry.counter("edgeis_timeouts_total", labels),
            stale_drops: registry.counter("edgeis_stale_drops_total", labels),
            corrupt_responses: registry.counter("edgeis_corrupt_responses_total", labels),
            shed_responses: registry.counter("edgeis_shed_responses_total", labels),
            degraded_tier_responses: registry
                .counter("edgeis_degraded_tier_responses_total", labels),
            mobile_ms: registry.histogram("edgeis_mobile_frame_ms", labels),
            queue_wait_ms: registry.histogram("edgeis_edge_queue_wait_ms", labels),
            response_latency_ms: registry.histogram("edgeis_response_latency_ms", labels),
            health: registry.gauge("edgeis_link_health", labels),
            burn_rate: registry.gauge("edgeis_slo_burn_rate", labels),
        })
    }
}

/// Guidance counts as stale after this long without an applied
/// annotation while transmissions keep going out (forensics label only;
/// never feeds back into behaviour).
const STALE_GUIDANCE_AFTER_MS: f64 = 1_000.0;

/// Frames the `Reinit` forensics window lasts after tracking returns
/// from a loss — the map is rebuilding and accuracy is still recovering.
/// Matches the VO tracker's own loss-reset horizon
/// (`VoConfig::track_loss_reset_frames`).
const REINIT_WINDOW_FRAMES: u32 = 12;

/// Numeric encoding of the health state for the gauge (0 = healthy,
/// rising with severity so dashboards can threshold on it).
fn health_level(health: LinkHealth) -> f64 {
    match health {
        LinkHealth::Healthy => 0.0,
        LinkHealth::Recovering => 1.0,
        LinkHealth::Degraded => 2.0,
        LinkHealth::Outage => 3.0,
    }
}

impl EdgeIsSystem {
    /// Builds the system over the given link, with its own edge server.
    pub fn new(config: EdgeIsConfig, link_kind: LinkKind) -> Self {
        let model = EdgeModel::new(
            config.model,
            config.camera.width,
            config.camera.height,
            config.seed ^ 0x22,
        );
        Self::with_shared_edge(config, link_kind, SharedEdge::new(EdgeServer::new(model)))
    }

    /// Builds the system against an existing (shared) edge server — used
    /// for multi-device experiments where several mobiles contend for one
    /// GPU.
    pub fn with_shared_edge(config: EdgeIsConfig, link_kind: LinkKind, server: SharedEdge) -> Self {
        let name = match (config.use_mamt, config.use_ciia, config.use_cfrs) {
            (true, true, true) => "edgeIS",
            (true, false, false) => "edgeIS (MAMT only)",
            (false, true, false) => "edgeIS (CIIA only)",
            (false, false, true) => "edgeIS (CFRS only)",
            (false, false, false) => "best-effort+MV",
            _ => "edgeIS (partial)",
        };
        Self {
            tracker: MobileTracker::new(&config),
            planner: CfrsPlanner::new(config.cfrs),
            link: Link::of_kind(link_kind, config.seed ^ 0x11),
            server,
            pending: Vec::new(),
            ledger: ResourceLedger::new(config.resources),
            last_seen: BTreeMap::new(),
            tx_count: 0,
            device_id: 0,
            health: LinkHealth::Healthy,
            consecutive_timeouts: 0,
            retry_pending: false,
            retry_attempt: 0,
            next_tx_allowed_ms: 0.0,
            recovery_tx_left: 0,
            last_probe_ms: f64::NEG_INFINITY,
            recovery_started_ms: None,
            stats: ResilienceStats::default(),
            was_tracking: false,
            reinit_owed: false,
            reinit_frames_left: 0,
            last_applied_ms: None,
            tx_since_applied: 0,
            telemetry: Telemetry::disabled(),
            tele: None,
            burn: None,
            encode_scratch: edgeis_codec::EncodeScratch::default(),
            config,
            name,
        }
    }

    /// Sets this device's identity on the shared edge (lane affinity,
    /// per-request seeding, guidance cache key).
    pub fn set_device_id(&mut self, device: u64) {
        self.device_id = device;
    }

    /// Installs a telemetry hub on this system, its link and its edge
    /// server. Call after `set_device_id` so spans and metrics carry the
    /// final device identity. Telemetry only observes: virtual-clock
    /// values, RNG streams and payload bytes are untouched, so traces and
    /// goldens are byte-identical with telemetry on or off.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.link.set_telemetry(telemetry.clone(), self.device_id);
        self.server.set_telemetry(telemetry.clone());
        self.tele = DeviceMetrics::new(&telemetry, self.device_id);
        if let Some(m) = &self.tele {
            m.health.set(health_level(self.health));
        }
        self.burn = telemetry.burn_config().map(BurnTracker::new);
        self.telemetry = telemetry;
    }

    /// Installs a scripted link fault schedule (outages, drops, spikes,
    /// corruption) on this device's link.
    pub fn install_link_faults(&mut self, schedule: FaultSchedule) {
        self.link.set_faults(schedule);
    }

    /// Installs the edge-side fault model (crash windows, shedding) on
    /// this system's edge server.
    pub fn install_edge_faults(&self, faults: EdgeFaultConfig) {
        self.server.set_faults(faults);
    }

    /// The resilience policy's current view of the link.
    pub fn health(&self) -> LinkHealth {
        self.health
    }

    /// Peak bytes held by the system's reusable scratch buffers — the
    /// tracker's detector/matcher scratch plus the tile encoder's
    /// frame-sized buffers. An allocation proxy for the perf profile.
    pub fn scratch_peak_bytes(&self) -> usize {
        self.tracker.scratch_peak_bytes() + self.encode_scratch.peak_bytes()
    }

    /// Moves the health state machine and mirrors the transition into
    /// telemetry: a `health.transition` event, the health gauge, and —
    /// when leaving `Healthy` — an automatic flight-recorder dump of the
    /// recent span/event ring for this device.
    fn transition_health(&mut self, to: LinkHealth, now: SimMs) {
        if self.health == to {
            return;
        }
        let from = self.health;
        self.health = to;
        // The edge tier hears about the transition too: a fleet uses it to
        // steer the device away from (or back to) its home edge. Single-
        // edge backends ignore the signal.
        self.server.report_health(self.device_id, to, now);
        self.device_event("health.transition", now, None, || {
            vec![
                ("from", ArgValue::Str(from.as_str().to_string())),
                ("to", ArgValue::Str(to.as_str().to_string())),
            ]
        });
        if let Some(m) = &self.tele {
            m.health.set(health_level(to));
        }
        if from == LinkHealth::Healthy {
            self.telemetry.flight_dump(self.device_id, to.as_str(), now);
        }
    }

    /// Records a link-failure signal (timeout / corrupt response) and
    /// advances the health state machine, possibly into `Outage`.
    fn note_failures(&mut self, failures: u32, now: SimMs) {
        if failures == 0 || !self.config.resilience.enabled {
            return;
        }
        let res = self.config.resilience.clone();
        self.consecutive_timeouts += failures;
        if self.retry_attempt < res.max_retries {
            self.retry_attempt += 1;
            self.retry_pending = true;
            let backoff = (res.retry_backoff_base_ms * 2f64.powi(self.retry_attempt as i32 - 1))
                .min(res.retry_backoff_max_ms);
            self.next_tx_allowed_ms = now + backoff;
        }
        if self.consecutive_timeouts >= res.outage_after_timeouts {
            if self.health != LinkHealth::Outage {
                self.transition_health(LinkHealth::Outage, now);
                self.stats.outages_detected += 1;
                // Whatever is still in flight is presumed lost with the
                // link; waiting for those deadlines tells us nothing new.
                self.pending.clear();
                self.retry_pending = false;
                self.recovery_started_ms = None;
                self.last_probe_ms = f64::NEG_INFINITY;
            }
        } else if self.health == LinkHealth::Healthy {
            self.transition_health(LinkHealth::Degraded, now);
        }
    }

    /// Clears the failure machinery: no timeouts counted, no retry owed,
    /// and transmissions allowed again from `next_tx_allowed_ms`.
    fn reset_retries(&mut self, next_tx_allowed_ms: SimMs) {
        self.consecutive_timeouts = 0;
        self.retry_pending = false;
        self.retry_attempt = 0;
        self.next_tx_allowed_ms = next_tx_allowed_ms;
    }

    /// A usable response arrived: reset the failure machinery, complete a
    /// recovery if one was underway.
    fn note_success(&mut self, now: SimMs) {
        if !self.config.resilience.enabled {
            return;
        }
        self.reset_retries(0.0);
        if self.health == LinkHealth::Recovering {
            self.stats.recoveries += 1;
            if let Some(t0) = self.recovery_started_ms.take() {
                self.stats.recovery_ms_total += now - t0;
            }
        }
        self.transition_health(LinkHealth::Healthy, now);
    }

    /// A degraded-tier response arrived: the mask is usable, so the
    /// failure machinery resets (this is *not* a miss), but it is not the
    /// full model's answer — a recovery in progress stays open until a
    /// tier-0 response completes it (CFRS keeps requesting full-tier
    /// recovery keyframes meanwhile).
    fn note_partial_success(&mut self, now: SimMs) {
        if !self.config.resilience.enabled {
            return;
        }
        self.reset_retries(0.0);
        if self.health == LinkHealth::Degraded {
            self.transition_health(LinkHealth::Healthy, now);
        }
    }

    /// Outstanding requests the device is still actively waiting on
    /// (timed-out ones no longer hold a pipelining slot).
    fn active_pending(&self) -> usize {
        self.pending.iter().filter(|i| !i.timed_out).count()
    }

    /// Emits a device event and bumps its counter, only when telemetry is
    /// on: `args` never runs on the disabled path, which costs one branch.
    fn device_event(
        &self,
        name: &'static str,
        now: SimMs,
        counter: Option<fn(&DeviceMetrics) -> &Counter>,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .emit_event_current(name, self.device_id, now, args());
        if let (Some(m), Some(counter)) = (&self.tele, counter) {
            counter(m).inc();
        }
    }

    /// Deliver phase: drains arrived responses into the tracker (the
    /// `decode_apply` stage), then probes the link during an outage.
    /// Returns the worst (largest round-trip) non-shed response's latency
    /// pair — the per-frame edge-latency observability the serving bench
    /// aggregates — plus arrival/application digests for the conformance
    /// trace.
    fn deliver(&mut self, now: SimMs, stages: &mut StageBreakdownMs) -> Delivered {
        let decode_start = Instant::now();
        let mut delivered = Delivered {
            response_digest: FNV_OFFSET,
            applied_digest: FNV_OFFSET,
            ..Default::default()
        };
        let mut arrived: Vec<(PendingResponse, bool, SimMs)> = Vec::new();
        for mut inf in std::mem::take(&mut self.pending) {
            if let Some(resp) = inf.response.take_if(|r| r.arrive_ms <= now) {
                let late = inf.timed_out || resp.arrive_ms > inf.deadline_ms;
                arrived.push((resp, late, inf.sent_ms));
                continue;
            }
            if now >= inf.deadline_ms && !inf.timed_out {
                // The device gives up on this request: the slot is freed
                // and the failure machinery fires. (Without the policy
                // this reaper is the only fault handling — it keeps a
                // naive pipeline from wedging forever.)
                inf.timed_out = true;
                self.stats.timeouts += 1;
                delivered.failures += 1;
                self.device_event("deadline.missed", now, Some(|m| &m.timeouts), || {
                    vec![
                        ("sent_ms", ArgValue::F64(inf.sent_ms)),
                        ("deadline_ms", ArgValue::F64(inf.deadline_ms)),
                    ]
                });
            }
            if inf.response.is_some() || !inf.timed_out {
                self.pending.push(inf);
            }
        }
        if delivered.failures > 0 {
            // A missed deadline is one of the two automatic dump triggers
            // (the other is leaving `Healthy`): capture the ring while the
            // evidence that led up to the miss is still in it.
            self.telemetry
                .flight_dump(self.device_id, "deadline_missed", now);
        }

        for (resp, late, sent_ms) in arrived {
            if resp.shed {
                // The edge rejected the request for overload; the link is
                // fine, so this is not an outage signal.
                self.stats.shed_responses += 1;
                delivered.shed += 1;
                self.device_event("response.shed", now, Some(|m| &m.shed_responses), Vec::new);
                continue;
            }
            delivered.responses += 1;
            delivered.response_digest = fnv1a64_extend(delivered.response_digest, &resp.payload);
            let round_trip = resp.arrive_ms - sent_ms;
            if delivered
                .response_latency_ms
                .is_none_or(|rt| round_trip > rt)
            {
                delivered.edge_queue_wait_ms = Some(resp.queue_wait_ms);
                delivered.response_latency_ms = Some(round_trip);
            }
            let Ok((frame_id, detections)) = resp.decode() else {
                // The real wire decoder rejected the payload.
                self.stats.corrupt_responses += 1;
                delivered.failures += 1;
                self.device_event(
                    "response.corrupt",
                    now,
                    Some(|m| &m.corrupt_responses),
                    Vec::new,
                );
                continue;
            };
            // A late response would drag the (much newer) local state
            // backwards — discard it, unless the device has no state at
            // all yet: a stale bootstrap annotation still seeds the map,
            // and until the map transfers masks it is what the frame
            // renders (`MobileTracker::held_masks`), which beats
            // rendering nothing.
            if late && self.config.resilience.enabled && self.tracker.initialized() {
                self.stats.stale_drops += 1;
                self.device_event("response.stale", now, Some(|m| &m.stale_drops), || {
                    vec![("round_trip_ms", ArgValue::F64(round_trip))]
                });
                continue;
            }
            delivered.applied_digest = fnv1a64_extend(delivered.applied_digest, &resp.payload);
            delivered.tier = resp.tier;
            delivered.retry_recovered |= self.retry_attempt > 0;
            self.last_applied_ms = Some(now);
            self.tx_since_applied = 0;
            self.tracker
                .apply(frame_id, &detections, self.config.min_confidence);
            self.device_event("response.applied", now, None, || {
                vec![
                    ("frame_id", ArgValue::U64(frame_id)),
                    ("round_trip_ms", ArgValue::F64(round_trip)),
                    ("detections", ArgValue::U64(detections.len() as u64)),
                ]
            });
            if resp.degraded_tier {
                // Zoo routing degraded this request to a smaller tier: the
                // mask re-anchors tracking, so it is a partial success, not
                // a miss.
                self.stats.degraded_tier_responses += 1;
                delivered.degraded_applied = true;
                self.device_event(
                    "response.degraded_tier",
                    now,
                    Some(|m| &m.degraded_tier_responses),
                    || vec![("tier", ArgValue::Str(resp.tier.to_string()))],
                );
                self.note_partial_success(now);
            } else {
                self.note_success(now);
            }
        }

        self.note_failures(delivered.failures, now);
        stages.decode_apply = elapsed_ms(decode_start);
        self.probe_if_outage(now);
        delivered
    }

    /// While in `Outage`: probe the link; on success switch to
    /// `Recovering`, reset the planner and owe a recovery keyframe.
    fn probe_if_outage(&mut self, now: SimMs) {
        if !self.config.resilience.enabled || self.health != LinkHealth::Outage {
            return;
        }
        self.stats.outage_frames += 1;
        if now - self.last_probe_ms < self.config.resilience.probe_interval_ms {
            return;
        }
        self.last_probe_ms = now;
        self.stats.probes_sent += 1;
        let probe =
            self.link
                .transmit_faulty(self.config.resilience.probe_bytes, now, Direction::Uplink);
        if probe.is_some() {
            // The probe got through: the link healed. Re-sync from a
            // clean slate — the planner's triggers were tuned against
            // state that is now minutes stale in link terms.
            self.transition_health(LinkHealth::Recovering, now);
            self.recovery_started_ms = Some(now);
            self.planner = CfrsPlanner::new(*self.planner.config());
            self.recovery_tx_left = self.config.resilience.recovery_keyframes.max(1);
            self.reset_retries(now);
        }
    }

    /// Track phase: the tracker step, the short-horizon fallback, the
    /// lost-object bookkeeping and the outage self-annotation.
    fn track(&mut self, input: &FrameInput<'_>, stages: &mut StageBreakdownMs) -> Tracked {
        let mut tracked = self.tracker.track(input, &mut self.planner, stages);

        // Short-horizon fallback: a single-frame transfer failure should
        // not blank an object the cache knew 1-5 frames ago — render the
        // most recent mask instead (it is at most ~150 ms old).
        let masks = &mut tracked.masks;
        for (label, (seen, mask)) in &self.last_seen {
            let age = input.index.saturating_sub(*seen);
            if (1..=5).contains(&age) && !masks.iter().any(|(l, _)| l == label) {
                masks.push((*label, mask.clone()));
            }
        }

        // Lost-object bookkeeping: an object rendered recently but missing
        // this frame gets a "mask correction" region so the tile plan and
        // the edge's anchors keep covering it (§V triggers transmission
        // for mask correction).
        for (label, mask) in masks.iter() {
            self.last_seen.insert(*label, (input.index, mask.clone()));
        }
        tracked.lost = self
            .last_seen
            .iter()
            .filter(|(label, (seen, _))| {
                let age = input.index.saturating_sub(*seen);
                (1..=90).contains(&age) && !tracked.masks.iter().any(|(l, _)| l == *label)
            })
            .map(|(label, (_, mask))| (*label, mask.clone()))
            .collect();
        if !tracked.lost.is_empty() {
            // A lost object counts as significant change (mask correction).
            tracked.new_area_fraction = 1.0;
        }

        // Outage self-annotation (see `MobileTracker::self_annotate`).
        if self.config.resilience.enabled
            && self.health == LinkHealth::Outage
            && input.index.is_multiple_of(8)
        {
            self.tracker.self_annotate(tracked.frame_id, &tracked.masks);
        }
        tracked
    }

    /// Decide phase: the transmission decision, plus the modeled mobile
    /// compute (ms) it implies. Backpressure: bounded request pipelining
    /// per device plus admission control against the edge queue horizon.
    /// Without this, a shared edge (multi-device deployments) builds an
    /// unbounded FIFO and every response arrives too stale to use. On top
    /// of that, the resilience policy gates offloading: nothing during an
    /// outage or inside a backoff window; owed recovery keyframes and
    /// retries go out before regular planner traffic.
    fn decide(&mut self, index: u64, now: SimMs, tracked: &Tracked) -> (CfrsDecision, f64) {
        // Escalate the bootstrap cadence while two-frame initialization is
        // failing: each failed attempt means the annotated pairs are
        // already too far apart to match, so the planner must offer
        // closer ones (see `CfrsConfig::min_interval_frames`).
        self.planner
            .set_bootstrap_urgency(self.tracker.init_struggling());
        let res = &self.config.resilience;
        let edge_backlogged =
            self.server.busy_until_for(self.device_id) > now + res.edge_backlog_horizon_ms;
        let held = (res.enabled
            && (self.health == LinkHealth::Outage || now < self.next_tx_allowed_ms))
            || self.active_pending() >= res.max_pending
            || edge_backlogged;
        let decision = if held {
            CfrsDecision::Hold
        } else if res.enabled && self.recovery_tx_left > 0 {
            CfrsDecision::Transmit(TransmitReason::Recovery)
        } else if res.enabled && self.retry_pending {
            CfrsDecision::Transmit(TransmitReason::Retry)
        } else if self.config.use_cfrs {
            self.planner
                .decide(index, self.tracker.initialized(), tracked.new_area_fraction)
        } else if self.active_pending() == 0 {
            // Non-CFRS: back-to-back best-effort offloading (a new frame is
            // sent whenever no request is outstanding).
            CfrsDecision::Transmit(TransmitReason::Continuous)
        } else {
            CfrsDecision::Hold
        };
        let transmit = matches!(decision, CfrsDecision::Transmit(_));
        let mobile_ms = self.tracker.frame_ms(&self.config.cost, tracked, transmit);
        (decision, mobile_ms)
    }

    /// Offload phase, on a transmit decision: the `encode` stage (tile
    /// plan, CIIA guidance, encoding), then the `edge_infer` stage (the
    /// edge's observation and the submit at `sent_ms`), then `InFlight`.
    fn offload(
        &mut self,
        input: &FrameInput<'_>,
        decision: &CfrsDecision,
        sent_ms: SimMs,
        tracked: &Tracked,
        frame_ctx: Option<TraceContext>,
        stages: &mut StageBreakdownMs,
    ) -> Offloaded {
        let &CfrsDecision::Transmit(reason) = decision else {
            return Offloaded::default();
        };
        let recovery = reason == TransmitReason::Recovery;
        if recovery {
            self.recovery_tx_left -= 1;
        } else if reason == TransmitReason::Retry {
            self.stats.retries += 1;
        }
        if matches!(reason, TransmitReason::Recovery | TransmitReason::Retry) {
            self.retry_pending = false;
            self.planner.record_transmission(input.index);
        }
        let encode_start = Instant::now();
        let w = self.config.camera.width;
        let h = self.config.camera.height;
        // Lost objects' last known regions are treated as new areas:
        // encoded at medium quality and marked for the anchor grid.
        let mut area_pixels = tracked.new_pixels.clone();
        for (_, mask) in &tracked.lost {
            if let Some((x0, y0, x1, y1)) = mask.bounding_box() {
                let step = self.config.cfrs.tile_size as usize;
                for y in (y0..y1).step_by(step.max(1)) {
                    for x in (x0..x1).step_by(step.max(1)) {
                        area_pixels.push((x as f64, y as f64));
                    }
                }
            }
        }
        let plan = if recovery || !self.config.use_cfrs {
            // Recovery keyframes re-sync the edge from scratch at a
            // uniform quality: the coasted masks are untrustworthy
            // after a blind outage, so any plan that budgets quality
            // around them can anchor the edge onto the wrong regions
            // and never re-converge. Medium rather than high keeps the
            // burst small enough to pipeline on a thin uplink — the
            // round-trip staleness of a high-quality frame costs more
            // accuracy than the encoding quality buys.
            let level = if recovery {
                QualityLevel::Medium
            } else {
                QualityLevel::High
            };
            TilePlan::uniform(TileGrid::new(self.config.cfrs.tile_size, w, h), level)
        } else {
            self.planner.tile_plan(w, h, &tracked.masks, &area_pixels)
        };
        let encoded = encode_with_scratch(&input.frame.image, &plan, &mut self.encode_scratch);
        let counts = plan.level_counts();

        // Periodic / bootstrap / recovery refreshes scan the full frame
        // so objects the mobile cache lost entirely can be rediscovered;
        // guided anchors only cover cached and new regions.
        // Continuous-mode (non-CFRS) transmissions interleave a full
        // scan every 8th request for the same reason.
        self.tx_count += 1;
        self.tx_since_applied = self.tx_since_applied.saturating_add(1);
        let full_scan = matches!(
            reason,
            TransmitReason::Periodic | TransmitReason::Bootstrap | TransmitReason::Recovery
        ) || (reason == TransmitReason::Continuous && self.tx_count % 8 == 1);
        let guidance = (self.config.use_ciia && !full_scan).then(|| {
            self.planner
                .guidance(w, h, &tracked.masks, input.classes, &area_pixels)
        });
        stages.encode = elapsed_ms(encode_start);

        // The edge sees ground-truth labels through the encoding quality
        // of each instance's region. One mask at a time, not
        // `LabelMap::instance_masks`: holding every mask at once here
        // raised perfbench `fleet_zoo`'s peak RSS by 0.2–0.4 MB (heap
        // placement), and one at a time did not.
        let infer_start = Instant::now();
        let labels = &input.frame.labels;
        let obs = FrameObservation {
            labels: labels.clone(),
            classes: input.classes.clone(),
            quality: labels
                .instance_ids()
                .into_iter()
                .map(|id| (id, encoded.instance_quality(&labels.instance_mask(id))))
                .collect(),
        };

        // The request rides the faulty link: it can be lost outright
        // (outage at send time) or arrive mangled — the mobile side
        // learns about either only through the response deadline.
        // Without the policy a naive reaper waits 4x as long: the plain
        // system still shows its characteristic stall under faults
        // without wedging permanently.
        let res = &self.config.resilience;
        let lax = if res.enabled { 1.0 } else { 4.0 };
        let deadline_ms = sent_ms + res.response_deadline_ms * lax;
        // The trace context rides the request as a fixed 40-byte
        // observability envelope (wire.rs) so the edge can parent its
        // queue/inference spans under this frame's trace. Envelope
        // bytes are deliberately NOT charged to tx_bytes: telemetry
        // must not perturb the simulated link (see DESIGN.md §12).
        let envelope =
            frame_ctx.map(|ctx| RequestEnvelope::from_context(&ctx, tracked.frame_id).encode());
        let tx_bytes = encoded.total_bytes();
        let response = match self
            .link
            .transmit_faulty(tx_bytes, sent_ms, Direction::Uplink)
        {
            None => None,
            Some(delivery) if delivery.corrupted => None,
            Some(delivery) => self.server.submit_traced_from(
                self.device_id,
                tracked.frame_id,
                &obs,
                guidance.as_ref().filter(|g| !g.is_empty()),
                delivery.arrive_ms,
                &mut self.link,
                envelope,
                // CFRS demands the full model for recovery keyframes:
                // a degraded-tier mask cannot close out a recovery, so
                // routing may shed but never degrade them. No-op for
                // edges without a zoo.
                recovery.then_some(0),
            ),
        };
        stages.edge_infer = elapsed_ms(infer_start);
        self.pending.push(InFlight {
            sent_ms,
            deadline_ms,
            response,
            timed_out: false,
        });
        Offloaded {
            tx_bytes,
            tile_levels: [counts.0, counts.1, counts.2, counts.3].map(|c| c as u32),
            uplink_digest: digest_uplink(counts, &encoded.tile_bytes),
        }
    }

    /// Label phase: one causal outcome per frame (forensics) and the
    /// frame's conformance trace. Pure observation over state the system
    /// already tracks; the most upstream cause wins (see `FrameOutcome`).
    fn label(
        &mut self,
        now: SimMs,
        tracked: &Tracked,
        delivered: &Delivered,
        decision: &CfrsDecision,
        offloaded: &Offloaded,
    ) -> (FrameOutcome, FrameTrace) {
        let tracking = self.tracker.initialized();
        if !tracking && self.was_tracking {
            // Track loss: owe a re-init window for when the map returns.
            self.reinit_owed = true;
            self.reinit_frames_left = 0;
        } else if tracking && self.reinit_owed {
            self.reinit_owed = false;
            self.reinit_frames_left = REINIT_WINDOW_FRAMES;
        }
        let guidance_age = self.last_applied_ms.map(|t| now - t);
        let outcome = if !tracking && !self.was_tracking {
            FrameOutcome::Bootstrapping
        } else if !tracking {
            FrameOutcome::TrackingLost
        } else if tracking && self.reinit_frames_left > 0 {
            self.reinit_frames_left -= 1;
            FrameOutcome::Reinit
        } else if self.health == LinkHealth::Outage {
            FrameOutcome::CoastingMamt
        } else if delivered.shed > 0 && delivered.applied_digest == FNV_OFFSET {
            FrameOutcome::Shed
        } else if delivered.degraded_applied {
            FrameOutcome::DegradedTier {
                tier: delivered.tier.to_string(),
            }
        } else if delivered.retry_recovered {
            FrameOutcome::RetryRecovered
        } else if self.tx_since_applied > 0
            && guidance_age.is_some_and(|age| age > STALE_GUIDANCE_AFTER_MS)
        {
            FrameOutcome::StaleGuidance {
                age_ms: guidance_age.unwrap_or(0.0),
            }
        } else {
            FrameOutcome::Healthy
        };
        self.was_tracking |= tracking;

        let trace = FrameTrace {
            pose: tracked.pose,
            mask_digest: digest_masks(&tracked.masks),
            mask_count: tracked.masks.len() as u32,
            decision: match decision {
                CfrsDecision::Hold => "hold".to_string(),
                CfrsDecision::Transmit(reason) => format!("transmit:{reason:?}"),
            },
            tile_levels: offloaded.tile_levels,
            uplink_digest: offloaded.uplink_digest,
            responses: delivered.responses,
            response_digest: delivered.response_digest,
            applied_digest: delivered.applied_digest,
            health: self.health.as_str().to_string(),
            tier: delivered.tier.to_string(),
        };
        (outcome, trace)
    }

    /// Mirrors a finished frame into telemetry (stage spans, root span,
    /// metrics, SLO burn), then clears the ambient trace context.
    fn emit_frame_telemetry(
        &mut self,
        ctx: TraceContext,
        index: u64,
        now: SimMs,
        out: &FrameOutput,
        delivered: &Delivered,
    ) {
        // Mobile stage spans: host-wall durations laid out end-to-end
        // from the frame's virtual arrival time (marked clock:"host" —
        // they show relative cost, not simulated latency).
        let stages = &out.stages;
        let mut cursor = now;
        for (name, dur) in [
            ("mobile.decode_apply", stages.decode_apply),
            ("mobile.detect", stages.detect),
            ("mobile.matching", stages.matching),
            ("mobile.ba", stages.ba),
            ("mobile.transfer", stages.transfer),
            ("mobile.encode", stages.encode),
            ("mobile.edge_submit", stages.edge_infer),
        ] {
            if dur > 0.0 {
                self.telemetry.emit_child_span(
                    &ctx,
                    name,
                    cursor,
                    cursor + dur,
                    vec![("clock", ArgValue::Str("host".to_string()))],
                );
                cursor += dur;
            }
        }
        // Root span: the frame's modeled mobile residency on the
        // virtual clock.
        self.telemetry.emit_root_span(
            &ctx,
            "frame",
            now,
            now + out.mobile_ms,
            vec![
                ("frame", ArgValue::U64(index)),
                ("decision", ArgValue::Str(out.trace.decision.clone())),
                ("health", ArgValue::Str(self.health.as_str().to_string())),
                ("tx_bytes", ArgValue::U64(out.tx_bytes as u64)),
            ],
        );
        if let Some(m) = &self.tele {
            m.frames.inc();
            if out.transmitted {
                m.transmits.inc();
                m.tx_bytes.add(out.tx_bytes as u64);
            }
            m.mobile_ms.observe(out.mobile_ms);
            if let Some(qw) = delivered.edge_queue_wait_ms {
                m.queue_wait_ms.observe(qw);
            }
            if let Some(rt) = delivered.response_latency_ms {
                m.response_latency_ms.observe(rt);
            }
            m.health.set(health_level(self.health));
        }
        // SLO burn-rate engine: classify the frame good/bad against
        // the per-event SLO and feed the multi-window tracker. The
        // fast-window burn is exported as a gauge (autoscaler input);
        // entering the alerting state emits one edge-triggered
        // `slo.burn` event per episode.
        if let Some(burn) = &mut self.burn {
            // A frame is "bad" when its service SLO was missed: a
            // request failed or was shed, the link was out, a
            // response arrived past the latency bar, or the frame was
            // rendered from guidance older than the freshness bar
            // (the forensic outcome already encodes the last two
            // causes as staleness/coasting).
            let bad = delivered.failures > 0
                || delivered.shed > 0
                || self.health == LinkHealth::Outage
                || matches!(
                    out.outcome,
                    FrameOutcome::StaleGuidance { .. } | FrameOutcome::CoastingMamt
                )
                || delivered
                    .response_latency_ms
                    .is_some_and(|rt| rt > burn.config().latency_slo_ms);
            let sample = burn.observe(now, !bad);
            if let Some(m) = &self.tele {
                m.burn_rate.set(sample.fast_burn);
            }
            if sample.fired {
                self.telemetry.emit_event_current(
                    "slo.burn",
                    self.device_id,
                    now,
                    vec![
                        ("fast_burn", ArgValue::F64(sample.fast_burn)),
                        ("slow_burn", ArgValue::F64(sample.slow_burn)),
                        ("outcome", ArgValue::Str(out.outcome.label().to_string())),
                    ],
                );
                // A budget fire is a resilience incident: capture the
                // span/event ring while the cause is still in it.
                self.telemetry.flight_dump(self.device_id, "slo_burn", now);
            }
        }
        self.telemetry.clear_current();
    }
}

impl SegmentationSystem for EdgeIsSystem {
    fn name(&self) -> &'static str {
        self.name
    }

    fn process_frame(&mut self, input: &FrameInput<'_>, now: SimMs) -> FrameOutput {
        // One trace per (device, frame): deterministic id so edge-side
        // spans decoded from the wire envelope land on the same trace the
        // mobile opened here. The ambient current-context also parents
        // link transfer spans and delivery/health events emitted below.
        let frame_ctx = self.telemetry.frame_context(
            crate::hash::trace_id(self.device_id, input.index),
            self.device_id,
        );
        if let Some(ctx) = frame_ctx {
            self.telemetry.set_current(ctx);
        }

        let mut stages = StageBreakdownMs::default();
        let delivered = self.deliver(now, &mut stages);
        let mut tracked = self.track(input, &mut stages);
        let (decision, mobile_ms) = self.decide(input.index, now, &tracked);
        let sent_ms = now + mobile_ms;
        let offloaded = self.offload(input, &decision, sent_ms, &tracked, frame_ctx, &mut stages);
        self.ledger.record_frame(now, mobile_ms, offloaded.tx_bytes);
        // Every phase that acts on the masks has run: from here on they
        // are only rendered and traced, so a frame with nothing to show
        // shows the last edge answer (see `MobileTracker::held_masks`).
        if tracked.masks.is_empty() {
            tracked.masks = self.tracker.held_masks();
        }
        let (outcome, trace) = self.label(now, &tracked, &delivered, &decision, &offloaded);

        let out = FrameOutput {
            masks: tracked.masks,
            mobile_ms,
            tx_bytes: offloaded.tx_bytes,
            transmitted: matches!(decision, CfrsDecision::Transmit(_)),
            stages,
            edge_queue_wait_ms: delivered.edge_queue_wait_ms,
            response_latency_ms: delivered.response_latency_ms,
            trace,
            outcome,
        };
        if let Some(ctx) = frame_ctx {
            self.emit_frame_telemetry(ctx, input.index, now, &out, &delivered);
        }
        out
    }

    fn resources(&self) -> Option<&ResourceLedger> {
        Some(&self.ledger)
    }

    fn resilience_stats(&self) -> Option<&ResilienceStats> {
        Some(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeis_segnet::BBox;

    #[test]
    fn label_map_paints_by_confidence() {
        let mut m1 = Mask::new(10, 10);
        m1.fill_rect(0, 0, 6, 6);
        let mut m2 = Mask::new(10, 10);
        m2.fill_rect(3, 3, 6, 6);
        let detections = vec![
            WireDetection {
                instance: 1,
                class_id: 0,
                confidence: 0.9,
                bbox: BBox::new(0.0, 0.0, 6.0, 6.0),
                mask: m1,
            },
            WireDetection {
                instance: 2,
                class_id: 1,
                confidence: 0.6,
                bbox: BBox::new(3.0, 3.0, 9.0, 9.0),
                mask: m2,
            },
        ];
        let lm = label_map_from_detections(10, 10, &detections);
        // Contested pixel (4,4) goes to the higher-confidence instance 1.
        assert_eq!(lm.get(4, 4), 1);
        assert_eq!(lm.get(8, 8), 2);
        assert_eq!(lm.get(0, 0), 1);
        assert_eq!(lm.get(9, 0), 0);
    }

    #[test]
    fn failure_signals_walk_the_state_machine() {
        let camera = Camera::with_hfov(1.2, 64, 48);
        let mut sys = EdgeIsSystem::new(EdgeIsConfig::full(camera, 9), LinkKind::Wifi5);
        assert_eq!(sys.health(), LinkHealth::Healthy);
        sys.note_failures(1, 100.0);
        assert_eq!(sys.health(), LinkHealth::Degraded);
        assert!(sys.retry_pending);
        assert!(sys.next_tx_allowed_ms > 100.0);
        sys.note_failures(1, 200.0);
        assert_eq!(sys.health(), LinkHealth::Outage);
        assert_eq!(sys.stats.outages_detected, 1);
        assert!(!sys.retry_pending, "outage cancels pending retries");
        // A good response from a probe-triggered recovery closes the loop.
        sys.health = LinkHealth::Recovering;
        sys.recovery_started_ms = Some(300.0);
        sys.note_success(450.0);
        assert_eq!(sys.health(), LinkHealth::Healthy);
        assert_eq!(sys.stats.recoveries, 1);
        assert!((sys.stats.recovery_ms_total - 150.0).abs() < 1e-9);
    }

    #[test]
    fn backoff_grows_and_is_capped() {
        let camera = Camera::with_hfov(1.2, 64, 48);
        let mut cfg = EdgeIsConfig::full(camera, 9);
        cfg.resilience.max_retries = 10;
        cfg.resilience.retry_backoff_base_ms = 100.0;
        cfg.resilience.retry_backoff_max_ms = 350.0;
        cfg.resilience.outage_after_timeouts = 100; // keep out of Outage
        let mut sys = EdgeIsSystem::new(cfg, LinkKind::Wifi5);
        sys.note_failures(1, 0.0);
        assert!((sys.next_tx_allowed_ms - 100.0).abs() < 1e-9);
        sys.note_failures(1, 0.0);
        assert!((sys.next_tx_allowed_ms - 200.0).abs() < 1e-9);
        sys.note_failures(1, 0.0);
        assert!((sys.next_tx_allowed_ms - 350.0).abs() < 1e-9, "capped");
    }
}
