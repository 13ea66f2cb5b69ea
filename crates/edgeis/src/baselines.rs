//! The comparison systems of §VI-B: pure on-device inference, best-effort
//! edge offloading, and the retrofitted EAAR / EdgeDuet "track+detect"
//! systems (their trackers update the *contour/mask* instead of boxes, as
//! the paper's evaluation does).

use crate::cost::MobileCostModel;
use crate::edge::PendingResponse;
use crate::resources::{ResourceConfig, ResourceLedger};
use crate::serving::{ServingConfig, ServingRuntime};
use crate::system::{FrameInput, FrameOutput, SegmentationSystem};
use edgeis_codec::{encode, QualityLevel, TileGrid, TilePlan};
use edgeis_geometry::Camera;
use edgeis_imaging::{CorrelationTracker, GrayImage, Mask, MotionVectorField};
use edgeis_netsim::{Direction, Link, LinkKind, SimMs};
use edgeis_segnet::{EdgeModel, FrameObservation, ModelKind};
use std::collections::BTreeMap;

/// Translates a mask by integer pixel offsets (content clipped at edges).
pub(crate) fn translate_mask(mask: &Mask, dx: i64, dy: i64) -> Mask {
    let mut out = Mask::new(mask.width(), mask.height());
    for (x, y) in mask.iter_set() {
        out.set_checked(x as i64 + dx, y as i64 + dy, true);
    }
    out
}

/// Builds a pristine full-quality observation of a frame.
fn pristine_observation(input: &FrameInput<'_>) -> FrameObservation {
    FrameObservation::pristine(input.frame.labels.clone(), input.classes.clone())
}

/// Builds an observation whose per-instance quality follows a tile plan.
fn observed_through(
    input: &FrameInput<'_>,
    encoded: &edgeis_codec::EncodedFrame,
) -> FrameObservation {
    let mut quality = BTreeMap::new();
    for (id, gt) in input.frame.labels.instance_masks() {
        quality.insert(id, encoded.instance_quality(&gt));
    }
    FrameObservation {
        labels: input.frame.labels.clone(),
        classes: input.classes.clone(),
        quality,
    }
}

// ---------------------------------------------------------------------------
// Pure mobile
// ---------------------------------------------------------------------------

/// Pure on-device inference: a compressed model runs on the phone; each
/// frame renders the most recently *completed* result, which is inherently
/// several hundred milliseconds stale (Fig. 9's worst baseline).
pub struct PureMobileSystem {
    model: EdgeModel,
    running: Option<(SimMs, Vec<(u16, Mask)>)>,
    current: Vec<(u16, Mask)>,
    ledger: ResourceLedger,
}

impl PureMobileSystem {
    /// Creates the baseline for a camera.
    pub fn new(camera: Camera, seed: u64) -> Self {
        Self {
            model: EdgeModel::new(ModelKind::MobileLite, camera.width, camera.height, seed),
            running: None,
            current: Vec::new(),
            ledger: ResourceLedger::new(ResourceConfig::default()),
        }
    }
}

impl SegmentationSystem for PureMobileSystem {
    fn name(&self) -> &'static str {
        "pure-mobile"
    }

    fn process_frame(&mut self, input: &FrameInput<'_>, now: SimMs) -> FrameOutput {
        if let Some((done, masks)) = &self.running {
            if now >= *done {
                self.current = masks.clone();
                self.running = None;
            }
        }
        if self.running.is_none() {
            let obs = pristine_observation(input);
            let result = self.model.infer(&obs, None);
            let masks = result
                .detections
                .into_iter()
                .map(|d| (d.instance, d.mask))
                .collect();
            self.running = Some((now + result.stats.total_ms(), masks));
        }
        // The DL model saturates the device; rendering shares what's left.
        let mobile_ms = 1000.0 / 30.0;
        self.ledger.record_frame(now, mobile_ms, 0);
        FrameOutput {
            masks: self.current.clone(),
            mobile_ms,
            tx_bytes: 0,
            transmitted: false,
            stages: Default::default(),
            ..Default::default()
        }
    }

    fn resources(&self) -> Option<&ResourceLedger> {
        Some(&self.ledger)
    }
}

/// The paper's serial FIFO edge serving one baseline device.
fn serial_edge(camera: Camera, seed: u64) -> ServingRuntime {
    let model = EdgeModel::new(ModelKind::MaskRcnn, camera.width, camera.height, seed);
    ServingRuntime::new(model, seed, ServingConfig::serial_fifo())
}

// ---------------------------------------------------------------------------
// EAAR
// ---------------------------------------------------------------------------

/// EAAR (Liu et al.) retrofitted for segmentation: keyframes offloaded with
/// motion-vector-predicted RoI encoding, local motion-vector mask tracking,
/// and arrival-time displacement correction.
pub struct EaarSystem {
    camera: Camera,
    cost: MobileCostModel,
    link: Link,
    server: ServingRuntime,
    /// Pending responses with the global displacement at send time.
    pending: Vec<(PendingResponse, (f64, f64))>,
    prev_image: Option<GrayImage>,
    cached: Vec<(u16, Mask)>,
    accum_disp: (f64, f64),
    tile_size: u32,
    min_confidence: f64,
    ledger: ResourceLedger,
}

impl EaarSystem {
    /// Creates the EAAR baseline.
    pub fn new(camera: Camera, link_kind: LinkKind, seed: u64) -> Self {
        Self {
            camera,
            cost: MobileCostModel::default(),
            link: Link::of_kind(link_kind, seed ^ 0x33),
            server: serial_edge(camera, seed ^ 0x44),
            pending: Vec::new(),
            prev_image: None,
            cached: Vec::new(),
            accum_disp: (0.0, 0.0),
            tile_size: 32,
            min_confidence: 0.5,
            ledger: ResourceLedger::new(ResourceConfig::default()),
        }
    }
}

impl SegmentationSystem for EaarSystem {
    fn name(&self) -> &'static str {
        "EAAR"
    }

    fn process_frame(&mut self, input: &FrameInput<'_>, now: SimMs) -> FrameOutput {
        // Local MV tracking: each cached contour is shifted by the mean
        // motion vector of its region (shape-preserving, as EAAR updates
        // contours from codec motion vectors).
        if let Some(prev) = &self.prev_image {
            let field = MotionVectorField::estimate(prev, &input.frame.image, 16, 12);
            let (mx, my) = field.mean_vector();
            self.accum_disp.0 += mx;
            self.accum_disp.1 += my;
            for (_, mask) in &mut self.cached {
                let (ox, oy) = field.mean_vector_in(mask);
                *mask = translate_mask(mask, ox.round() as i64, oy.round() as i64);
            }
        }
        self.prev_image = Some(input.frame.image.clone());

        // Deliver responses, correcting for motion since the keyframe.
        let accum = self.accum_disp;
        let min_conf = self.min_confidence;
        let (ready, later): (Vec<_>, Vec<_>) = self
            .pending
            .drain(..)
            .partition(|(p, _)| p.arrive_ms <= now);
        self.pending = later;
        for (resp, disp_at_send) in ready {
            // Responses come back wire-encoded; undecodable ones (fault
            // injection) are dropped on the floor — EAAR has no retry.
            let Ok((_, detections)) = resp.decode() else {
                continue;
            };
            let dx = (accum.0 - disp_at_send.0).round() as i64;
            let dy = (accum.1 - disp_at_send.1).round() as i64;
            self.cached = detections
                .iter()
                .filter(|d| d.confidence >= min_conf)
                .map(|d| (d.instance, translate_mask(&d.mask, dx, dy)))
                .collect();
        }

        // Keyframe offload when idle.
        let transmit = self.pending.is_empty();
        let mobile_ms = self.cost.mv_frame_ms(self.cached.len(), transmit, 14.0);
        let mut tx_bytes = 0;
        if transmit {
            // RoI-aware encoding: tiles under (coarse, dilated) predicted
            // masks high, rest low.
            let grid = TileGrid::new(self.tile_size, self.camera.width, self.camera.height);
            let mut plan = TilePlan::uniform(grid, QualityLevel::Low);
            for (_, mask) in &self.cached {
                plan.raise(&grid.tiles_touching(&mask.dilate(4)), QualityLevel::High);
            }
            if self.cached.is_empty() {
                plan = TilePlan::uniform(grid, QualityLevel::High);
            }
            let encoded = encode(&input.frame.image, &plan);
            tx_bytes = encoded.total_bytes();
            let obs = observed_through(input, &encoded);
            let arrival = self
                .link
                .transmit(tx_bytes, now + mobile_ms, Direction::Uplink);
            let resp = self
                .server
                .submit(0, input.index, &obs, None, arrival, &mut self.link);
            if let Some(resp) = resp {
                self.pending.push((resp, self.accum_disp));
            }
        }

        self.ledger.record_frame(now, mobile_ms, tx_bytes);
        FrameOutput {
            masks: self.cached.clone(),
            mobile_ms,
            tx_bytes,
            transmitted: transmit,
            stages: Default::default(),
            ..Default::default()
        }
    }

    fn resources(&self) -> Option<&ResourceLedger> {
        Some(&self.ledger)
    }
}

// ---------------------------------------------------------------------------
// EdgeDuet
// ---------------------------------------------------------------------------

/// EdgeDuet retrofitted for segmentation: tile-level offloading that keeps
/// *small* objects in high resolution (the paper notes this harms large
/// objects), with per-object KCF-style correlation tracking locally.
pub struct EdgeDuetSystem {
    camera: Camera,
    cost: MobileCostModel,
    link: Link,
    server: ServingRuntime,
    pending: Vec<PendingResponse>,
    /// Per object: tracker, the response mask and the box position the
    /// mask was cached at.
    tracked: Vec<(u16, CorrelationTracker, Mask, (i64, i64))>,
    tile_size: u32,
    small_object_area: usize,
    min_confidence: f64,
    ledger: ResourceLedger,
}

impl EdgeDuetSystem {
    /// Creates the EdgeDuet baseline.
    pub fn new(camera: Camera, link_kind: LinkKind, seed: u64) -> Self {
        Self {
            camera,
            cost: MobileCostModel::default(),
            link: Link::of_kind(link_kind, seed ^ 0x55),
            server: serial_edge(camera, seed ^ 0x66),
            pending: Vec::new(),
            tracked: Vec::new(),
            tile_size: 32,
            small_object_area: 2500,
            min_confidence: 0.5,
            ledger: ResourceLedger::new(ResourceConfig::default()),
        }
    }
}

impl SegmentationSystem for EdgeDuetSystem {
    fn name(&self) -> &'static str {
        "EdgeDuet"
    }

    fn process_frame(&mut self, input: &FrameInput<'_>, now: SimMs) -> FrameOutput {
        // Update KCF trackers and derive current masks.
        let mut masks = Vec::new();
        for (label, tracker, mask, origin) in &mut self.tracked {
            tracker.update(&input.frame.image);
            let dx = tracker.x - origin.0;
            let dy = tracker.y - origin.1;
            masks.push((*label, translate_mask(mask, dx, dy)));
        }

        // Deliver responses: rebuild trackers from fresh detections.
        let min_conf = self.min_confidence;
        let (ready, later): (Vec<_>, Vec<_>) =
            self.pending.drain(..).partition(|p| p.arrive_ms <= now);
        self.pending = later;
        for resp in ready {
            // Wire-decode; corrupted responses are silently dropped
            // (EdgeDuet has no resilience policy).
            let Ok((_, detections)) = resp.decode() else {
                continue;
            };
            self.tracked.clear();
            for d in detections.iter().filter(|d| d.confidence >= min_conf) {
                let x = d.bbox.x0.max(0.0) as u32;
                let y = d.bbox.y0.max(0.0) as u32;
                let w = ((d.bbox.x1 - d.bbox.x0) as u32).clamp(8, 48);
                let h = ((d.bbox.y1 - d.bbox.y0) as u32).clamp(8, 48);
                let tracker = CorrelationTracker::new(&input.frame.image, x, y, w, h, 10);
                self.tracked
                    .push((d.instance, tracker, d.mask.clone(), (x as i64, y as i64)));
            }
        }

        let transmit = self.pending.is_empty();
        let mobile_ms = self.cost.kcf_frame_ms(self.tracked.len(), transmit, 18.0);
        let mut tx_bytes = 0;
        if transmit {
            // Tile plan: small objects high, large objects medium, rest low.
            let grid = TileGrid::new(self.tile_size, self.camera.width, self.camera.height);
            let mut plan = TilePlan::uniform(grid, QualityLevel::Low);
            for (_, mask) in &masks {
                let level = if mask.area() <= self.small_object_area {
                    QualityLevel::High
                } else {
                    QualityLevel::Medium
                };
                plan.raise(&grid.tiles_touching(&mask.dilate(2)), level);
            }
            if masks.is_empty() {
                plan = TilePlan::uniform(grid, QualityLevel::High);
            }
            let encoded = encode(&input.frame.image, &plan);
            tx_bytes = encoded.total_bytes();
            let obs = observed_through(input, &encoded);
            let arrival = self
                .link
                .transmit(tx_bytes, now + mobile_ms, Direction::Uplink);
            let resp = self
                .server
                .submit(0, input.index, &obs, None, arrival, &mut self.link);
            if let Some(resp) = resp {
                self.pending.push(resp);
            }
        }

        self.ledger.record_frame(now, mobile_ms, tx_bytes);
        FrameOutput {
            masks,
            mobile_ms,
            tx_bytes,
            transmitted: transmit,
            stages: Default::default(),
            ..Default::default()
        }
    }

    fn resources(&self) -> Option<&ResourceLedger> {
        Some(&self.ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_clips_at_edges() {
        let mut m = Mask::new(10, 10);
        m.fill_rect(7, 7, 3, 3);
        let t = translate_mask(&m, 2, 2);
        assert_eq!(t.area(), 1); // only (9,9) survives
        assert!(t.get(9, 9));
        let back = translate_mask(&m, -7, -7);
        assert_eq!(back.area(), 9);
        assert!(back.get(0, 0));
    }

    #[test]
    fn translate_zero_is_identity() {
        let mut m = Mask::new(8, 8);
        m.fill_rect(2, 3, 4, 2);
        assert_eq!(translate_mask(&m, 0, 0), m);
    }
}
