//! The visual-odometry state machine tying together initialization,
//! motion tracking, mask-assisted mapping and mask prediction (§III).

use crate::frame::{FrameStore, ProcessedFrame};
use crate::map::Map;
use crate::objects::TrackedObject;
use crate::transfer::{transfer_mask, DepthAnchor, TransferConfig};
use edgeis_geometry::{
    essential_from_fundamental, fundamental_eight_point, ransac, recover_pose, refine_pose,
    sampson_distance, triangulate_dlt, BaConfig, Camera, Observation, RansacConfig, Vec2, SE3,
};
use edgeis_imaging::{
    detect_orb_with_scratch, match_descriptors, LabelMap, Mask, MatchConfig, OrbConfig, OrbScratch,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Configuration of the whole VO stack.
#[derive(Debug, Clone)]
pub struct VoConfig {
    /// Feature detection parameters.
    pub orb: OrbConfig,
    /// Descriptor matching parameters (frame-to-frame: initialization and
    /// new-point triangulation).
    pub matching: MatchConfig,
    /// Descriptor matching parameters against the map. More permissive
    /// than frame-to-frame matching: the projection gate (guided search
    /// window) removes aliases that a ratio/cross-check test would
    /// otherwise have to catch, so recall can be prioritized. Two-frame
    /// initialization retries with these parameters when strict matching
    /// finds fewer than `min_init_matches` pairs.
    pub map_matching: MatchConfig,
    /// RANSAC parameters for two-frame initialization.
    pub ransac: RansacConfig,
    /// Bundle-adjustment parameters (camera and per-object pose).
    pub ba: BaConfig,
    /// Mask-transfer parameters (k-nearest depth, contour budget).
    pub transfer: TransferConfig,
    /// Minimum feature matches to attempt initialization.
    pub min_init_matches: usize,
    /// Minimum median pixel parallax between the two init frames.
    pub min_init_parallax: f64,
    /// Minimum matched background points for a trusted camera pose.
    pub min_tracked_points: usize,
    /// Frames retained for late-arriving edge results.
    pub frame_store_capacity: usize,
    /// Map size cap enforced by the clearing algorithm.
    pub max_map_points: usize,
    /// Minimum ray parallax (radians) for triangulating a new map point;
    /// below this the depth is unconstrained and the point would poison
    /// bundle adjustment.
    pub min_triangulation_angle: f64,
    /// Apply the §III-A feature-selection filter (blur + spacing checks,
    /// mask-edge preservation) at initialization. The paper thins
    /// thousands of OpenCV ORB features; with this implementation's
    /// 500-feature budget additional thinning usually costs accuracy, so
    /// it defaults to off.
    pub init_feature_selection: bool,
    /// Half-width of the projection-guided matching window, in pixels *at
    /// a 320-wide frame*; scaled linearly with image width at runtime. The
    /// same camera motion moves projections twice as many pixels at
    /// 640×480 as at 320×240, so an absolute window that re-locks tracking
    /// at one resolution starves it at another. Expressed relative to the
    /// 320-px reference so the legacy value (48) is applied *exactly* at
    /// the resolution every committed golden was recorded at.
    pub projection_gate_px_at_320: f64,
    /// Consecutive pose-less frames tolerated in the tracking state before
    /// the engine declares the map lost and re-enters initialization.
    /// Fast ego-motion can move every map-point projection outside the
    /// guided-search window; once that happens `last_pose` is stale and no
    /// later frame can re-lock, so without a reset the device predicts
    /// from dead annotations forever (ORB-SLAM relocalizes from a keyframe
    /// database here; this implementation re-bootstraps, which the edge
    /// makes cheap: losing the map flips CFRS back to its bootstrap
    /// cadence and two annotated frames rebuild it).
    pub track_loss_reset_frames: usize,
}

impl Default for VoConfig {
    fn default() -> Self {
        Self {
            orb: OrbConfig::default(),
            matching: MatchConfig::default(),
            map_matching: MatchConfig {
                max_distance: 80,
                ratio: 0.85,
                cross_check: false,
            },
            ransac: RansacConfig {
                max_iterations: 150,
                inlier_threshold: 2.0,
                confidence: 0.999,
                seed: 0x0edf,
            },
            ba: BaConfig::default(),
            transfer: TransferConfig::default(),
            min_init_matches: 30,
            min_init_parallax: 6.0,
            min_tracked_points: 8,
            frame_store_capacity: 60,
            max_map_points: 4000,
            min_triangulation_angle: 0.015,
            init_feature_selection: false,
            projection_gate_px_at_320: 48.0,
            track_loss_reset_frames: 12,
        }
    }
}

/// Errors from applying edge annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VoError {
    /// The referenced frame has been evicted from (or never entered) the
    /// frame store.
    UnknownFrame {
        /// The frame id requested.
        frame_id: u64,
    },
    /// The frame exists but was never successfully tracked, so annotations
    /// cannot be anchored to a pose.
    FrameNotTracked {
        /// The frame id requested.
        frame_id: u64,
    },
}

impl std::fmt::Display for VoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownFrame { frame_id } => {
                write!(f, "frame {frame_id} is not in the frame store")
            }
            Self::FrameNotTracked { frame_id } => {
                write!(f, "frame {frame_id} has no pose estimate")
            }
        }
    }
}

impl std::error::Error for VoError {}

/// Outcome of [`VisualOdometry::apply_edge_masks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnotationOutcome {
    /// Stored as the first initialization frame; waiting for a second.
    PendingInitialization,
    /// The map was bootstrapped with this many points.
    Initialized {
        /// Number of triangulated map points.
        map_points: usize,
    },
    /// Map labels refreshed; this many new points were triangulated.
    Updated {
        /// Newly added map points.
        new_points: usize,
    },
}

/// Per-object tracking info exposed each frame.
#[derive(Debug, Clone)]
pub struct ObjectTrack {
    /// Instance label.
    pub label: u16,
    /// Predicted mask in the current frame, if transfer succeeded.
    pub mask: Option<Mask>,
    /// The object's world motion since its map points were created
    /// (`D = T_cw⁻¹ · T_co`, Eq. 6) — identity for static objects.
    pub world_motion: Option<SE3>,
    /// Matched map points supporting this object this frame.
    pub matched_points: usize,
}

/// Output of processing one camera frame.
#[derive(Debug, Clone)]
pub struct TrackOutput {
    /// Frame id (use it to apply late edge results).
    pub frame_id: u64,
    /// Estimated camera pose, if tracking succeeded.
    pub pose: Option<SE3>,
    /// Per-object tracking results (mask prediction, motion).
    pub objects: Vec<ObjectTrack>,
    /// Fraction of matched features whose map point has never been
    /// covered by an edge annotation — the §V "new area" trigger input
    /// (the paper's features "matched with unlabeled points").
    pub new_area_fraction: f64,
    /// Pixels of features matched to unannotated points; CFRS marks these
    /// regions as new areas (the yellow points of Fig. 8b).
    pub unlabeled_feature_pixels: Vec<(f64, f64)>,
    /// Total features detected.
    pub features: usize,
    /// Features matched to the map.
    pub matches: usize,
    /// Matched features whose map point is background (drives the camera
    /// pose solve).
    pub background_matches: usize,
    /// Wall-clock spent in ORB detection this frame (milliseconds).
    pub detect_ms: f64,
    /// Wall-clock spent matching against the map (milliseconds).
    pub match_ms: f64,
    /// Wall-clock spent in camera-pose bundle adjustment (milliseconds).
    pub ba_ms: f64,
    /// Wall-clock spent on per-object pose + mask transfer (milliseconds).
    pub transfer_ms: f64,
}

impl TrackOutput {
    /// Convenience: the predicted mask for a label.
    pub fn mask_for(&self, label: u16) -> Option<&Mask> {
        self.objects
            .iter()
            .find(|o| o.label == label)
            .and_then(|o| o.mask.as_ref())
    }
}

/// Internal reasons two-frame initialization can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InitFailure {
    /// One of the frames was evicted from the store.
    FrameGone,
    /// Not enough descriptor matches between the pair.
    TooFewMatches,
    /// Matches exist but the median parallax is below the threshold.
    LowParallax,
    /// RANSAC / pose recovery / triangulation failed.
    Degenerate,
}

#[derive(Debug, Clone)]
enum VoState {
    AwaitingInit { pending: Option<(u64, LabelMap)> },
    Tracking,
}

/// The visual-odometry engine (one per mobile device).
#[derive(Debug)]
pub struct VisualOdometry {
    camera: Camera,
    config: VoConfig,
    map: Map,
    frames: FrameStore,
    objects: BTreeMap<u16, TrackedObject>,
    state: VoState,
    last_pose: SE3,
    last_annotated: Option<u64>,
    next_frame_id: u64,
    consecutive_untracked: usize,
    relocalizations: usize,
    init_restarts: usize,
    orb_scratch: OrbScratch,
}

impl VisualOdometry {
    /// Creates an engine for a camera.
    pub fn new(camera: Camera, config: VoConfig) -> Self {
        let capacity = config.frame_store_capacity;
        Self {
            camera,
            config,
            map: Map::new(),
            frames: FrameStore::new(capacity),
            objects: BTreeMap::new(),
            state: VoState::AwaitingInit { pending: None },
            last_pose: SE3::identity(),
            last_annotated: None,
            next_frame_id: 0,
            consecutive_untracked: 0,
            relocalizations: 0,
            init_restarts: 0,
            orb_scratch: OrbScratch::default(),
        }
    }

    /// How many times tracking was lost and the map rebuilt from scratch.
    pub fn relocalizations(&self) -> usize {
        self.relocalizations
    }

    /// Whether two-frame initialization is failing to match or solve
    /// geometry across the annotated pairs it is offered. Low-parallax
    /// pairs do not count — those just need more baseline, which more
    /// frames at the normal cadence provide; a matching or geometry
    /// failure means the pair spacing is already too wide, and the CFRS
    /// planner should offer *closer* pairs (every-frame bootstrap).
    pub fn init_struggling(&self) -> bool {
        self.init_restarts > 0
    }

    /// Peak detector-scratch footprint in bytes — the allocation proxy
    /// reported by the perf harness.
    pub fn scratch_peak_bytes(&self) -> usize {
        self.orb_scratch.peak_bytes()
    }

    /// Whether the map is initialized and tracking.
    pub fn is_tracking(&self) -> bool {
        matches!(self.state, VoState::Tracking)
    }

    /// The labeled map (for inspection / metrics).
    pub fn map(&self) -> &Map {
        &self.map
    }

    /// Currently tracked objects.
    pub fn objects(&self) -> impl Iterator<Item = &TrackedObject> {
        self.objects.values()
    }

    /// The camera model in use.
    pub fn camera(&self) -> &Camera {
        &self.camera
    }

    /// Processes a camera frame: extracts features, tracks the device and
    /// object poses, and predicts instance masks (the per-frame mobile-side
    /// work of Fig. 5).
    pub fn process_frame(&mut self, image: &edgeis_imaging::GrayImage, time: f64) -> TrackOutput {
        let frame_id = self.next_frame_id;
        self.next_frame_id += 1;

        let detect_start = Instant::now();
        let (keypoints, descriptors) =
            detect_orb_with_scratch(image, &self.config.orb, &mut self.orb_scratch);
        let detect_ms = detect_start.elapsed().as_secs_f64() * 1e3;
        let mut frame = ProcessedFrame::new(frame_id, time, keypoints, descriptors);
        let features = frame.len();

        let mut output = TrackOutput {
            frame_id,
            pose: None,
            objects: Vec::new(),
            new_area_fraction: 1.0,
            unlabeled_feature_pixels: Vec::new(),
            features,
            matches: 0,
            background_matches: 0,
            detect_ms,
            match_ms: 0.0,
            ba_ms: 0.0,
            transfer_ms: 0.0,
        };

        if matches!(self.state, VoState::Tracking) && !self.map.is_empty() && features > 0 {
            let match_start = Instant::now();
            let map_descs = self.map.descriptors();
            let mut matches =
                match_descriptors(&frame.descriptors, &map_descs, &self.config.map_matching);
            // Projection-guided gating: with repetitive real-world texture,
            // brute-force Hamming matching aliases. A match is only kept if
            // the feature lies near the point's projection under the motion
            // prediction (the previous pose), like ORB-SLAM's guided search
            // window.
            // `width/320` is exactly 1.0 at the legacy resolution, so the
            // gate stays bit-identical to the original fixed 48 px there.
            let gate = self.config.projection_gate_px_at_320 * (self.camera.width as f64 / 320.0);
            matches.retain(|m| {
                let p = self.map.point(m.train_idx).position;
                match self.camera.project(&self.last_pose, p) {
                    Some(px) => {
                        let kp = &frame.keypoints[m.query_idx];
                        (px.x - kp.x).abs() < gate && (px.y - kp.y).abs() < gate
                    }
                    None => false,
                }
            });
            output.match_ms = match_start.elapsed().as_secs_f64() * 1e3;
            output.matches = matches.len();
            for m in &matches {
                // Persist the stable point *id*, not the index: cleanup
                // shifts indices.
                frame.map_matches[m.query_idx] = Some(self.map.point(m.train_idx).id);
                self.map.record_observation(m.train_idx, frame_id);
            }

            // Camera pose from background points (Eq. 4).
            let bg_obs: Vec<Observation> = matches
                .iter()
                .filter(|m| self.map.point(m.train_idx).label == 0)
                .map(|m| Observation {
                    point: self.map.point(m.train_idx).position,
                    pixel: Vec2::new(
                        frame.keypoints[m.query_idx].x,
                        frame.keypoints[m.query_idx].y,
                    ),
                })
                .collect();
            output.background_matches = bg_obs.len();

            // The paper "mainly selects 3-D points which are labeled as
            // background" for the device pose; when background support is
            // thin (object-dominated views) we fall back to all matched
            // points and let the Huber kernel discount movers.
            let pose_obs: Vec<Observation> = if bg_obs.len() >= self.config.min_tracked_points {
                bg_obs
            } else {
                matches
                    .iter()
                    .map(|m| Observation {
                        point: self.map.point(m.train_idx).position,
                        pixel: Vec2::new(
                            frame.keypoints[m.query_idx].x,
                            frame.keypoints[m.query_idx].y,
                        ),
                    })
                    .collect()
            };
            let ba_start = Instant::now();
            let pose = if pose_obs.len() >= self.config.min_tracked_points {
                refine_pose(&self.camera, &self.last_pose, &pose_obs, &self.config.ba)
                    .map(|r| r.pose)
            } else {
                None
            };
            output.ba_ms = ba_start.elapsed().as_secs_f64() * 1e3;

            if let Some(pose) = pose {
                frame.pose = Some(pose);
                self.last_pose = pose;
                output.pose = Some(pose);

                // Per-object poses (Eq. 6–7) and mask prediction (§III-C).
                // The transfer stage covers per-object BA + contour
                // reprojection (they are one loop in the paper's MAMT).
                let transfer_start = Instant::now();
                let labels: Vec<u16> = self.objects.keys().copied().collect();
                for label in labels {
                    let track = self.track_object(label, &frame, &matches, &pose);
                    output.objects.push(track);
                }
                output.transfer_ms = transfer_start.elapsed().as_secs_f64() * 1e3;

                // Grow the map continuously, like the paper's VO which
                // "triangulates 3-D points in the newly observed areas ...
                // in the same frequency as input" (§III-B). New points are
                // unlabeled until an edge mask covers them.
                self.extend_map_from(&mut frame, &pose);
            }

            // New-area statistics for the §V transmission trigger: the
            // paper counts features "matched with unlabeled points" (the
            // yellow points of Fig. 8b). Features that simply fail to match
            // are descriptor noise, not evidence of new content, so the
            // fraction is taken over *matched* features.
            let mut unannotated_pixels = Vec::new();
            let mut unannotated = 0usize;
            for (i, kp) in frame.keypoints.iter().enumerate() {
                let Some(point) = frame.map_matches[i].and_then(|id| self.map.get_by_id(id)) else {
                    continue;
                };
                if !point.annotated {
                    unannotated += 1;
                    unannotated_pixels.push((kp.x, kp.y));
                }
            }
            output.new_area_fraction = if matches.is_empty() {
                1.0
            } else {
                unannotated as f64 / matches.len() as f64
            };
            output.unlabeled_feature_pixels = unannotated_pixels;
        }

        if matches!(self.state, VoState::Tracking) {
            if output.pose.is_some() {
                self.consecutive_untracked = 0;
            } else {
                self.consecutive_untracked += 1;
                if self.consecutive_untracked >= self.config.track_loss_reset_frames {
                    self.reset_after_track_loss();
                }
            }
        }

        self.frames.push(frame);
        self.map.cleanup(self.config.max_map_points);
        output
    }

    /// Abandons a lost map and returns to initialization. Stored frames
    /// are kept (their keypoints can seed the next bootstrap pair) but
    /// their poses and map matches belong to the dead map's gauge and are
    /// cleared, so nothing downstream can mix the two coordinate frames.
    fn reset_after_track_loss(&mut self) {
        self.map = Map::new();
        self.objects.clear();
        self.state = VoState::AwaitingInit { pending: None };
        self.last_pose = SE3::identity();
        self.last_annotated = None;
        self.consecutive_untracked = 0;
        self.relocalizations += 1;
        for frame in self.frames.iter_mut() {
            frame.pose = None;
            for m in frame.map_matches.iter_mut() {
                *m = None;
            }
        }
    }

    /// Per-object pose estimation and mask transfer for one frame.
    fn track_object(
        &mut self,
        label: u16,
        frame: &ProcessedFrame,
        matches: &[edgeis_imaging::Match],
        camera_pose: &SE3,
    ) -> ObjectTrack {
        let obj_obs: Vec<Observation> = matches
            .iter()
            .filter(|m| self.map.point(m.train_idx).label == label)
            .map(|m| Observation {
                point: self.map.point(m.train_idx).position,
                pixel: Vec2::new(
                    frame.keypoints[m.query_idx].x,
                    frame.keypoints[m.query_idx].y,
                ),
            })
            .collect();

        let obj = self.objects.get_mut(&label).expect("object exists");

        // Estimate T_co: camera pose relative to the object frame.
        let initial = obj.t_co_current.unwrap_or(*camera_pose);
        let t_co = if obj_obs.len() >= 3 {
            refine_pose(&self.camera, &initial, &obj_obs, &self.config.ba).map(|r| r.pose)
        } else {
            None
        };

        let t_co_effective = match t_co {
            Some(p) => {
                obj.t_co_current = Some(p);
                obj.lost_frames = 0;
                p
            }
            None => {
                // Too small / too far (paper): fall back to the static
                // assumption T_co = T_cw. `t_co_current` keeps the last
                // refined pose as the next refine's starting point.
                obj.lost_frames += 1;
                *camera_pose
            }
        };

        // World motion D = T_cw^{-1} T_co (identity when static).
        let world_motion = Some(camera_pose.inverse() * t_co_effective);

        // Mask transfer: relative transform source-camera -> current-camera
        // through the object frame.
        let t_rel = t_co_effective * obj.t_co_source.inverse();
        let anchors = self.anchors_for(label);
        let obj = self.objects.get(&label).expect("object exists");
        let mut mask = transfer_mask(
            &self.camera,
            &obj.source_mask,
            &anchors,
            &t_rel,
            &self.config.transfer,
        );
        // An object that has gone unsupported for many frames is stale:
        // predicting from its old annotation spreads garbage.
        if self.objects.get(&label).map(|o| o.lost_frames).unwrap_or(0) > 10 {
            mask = None;
        }
        // Consistency gate: the transferred mask must cover the object's
        // currently matched feature pixels (they *are* the object). A mask
        // that misses most of them is a failed transfer, not a prediction.
        if let Some(m) = &mask {
            if obj_obs.len() >= 3 {
                let inside = obj_obs
                    .iter()
                    .filter(|o| m.get_or_false(o.pixel.x.round() as i64, o.pixel.y.round() as i64))
                    .count();
                if inside * 2 < obj_obs.len() {
                    mask = None;
                }
            }
        }

        ObjectTrack {
            label,
            mask,
            world_motion,
            matched_points: obj_obs.len(),
        }
    }

    /// Builds the depth anchors for mask transfer: in-mask features of the
    /// object's source frame whose matched map points carry its label.
    fn anchors_for(&self, label: u16) -> Vec<DepthAnchor> {
        let Some(obj) = self.objects.get(&label) else {
            return Vec::new();
        };
        let Some(src) = self.frames.get(obj.source_frame) else {
            return Vec::new();
        };
        let mut anchors = Vec::new();
        for (i, kp) in src.keypoints.iter().enumerate() {
            let Some(point_id) = src.map_matches[i] else {
                continue;
            };
            let Some(point) = self.map.get_by_id(point_id) else {
                continue;
            };
            if point.label != label {
                continue;
            }
            let inside = obj
                .source_mask
                .get_or_false(kp.x.round() as i64, kp.y.round() as i64);
            if !inside {
                continue;
            }
            let pc = obj.t_co_source.transform(point.position);
            if pc.z > 1e-6 {
                anchors.push(DepthAnchor {
                    pixel: Vec2::new(kp.x, kp.y),
                    depth: pc.z,
                });
            }
        }
        anchors
    }

    /// Applies accurate masks from the edge server to a previously
    /// processed frame: bootstraps the map on the first two annotated
    /// frames, afterwards refreshes point labels, triangulates new points
    /// and updates each object's cached mask.
    ///
    /// # Errors
    ///
    /// [`VoError::UnknownFrame`] when the frame was evicted, and
    /// [`VoError::FrameNotTracked`] when it has no pose (tracking state
    /// only).
    pub fn apply_edge_masks(
        &mut self,
        frame_id: u64,
        labels: &LabelMap,
    ) -> Result<AnnotationOutcome, VoError> {
        if self.frames.get(frame_id).is_none() {
            return Err(VoError::UnknownFrame { frame_id });
        }

        match &self.state {
            VoState::AwaitingInit { pending } => match pending {
                None => {
                    self.state = VoState::AwaitingInit {
                        pending: Some((frame_id, labels.clone())),
                    };
                    Ok(AnnotationOutcome::PendingInitialization)
                }
                Some((first_id, first_labels)) => {
                    let first_id = *first_id;
                    let first_labels = first_labels.clone();
                    if self.frames.get(first_id).is_none() {
                        // First frame evicted; restart with this one.
                        self.state = VoState::AwaitingInit {
                            pending: Some((frame_id, labels.clone())),
                        };
                        return Ok(AnnotationOutcome::PendingInitialization);
                    }
                    let attempt = self.try_initialize(first_id, &first_labels, frame_id, labels);
                    match attempt {
                        Ok(points) => {
                            self.init_restarts = 0;
                            Ok(AnnotationOutcome::Initialized { map_points: points })
                        }
                        Err(InitFailure::LowParallax) => {
                            // The pair is consistent but the baseline is too
                            // short: keep the OLD frame so parallax can
                            // accumulate ("continuously tries consecutive
                            // frames ... chooses a pair with enough
                            // parallax").
                            Ok(AnnotationOutcome::PendingInitialization)
                        }
                        Err(_) => {
                            // Matching failed or geometry degenerate: the
                            // old frame is stale; restart from this one.
                            self.init_restarts += 1;
                            self.state = VoState::AwaitingInit {
                                pending: Some((frame_id, labels.clone())),
                            };
                            Ok(AnnotationOutcome::PendingInitialization)
                        }
                    }
                }
            },
            VoState::Tracking => self.update_annotations(frame_id, labels),
        }
    }

    /// Two-frame initialization (§III-A).
    fn try_initialize(
        &mut self,
        id0: u64,
        labels0: &LabelMap,
        id1: u64,
        labels1: &LabelMap,
    ) -> Result<usize, InitFailure> {
        let f0 = self.frames.get(id0).ok_or(InitFailure::FrameGone)?.clone();
        let f1 = self.frames.get(id1).ok_or(InitFailure::FrameGone)?.clone();
        if f0.is_empty() || f1.is_empty() {
            return Err(InitFailure::TooFewMatches);
        }

        // §III-A feature selection: drop blurred / overcrowded background
        // features and keep mask-edge features before estimating geometry.
        let matches: Vec<edgeis_imaging::Match> = if self.config.init_feature_selection {
            let sel_cfg = crate::selection::SelectionConfig {
                // NMS in the detector already spaces features by ~4 px; only
                // thin truly stacked background corners here, and only filter
                // genuinely weak (blur-level) responses.
                min_spacing: 3.0,
                ..Default::default()
            };
            let keep0: std::collections::BTreeSet<usize> =
                crate::selection::select_features_by_response(
                    labels0,
                    &f0.keypoints,
                    20.0,
                    &sel_cfg,
                )
                .into_iter()
                .collect();
            let keep1: std::collections::BTreeSet<usize> =
                crate::selection::select_features_by_response(
                    labels1,
                    &f1.keypoints,
                    20.0,
                    &sel_cfg,
                )
                .into_iter()
                .collect();

            match_descriptors(&f0.descriptors, &f1.descriptors, &self.config.matching)
                .into_iter()
                .filter(|m| keep0.contains(&m.query_idx) && keep1.contains(&m.train_idx))
                .collect()
        } else {
            match_descriptors(&f0.descriptors, &f1.descriptors, &self.config.matching)
        };
        // Strict matching (ratio + cross-check) starves under fast
        // ego-motion: a few frames of jog-speed baseline leaves fewer
        // matches than `min_init_matches` even though half the features
        // are still co-visible. Retry with the permissive map-matching
        // parameters in that case — RANSAC on the fundamental matrix plus
        // the reprojection/cheirality gates below are the real outlier
        // filter, exactly as in guided map matching. The strict set is
        // kept whenever it suffices so well-conditioned scenes initialize
        // from the cleanest correspondences.
        let matches = if matches.len() < self.config.min_init_matches
            && !self.config.init_feature_selection
        {
            match_descriptors(&f0.descriptors, &f1.descriptors, &self.config.map_matching)
        } else {
            matches
        };
        if matches.len() < self.config.min_init_matches {
            return Err(InitFailure::TooFewMatches);
        }

        // Parallax check (median displacement).
        let mut disps: Vec<f64> = matches
            .iter()
            .map(|m| {
                let a = &f0.keypoints[m.query_idx];
                let b = &f1.keypoints[m.train_idx];
                ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt()
            })
            .collect();
        disps.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if disps[disps.len() / 2] < self.config.min_init_parallax {
            return Err(InitFailure::LowParallax);
        }

        // The paper solves F from background pairs first ("pixels of
        // background are more likely to be static") — but a background made
        // of one dominant plane (the ground) is a degenerate configuration
        // for the fundamental matrix. We therefore order candidates
        // background-first yet keep object correspondences in the pool:
        // off-plane object points break the planar degeneracy, and RANSAC
        // rejects points on fast movers.
        let is_background = |m: &edgeis_imaging::Match| {
            let a = &f0.keypoints[m.query_idx];
            let b = &f1.keypoints[m.train_idx];
            labels0.get_or_background(a.x.round() as i64, a.y.round() as i64) == 0
                && labels1.get_or_background(b.x.round() as i64, b.y.round() as i64) == 0
        };
        let mut f_matches: Vec<&edgeis_imaging::Match> =
            matches.iter().filter(|m| is_background(m)).collect();
        f_matches.extend(matches.iter().filter(|m| !is_background(m)));

        let p0: Vec<Vec2> = f_matches
            .iter()
            .map(|m| Vec2::new(f0.keypoints[m.query_idx].x, f0.keypoints[m.query_idx].y))
            .collect();
        let p1: Vec<Vec2> = f_matches
            .iter()
            .map(|m| Vec2::new(f1.keypoints[m.train_idx].x, f1.keypoints[m.train_idx].y))
            .collect();

        let result = ransac(
            p0.len(),
            8,
            &self.config.ransac,
            |idx| {
                let s0: Vec<Vec2> = idx.iter().map(|&i| p0[i]).collect();
                let s1: Vec<Vec2> = idx.iter().map(|&i| p1[i]).collect();
                fundamental_eight_point(&s0, &s1).ok()
            },
            |f, i| sampson_distance(f, p0[i], p1[i]),
        )
        .ok_or(InitFailure::Degenerate)?;
        if result.inliers.len() < self.config.min_init_matches / 2 {
            return Err(InitFailure::Degenerate);
        }

        // Refit on all inliers for accuracy.
        let in0: Vec<Vec2> = result.inliers.iter().map(|&i| p0[i]).collect();
        let in1: Vec<Vec2> = result.inliers.iter().map(|&i| p1[i]).collect();
        let f_mat = fundamental_eight_point(&in0, &in1).map_err(|_| InitFailure::Degenerate)?;
        let e = essential_from_fundamental(&f_mat, &self.camera);
        let (mut pose10, good) =
            recover_pose(&e, &self.camera, &in0, &in1).ok_or(InitFailure::Degenerate)?;
        if good * 2 < in0.len() {
            return Err(InitFailure::Degenerate);
        }

        // Two-view refinement: alternate triangulation (with frame 0 fixed
        // at the identity) and pose-only bundle adjustment of frame 1 over
        // the inlier set. This is a Gauss–Seidel pass over the full
        // two-view BA problem and substantially tightens the recovered
        // translation direction before the map is committed.
        let t_ident = SE3::identity();
        for _round in 0..4 {
            let mut obs = Vec::with_capacity(in0.len());
            for (a, b) in in0.iter().zip(in1.iter()) {
                let Ok(p) = triangulate_dlt(&self.camera, &t_ident, *a, &pose10, *b) else {
                    continue;
                };
                obs.push(Observation {
                    point: p,
                    pixel: *b,
                });
            }
            let Some(r) = refine_pose(&self.camera, &pose10, &obs, &self.config.ba) else {
                break;
            };
            // Keep the translation scale normalized (monocular gauge).
            let t_norm = r.pose.translation.norm();
            if t_norm < 1e-9 {
                break;
            }
            pose10 = SE3::new(r.pose.rotation, r.pose.translation / t_norm);
        }

        // Triangulate ALL matches (not only F inliers) that pass the
        // reprojection/cheirality test, and label them from the masks.
        let t0 = SE3::identity();
        let mut created = 0usize;
        for m in &matches {
            let a = &f0.keypoints[m.query_idx];
            let b = &f1.keypoints[m.train_idx];
            let pa = Vec2::new(a.x, a.y);
            let pb = Vec2::new(b.x, b.y);
            let Ok(point) = triangulate_dlt(&self.camera, &t0, pa, &pose10, pb) else {
                continue;
            };
            // Reprojection gate.
            let ra = self.camera.project(&t0, point);
            let rb = self.camera.project(&pose10, point);
            let (Some(ra), Some(rb)) = (ra, rb) else {
                continue;
            };
            if (ra - pa).norm() > 3.0 || (rb - pb).norm() > 3.0 {
                continue;
            }
            let d0 = (point - t0.camera_center()).normalized();
            let d1 = (point - pose10.camera_center()).normalized();
            if d0.dot(d1).clamp(-1.0, 1.0).acos() < self.config.min_triangulation_angle {
                continue;
            }
            let la = labels0.get_or_background(a.x.round() as i64, a.y.round() as i64);
            let lb = labels1.get_or_background(b.x.round() as i64, b.y.round() as i64);
            let label = if la == lb { la } else { 0 };
            let point_id = self
                .map
                .add_point(point, label, f1.descriptors[m.train_idx], id1);
            // Record the match in frame 1 so anchors can find depths.
            if let Some(fr) = self.frames.get_mut(id1) {
                fr.map_matches[m.train_idx] = Some(point_id);
            }
            created += 1;
        }
        if created < self.config.min_init_matches / 2 {
            self.map = Map::new();
            return Err(InitFailure::Degenerate);
        }

        // Set poses.
        if let Some(fr) = self.frames.get_mut(id0) {
            fr.pose = Some(t0);
        }
        if let Some(fr) = self.frames.get_mut(id1) {
            fr.pose = Some(pose10);
        }
        self.last_pose = pose10;

        // Create tracked objects from the second frame's masks.
        for label in labels1.instance_ids() {
            let point_ids = self.map.ids_with_label(label);
            if point_ids.len() < 3 {
                continue;
            }
            let mask = labels1.instance_mask(label);
            self.objects.insert(
                label,
                TrackedObject::new(label, point_ids, mask, id1, pose10),
            );
        }

        self.state = VoState::Tracking;
        self.last_annotated = Some(id1);
        Ok(created)
    }

    /// Post-initialization annotation update (§III-A "mask-assisted
    /// mapping" applied continuously).
    fn update_annotations(
        &mut self,
        frame_id: u64,
        labels: &LabelMap,
    ) -> Result<AnnotationOutcome, VoError> {
        let frame = self
            .frames
            .get(frame_id)
            .ok_or(VoError::UnknownFrame { frame_id })?
            .clone();
        let pose = frame.pose.ok_or(VoError::FrameNotTracked { frame_id })?;

        // 1. Refresh labels of matched points from the accurate masks.
        for (i, kp) in frame.keypoints.iter().enumerate() {
            if let Some(point_id) = frame.map_matches[i] {
                if let Some(idx) = self.map.index_of(point_id) {
                    let label = labels.get_or_background(kp.x.round() as i64, kp.y.round() as i64);
                    self.map.set_label(idx, label);
                }
            }
        }

        // 1b. Region annotation: every map point whose projection lands in
        // the annotated frame gets its label refreshed from the masks (the
        // paper annotates 3-D points from mask coverage, not only matched
        // features). Labeled (object) points project through their object's
        // pose so moving objects stay consistent.
        let object_poses: std::collections::BTreeMap<u16, SE3> = self
            .objects
            .iter()
            .map(|(l, o)| (*l, o.t_co_current.unwrap_or(pose)))
            .collect();
        for idx in 0..self.map.len() {
            let (position, label) = {
                let p = self.map.point(idx);
                (p.position, p.label)
            };
            let proj_pose = object_poses.get(&label).copied().unwrap_or(pose);
            let Some(px) = self.camera.project(&proj_pose, position) else {
                continue;
            };
            if !self.camera.contains_with_margin(px, 2.0) {
                continue;
            }
            let new_label = labels.get_or_background(px.x.round() as i64, px.y.round() as i64);
            self.map.set_label(idx, new_label);
        }

        // 2. Triangulate new points: unmatched features of this frame vs
        // the previous annotated frame.
        let mut new_points = 0usize;
        let mut frame = frame;
        if let Some(prev_id) = self.last_annotated {
            if prev_id != frame_id {
                if let Some(prev) = self.frames.get(prev_id).cloned() {
                    if let Some(prev_pose) = prev.pose {
                        new_points = self.triangulate_unmatched(
                            &mut frame,
                            &pose,
                            &prev,
                            &prev_pose,
                            Some(labels),
                        );
                    }
                }
            }
        }

        // 3. Refresh / create tracked objects.
        for label in labels.instance_ids() {
            let point_ids = self.map.ids_with_label(label);
            if point_ids.len() < 3 {
                continue;
            }
            let mask = labels.instance_mask(label);
            // The camera pose relative to the object at THIS frame: re-run
            // per-object BA on the frame's stored matches.
            let obj_obs: Vec<Observation> = frame
                .map_matches
                .iter()
                .enumerate()
                .filter_map(|(i, m)| m.map(|id| (i, id)))
                .filter_map(|(i, id)| self.map.get_by_id(id).map(|p| (i, p)))
                .filter(|(_, p)| p.label == label)
                .map(|(i, p)| Observation {
                    point: p.position,
                    pixel: Vec2::new(frame.keypoints[i].x, frame.keypoints[i].y),
                })
                .collect();
            let t_co = if obj_obs.len() >= 3 {
                refine_pose(&self.camera, &pose, &obj_obs, &self.config.ba)
                    .map(|r| r.pose)
                    .unwrap_or(pose)
            } else {
                pose
            };
            match self.objects.get_mut(&label) {
                Some(obj) => {
                    obj.point_ids = point_ids;
                    obj.refresh_annotation(mask, frame_id, t_co);
                }
                None => {
                    self.objects.insert(
                        label,
                        TrackedObject::new(label, point_ids, mask, frame_id, t_co),
                    );
                }
            }
        }

        // Drop objects whose label vanished from the map (all points
        // relabeled or cleaned up).
        let live: Vec<u16> = self.map.labels();
        self.objects.retain(|label, _| live.contains(label));

        self.last_annotated = Some(frame_id);
        Ok(AnnotationOutcome::Updated { new_points })
    }

    /// Picks a recent tracked frame with enough baseline to `pose` and
    /// triangulates this frame's unmatched features against it. New points
    /// are unlabeled (label 0) until an edge mask covers them.
    fn extend_map_from(&mut self, frame: &mut ProcessedFrame, pose: &SE3) {
        // Minimum baseline: a fraction of the (normalized) init baseline.
        const MIN_BASELINE: f64 = 0.4;
        let reference = self
            .frames
            .iter()
            .rev()
            .filter(|f| f.pose.is_some())
            .find(|f| {
                let fp = f.pose.expect("filtered");
                fp.camera_center().distance(pose.camera_center()) > MIN_BASELINE
            })
            .cloned();
        let Some(prev) = reference else {
            return;
        };
        let prev_pose = prev.pose.expect("reference has pose");
        let new_points = self.triangulate_unmatched(frame, pose, &prev, &prev_pose, None);
        let _ = new_points;
    }

    /// Triangulates features of `frame` that have no map match, against a
    /// previous tracked frame. Labels come from `labels` when provided
    /// (annotation path) and default to background otherwise.
    fn triangulate_unmatched(
        &mut self,
        frame: &mut ProcessedFrame,
        pose: &SE3,
        prev: &ProcessedFrame,
        prev_pose: &SE3,
        labels: Option<&LabelMap>,
    ) -> usize {
        // Collect unmatched features of both frames.
        let unmatched_now: Vec<usize> = (0..frame.len())
            .filter(|&i| frame.map_matches[i].is_none())
            .collect();
        let unmatched_prev: Vec<usize> = (0..prev.len())
            .filter(|&i| prev.map_matches[i].is_none())
            .collect();
        if unmatched_now.is_empty() || unmatched_prev.is_empty() {
            return 0;
        }
        let descs_now: Vec<_> = unmatched_now
            .iter()
            .map(|&i| frame.descriptors[i])
            .collect();
        let descs_prev: Vec<_> = unmatched_prev
            .iter()
            .map(|&i| prev.descriptors[i])
            .collect();
        let matches = match_descriptors(&descs_now, &descs_prev, &self.config.matching);

        let mut created = 0usize;
        for m in &matches {
            let i_now = unmatched_now[m.query_idx];
            let i_prev = unmatched_prev[m.train_idx];
            let p_now = Vec2::new(frame.keypoints[i_now].x, frame.keypoints[i_now].y);
            let p_prev = Vec2::new(prev.keypoints[i_prev].x, prev.keypoints[i_prev].y);
            let Ok(point) = triangulate_dlt(&self.camera, prev_pose, p_prev, pose, p_now) else {
                continue;
            };
            let r_now = self.camera.project(pose, point);
            let r_prev = self.camera.project(prev_pose, point);
            let (Some(r_now), Some(r_prev)) = (r_now, r_prev) else {
                continue;
            };
            if (r_now - p_now).norm() > 3.0 || (r_prev - p_prev).norm() > 3.0 {
                continue;
            }
            // Parallax gate: rays from both camera centers must subtend a
            // minimum angle, otherwise the depth is unconstrained.
            let d0 = (point - prev_pose.camera_center()).normalized();
            let d1 = (point - pose.camera_center()).normalized();
            if d0.dot(d1).clamp(-1.0, 1.0).acos() < self.config.min_triangulation_angle {
                continue;
            }
            let label = labels
                .map(|l| l.get_or_background(p_now.x.round() as i64, p_now.y.round() as i64))
                .unwrap_or(0);
            let point_id = self.map.add_point_with_annotation(
                point,
                label,
                frame.descriptors[i_now],
                frame.id,
                labels.is_some(),
            );
            frame.map_matches[i_now] = Some(point_id);
            if let Some(fr) = self.frames.get_mut(frame.id) {
                fr.map_matches[i_now] = Some(point_id);
            }
            created += 1;
        }
        created
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeis_geometry::{Vec3, SO3};

    #[test]
    fn unrefinable_object_falls_back_to_the_static_assumption() {
        let camera = Camera::with_hfov(1.2, 160, 120);
        let mut vo = VisualOdometry::new(camera, VoConfig::default());
        let mut mask = Mask::new(160, 120);
        mask.fill_rect(40, 30, 20, 20);
        // The object's last refined pose is far from where the camera is
        // now: reusing it would report a large world motion.
        let stale = SE3::new(SO3::from_yaw(0.4), Vec3::new(3.0, -1.0, 2.0));
        let mut obj = TrackedObject::new(7, Vec::new(), mask, 0, SE3::identity());
        obj.t_co_current = Some(stale);
        vo.objects.insert(7, obj);

        // No matched observations (fewer than the 3 a refine needs).
        let camera_pose = SE3::new(SO3::from_yaw(-0.1), Vec3::new(0.5, 0.0, 0.2));
        let frame = ProcessedFrame::new(1, 0.0, Vec::new(), Vec::new());
        let track = vo.track_object(7, &frame, &[], &camera_pose);

        let motion = track
            .world_motion
            .expect("a tracked object reports its motion");
        assert!(
            motion.translation.norm() < 1e-12,
            "T_co = T_cw moves nothing"
        );
        assert!(motion.rotation.log().norm() < 1e-12);
        assert_eq!(track.matched_points, 0);
        let obj = &vo.objects[&7];
        assert_eq!(obj.lost_frames, 1);
        assert_eq!(obj.t_co_current, Some(stale), "the refine seed is kept");
    }
}
