//! Content-based fine-grained RoI selection (§V).
//!
//! Decides (i) **when** to transmit a frame — when the fraction of
//! features matching unlabeled/unknown content exceeds `t` (paper: 0.25)
//! or a tracked object moved significantly since its last correction — and
//! (ii) **what quality** each tile gets: object tiles high, newly observed
//! areas medium, the rest heavily compressed (Fig. 8c/d).

use edgeis_codec::{QualityLevel, TileGrid, TilePlan};
use edgeis_imaging::Mask;
use edgeis_segnet::{BBox, Guidance, GuidanceBox};
use std::collections::BTreeMap;

/// CFRS parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfrsConfig {
    /// New-area fraction that triggers transmission (paper: `t` = 0.25).
    pub new_area_threshold: f64,
    /// Object translation (map units) since the last transmission that
    /// triggers a mask-correction transmission.
    pub motion_threshold: f64,
    /// Hard ceiling between transmissions in frames (keeps annotations
    /// fresh even in static scenes).
    pub max_interval_frames: u64,
    /// Minimal spacing between transmissions in frames (rate limit). It
    /// also spaces bootstrap transmissions while the map is not
    /// initialized: a few frames of spacing gives the init pair a
    /// triangulation baseline, and initializing on the shortest possible
    /// baseline measurably degrades the map (crowd preset: −0.15 mean
    /// IoU). When initialization is *failing* on this cadence,
    /// [`CfrsPlanner::set_bootstrap_urgency`] overrides it to every frame
    /// until a map exists.
    pub min_interval_frames: u64,
    /// Tile side length in pixels.
    pub tile_size: u32,
}

impl Default for CfrsConfig {
    fn default() -> Self {
        Self {
            new_area_threshold: 0.25,
            motion_threshold: 0.12,
            max_interval_frames: 30,
            min_interval_frames: 3,
            tile_size: 32,
        }
    }
}

/// The transmit decision for one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum CfrsDecision {
    /// Do not transmit this frame.
    Hold,
    /// Transmit, for the recorded reason.
    Transmit(TransmitReason),
}

/// Why a frame is transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitReason {
    /// The map is not initialized yet (annotations needed to bootstrap).
    Bootstrap,
    /// New-area fraction exceeded the threshold.
    NewArea,
    /// A tracked object moved beyond the motion threshold.
    ObjectMotion,
    /// Periodic refresh (max interval reached).
    Periodic,
    /// Back-to-back offloading without CFRS (best-effort ablations).
    Continuous,
    /// Resilience: re-sending a request that timed out.
    Retry,
    /// Resilience: forced full-quality keyframe after an outage healed,
    /// re-syncing the edge annotations with the drifted local state.
    Recovery,
}

/// The CFRS planner: holds the trigger state across frames.
#[derive(Debug, Clone)]
pub struct CfrsPlanner {
    config: CfrsConfig,
    last_tx_frame: Option<u64>,
    /// Accumulated per-object translation since last transmission.
    motion_accum: BTreeMap<u16, f64>,
    /// Initialization is failing at the configured bootstrap cadence;
    /// transmit every frame until it succeeds.
    bootstrap_urgent: bool,
}

impl CfrsPlanner {
    /// Creates a planner.
    pub fn new(config: CfrsConfig) -> Self {
        Self {
            config,
            last_tx_frame: None,
            motion_accum: BTreeMap::new(),
            bootstrap_urgent: false,
        }
    }

    /// Escalates (or stands down) the bootstrap cadence. Set this from
    /// the tracker's view of initialization: when an init attempt failed
    /// to match or solve geometry across the current pair spacing, each
    /// extra frame of spacing only widens the baseline further, so the
    /// planner transmits every frame until a pair close enough to
    /// initialize from comes back annotated (fast ego-motion needs this;
    /// see `CfrsConfig::min_interval_frames`).
    pub fn set_bootstrap_urgency(&mut self, urgent: bool) {
        self.bootstrap_urgent = urgent;
    }

    /// The configuration.
    pub fn config(&self) -> &CfrsConfig {
        &self.config
    }

    /// Records per-frame object motion (translation magnitude of the
    /// object's world-motion delta this frame).
    pub fn record_motion(&mut self, label: u16, delta: f64) {
        *self.motion_accum.entry(label).or_insert(0.0) += delta;
    }

    /// Records a transmission made outside [`Self::decide`] (retries,
    /// recovery keyframes) so the interval triggers stay rate-limited.
    pub fn record_transmission(&mut self, frame_idx: u64) {
        self.last_tx_frame = Some(frame_idx);
        self.motion_accum.clear();
    }

    /// Makes the transmit decision for frame `frame_idx`.
    ///
    /// `initialized` is whether the VO map exists; `new_area_fraction` comes
    /// from the tracker output.
    pub fn decide(
        &mut self,
        frame_idx: u64,
        initialized: bool,
        new_area_fraction: f64,
    ) -> CfrsDecision {
        let since = self
            .last_tx_frame
            .map(|f| frame_idx.saturating_sub(f))
            .unwrap_or(u64::MAX);
        let min_interval = if !initialized && self.bootstrap_urgent {
            1
        } else {
            self.config.min_interval_frames
        };
        if since < min_interval {
            return CfrsDecision::Hold;
        }
        let reason = if !initialized {
            Some(TransmitReason::Bootstrap)
        } else if new_area_fraction > self.config.new_area_threshold {
            Some(TransmitReason::NewArea)
        } else if self
            .motion_accum
            .values()
            .any(|&m| m > self.config.motion_threshold)
        {
            Some(TransmitReason::ObjectMotion)
        } else if since >= self.config.max_interval_frames {
            Some(TransmitReason::Periodic)
        } else {
            None
        };
        match reason {
            Some(r) => {
                self.last_tx_frame = Some(frame_idx);
                self.motion_accum.clear();
                CfrsDecision::Transmit(r)
            }
            None => CfrsDecision::Hold,
        }
    }

    /// Builds the tile plan for a transmitted frame (Fig. 8c/d): tiles
    /// under predicted object masks are high quality, tiles around
    /// unlabeled feature pixels (newly observed content) are medium, the
    /// rest low.
    pub fn tile_plan(
        &self,
        width: u32,
        height: u32,
        object_masks: &[(u16, Mask)],
        new_area_pixels: &[(f64, f64)],
    ) -> TilePlan {
        let grid = TileGrid::new(self.config.tile_size, width, height);
        let mut plan = TilePlan::uniform(grid, QualityLevel::Low);
        let mut new_tiles = Vec::new();
        for &(x, y) in new_area_pixels {
            if x >= 0.0 && y >= 0.0 && (x as u32) < width && (y as u32) < height {
                new_tiles.push(grid.tile_of(x as u32, y as u32));
            }
        }
        plan.raise(&new_tiles, QualityLevel::Medium);
        for (_, mask) in object_masks {
            // Dilate so the mask boundary (which the model needs sharp) is
            // covered even under small transfer error.
            let tiles = grid.tiles_touching(&mask.dilate(2));
            plan.raise(&tiles, QualityLevel::High);
        }
        plan
    }

    /// Builds the CIIA guidance for the edge: one known-class box per
    /// transferred mask and one unknown box per new-area tile cluster.
    pub fn guidance(
        &self,
        width: u32,
        height: u32,
        object_masks: &[(u16, Mask)],
        classes: &BTreeMap<u16, u8>,
        new_area_pixels: &[(f64, f64)],
    ) -> Guidance {
        let mut boxes = Vec::new();
        for (label, mask) in object_masks {
            if let Some((x0, y0, x1, y1)) = mask.bounding_box() {
                boxes.push(GuidanceBox {
                    bbox: BBox::new(x0 as f64, y0 as f64, x1 as f64, y1 as f64),
                    class_id: classes.get(label).copied(),
                    instance: Some(*label),
                });
            }
        }
        // Cluster new-area pixels into coarse boxes by tile occupancy.
        let grid = TileGrid::new(self.config.tile_size, width, height);
        let mut hit = vec![false; grid.len()];
        for &(x, y) in new_area_pixels {
            if x >= 0.0 && y >= 0.0 && (x as u32) < width && (y as u32) < height {
                hit[grid.tile_of(x as u32, y as u32)] = true;
            }
        }
        // Merge hit tiles into one bounding box per connected row-run (a
        // cheap clustering adequate for anchor admission).
        let mut current: Option<BBox> = None;
        for (i, &h) in hit.iter().enumerate() {
            if !h {
                continue;
            }
            let (x, y, w, hh) = grid.tile_rect(i);
            let b = BBox::new(x as f64, y as f64, (x + w) as f64, (y + hh) as f64);
            current = Some(match current {
                None => b,
                Some(acc) => acc.union_box(&b),
            });
        }
        if let Some(b) = current {
            boxes.push(GuidanceBox {
                bbox: b,
                class_id: None,
                instance: None,
            });
        }
        Guidance { boxes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> CfrsPlanner {
        CfrsPlanner::new(CfrsConfig::default())
    }

    #[test]
    fn bootstrap_transmits_immediately() {
        let mut p = planner();
        assert_eq!(
            p.decide(0, false, 1.0),
            CfrsDecision::Transmit(TransmitReason::Bootstrap)
        );
    }

    #[test]
    fn min_interval_rate_limits() {
        let mut p = planner();
        assert!(matches!(p.decide(0, true, 1.0), CfrsDecision::Transmit(_)));
        assert_eq!(p.decide(1, true, 1.0), CfrsDecision::Hold);
        assert_eq!(p.decide(2, true, 1.0), CfrsDecision::Hold);
        assert!(matches!(p.decide(3, true, 1.0), CfrsDecision::Transmit(_)));
    }

    #[test]
    fn bootstrap_urgency_overrides_cadence() {
        // Default bootstrap cadence equals the normal rate limit.
        let mut p = planner();
        assert!(matches!(p.decide(0, false, 1.0), CfrsDecision::Transmit(_)));
        assert_eq!(p.decide(1, false, 1.0), CfrsDecision::Hold);
        assert_eq!(p.decide(2, false, 1.0), CfrsDecision::Hold);
        assert!(matches!(p.decide(3, false, 1.0), CfrsDecision::Transmit(_)));

        // A failing initialization escalates to every-frame transmission
        // until the map exists; urgency never affects the initialized
        // rate limit.
        p.set_bootstrap_urgency(true);
        assert!(matches!(p.decide(4, false, 1.0), CfrsDecision::Transmit(_)));
        assert!(matches!(p.decide(5, false, 1.0), CfrsDecision::Transmit(_)));
        assert_eq!(p.decide(6, true, 0.0), CfrsDecision::Hold);
    }

    #[test]
    fn new_area_triggers_above_threshold() {
        let mut p = planner();
        let _ = p.decide(0, false, 1.0);
        assert_eq!(p.decide(10, true, 0.2), CfrsDecision::Hold);
        assert_eq!(
            p.decide(11, true, 0.3),
            CfrsDecision::Transmit(TransmitReason::NewArea)
        );
    }

    #[test]
    fn object_motion_triggers() {
        let mut p = planner();
        let _ = p.decide(0, false, 1.0);
        p.record_motion(2, 0.05);
        assert_eq!(p.decide(5, true, 0.1), CfrsDecision::Hold);
        p.record_motion(2, 0.10); // accumulated 0.15 > 0.12
        assert_eq!(
            p.decide(8, true, 0.1),
            CfrsDecision::Transmit(TransmitReason::ObjectMotion)
        );
        // Accumulator cleared after transmitting.
        assert_eq!(p.decide(15, true, 0.1), CfrsDecision::Hold);
    }

    #[test]
    fn periodic_refresh_fires_at_max_interval() {
        let mut p = planner();
        let _ = p.decide(0, false, 1.0);
        assert_eq!(p.decide(29, true, 0.0), CfrsDecision::Hold);
        assert_eq!(
            p.decide(30, true, 0.0),
            CfrsDecision::Transmit(TransmitReason::Periodic)
        );
    }

    #[test]
    fn tile_plan_levels_follow_content() {
        let p = planner();
        let mut mask = Mask::new(128, 128);
        mask.fill_rect(0, 0, 40, 40);
        let plan = p.tile_plan(128, 128, &[(1, mask)], &[(100.0, 100.0)]);
        let grid = plan.grid;
        assert_eq!(plan.levels[grid.tile_of(10, 10)], QualityLevel::High);
        assert_eq!(plan.levels[grid.tile_of(100, 100)], QualityLevel::Medium);
        assert_eq!(plan.levels[grid.tile_of(100, 10)], QualityLevel::Low);
    }

    #[test]
    fn tile_plan_margin_reaches_across_a_tile_border() {
        // The 2 px dilation margin: a mask whose last pixel sits 1 or 2 px
        // short of the border at 32 (so at x/y = 31 or 30) raises the
        // neighbouring tile to High; 3 px short (29) does not.
        let p = planner();
        let grid = TileGrid::new(32, 128, 96);
        for (last, raised) in [(31u32, true), (30, true), (29, false)] {
            let mut right = Mask::new(128, 96);
            right.fill_rect(10, 40, last - 9, 10);
            let mut below = Mask::new(128, 96);
            below.fill_rect(40, 10, 10, last - 9);
            let mut corner = Mask::new(128, 96);
            corner.set(last, last, true);
            for (mask, neighbour) in [
                (right, grid.tile_of(32, 40)),
                (below, grid.tile_of(40, 32)),
                (corner, grid.tile_of(32, 32)),
            ] {
                let plan = p.tile_plan(128, 96, &[(1, mask)], &[]);
                let expected = if raised {
                    QualityLevel::High
                } else {
                    QualityLevel::Low
                };
                assert_eq!(plan.levels[neighbour], expected, "last pixel at {last}");
            }
        }
    }

    #[test]
    fn guidance_boxes_carry_classes() {
        let p = planner();
        let mut mask = Mask::new(128, 128);
        mask.fill_rect(20, 20, 30, 30);
        let mut classes = BTreeMap::new();
        classes.insert(1u16, 4u8);
        let g = p.guidance(128, 128, &[(1, mask)], &classes, &[(90.0, 90.0)]);
        assert_eq!(g.boxes.len(), 2);
        assert_eq!(g.boxes[0].class_id, Some(4));
        assert_eq!(g.boxes[0].instance, Some(1));
        assert_eq!(g.boxes[1].class_id, None);
    }

    #[test]
    fn empty_inputs_empty_guidance() {
        let p = planner();
        let g = p.guidance(64, 64, &[], &BTreeMap::new(), &[]);
        assert!(g.is_empty());
    }
}
