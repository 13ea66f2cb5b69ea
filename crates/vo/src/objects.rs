//! Per-object tracking state (§III-B: objects' poses are updated
//! individually, which "yields better performance in dynamic scenarios").

use edgeis_geometry::SE3;
use edgeis_imaging::{extract_contours, Contour, Mask};

/// A tracked object instance: its labeled map points, its cached accurate
/// mask (from the edge) and the camera-relative poses needed for transfer.
///
/// The *object frame* is the map frame frozen at the time the object's
/// points were triangulated; a static object's pose relative to that frame
/// is always the camera pose itself, while a moving object's differs — the
/// difference is exactly the object motion of Eq. 6.
#[derive(Debug, Clone)]
pub struct TrackedObject {
    /// Instance label (matches mask labels from the edge).
    pub label: u16,
    /// Map-point indices belonging to this object.
    pub point_ids: Vec<usize>,
    /// Most recent accurate mask from the edge.
    source_mask: Mask,
    /// `source_mask`'s contours, traced once per annotation: every frame's
    /// mask transfer projects them. Set only together with the mask.
    source_contours: Vec<Contour>,
    /// Frame id the source mask belongs to.
    pub source_frame: u64,
    /// Camera pose relative to the object frame at the source frame
    /// (`T_c_o` evaluated at mask time).
    pub t_co_source: SE3,
    /// Camera pose relative to the object frame at the latest tracked
    /// frame.
    pub t_co_current: Option<SE3>,
    /// Accumulated object motion (translation, map units) since the last
    /// time a frame containing this object was transmitted — drives the
    /// §V "mask correction" transmission trigger.
    pub motion_since_tx: f64,
    /// Frames in a row where per-object pose estimation failed.
    pub lost_frames: u32,
}

impl TrackedObject {
    /// Creates a freshly annotated object.
    pub fn new(
        label: u16,
        point_ids: Vec<usize>,
        source_mask: Mask,
        source_frame: u64,
        t_co_source: SE3,
    ) -> Self {
        Self {
            label,
            point_ids,
            source_contours: extract_contours(&source_mask),
            source_mask,
            source_frame,
            t_co_source,
            t_co_current: None,
            motion_since_tx: 0.0,
            lost_frames: 0,
        }
    }

    /// Most recent accurate mask from the edge.
    pub fn source_mask(&self) -> &Mask {
        &self.source_mask
    }

    /// The contours of [`Self::source_mask`], as
    /// [`edgeis_imaging::extract_contours`] traces them.
    pub fn source_contours(&self) -> &[Contour] {
        &self.source_contours
    }

    /// Whether the object currently has enough points for pose estimation
    /// (the paper's minimum of 3; below that the object is "too small or
    /// too far away").
    pub fn trackable(&self) -> bool {
        self.point_ids.len() >= 3
    }

    /// The object's motion relative to the background between the source
    /// frame and now, expressed as a relative transform in the object
    /// frame (Eq. 6: `ΔT = T_co_current⁻¹ T_co_source` composed with the
    /// camera motion; here both poses are already camera-relative-to-object
    /// so the delta captures object motion *and* camera motion — the
    /// transfer code uses it directly).
    pub fn relative_motion(&self) -> Option<SE3> {
        self.t_co_current
            .map(|cur| cur * self.t_co_source.inverse())
    }

    /// Updates the source annotation after a fresh edge mask arrives.
    pub fn refresh_annotation(&mut self, mask: Mask, frame_id: u64, t_co: SE3) {
        self.source_contours = extract_contours(&mask);
        self.source_mask = mask;
        self.source_frame = frame_id;
        self.t_co_source = t_co;
        self.lost_frames = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeis_geometry::{Vec3, SO3};

    fn mask() -> Mask {
        let mut m = Mask::new(8, 8);
        m.fill_rect(2, 2, 3, 3);
        m
    }

    #[test]
    fn trackable_threshold() {
        let mut obj = TrackedObject::new(1, vec![0, 1], mask(), 0, SE3::identity());
        assert!(!obj.trackable());
        obj.point_ids.push(2);
        assert!(obj.trackable());
    }

    #[test]
    fn relative_motion_identity_when_static() {
        let pose = SE3::new(SO3::from_yaw(0.3), Vec3::new(1.0, 0.0, 2.0));
        let mut obj = TrackedObject::new(1, vec![0, 1, 2], mask(), 0, pose);
        obj.t_co_current = Some(pose);
        let rel = obj.relative_motion().unwrap();
        assert!(rel.translation.norm() < 1e-12);
        assert!(rel.rotation.log().norm() < 1e-12);
    }

    #[test]
    fn relative_motion_none_before_tracking() {
        let obj = TrackedObject::new(1, vec![], mask(), 0, SE3::identity());
        assert!(obj.relative_motion().is_none());
    }

    #[test]
    fn refresh_resets_loss_counter() {
        let mut obj = TrackedObject::new(1, vec![], mask(), 0, SE3::identity());
        obj.lost_frames = 5;
        obj.refresh_annotation(mask(), 9, SE3::identity());
        assert_eq!(obj.lost_frames, 0);
        assert_eq!(obj.source_frame, 9);
    }
}
