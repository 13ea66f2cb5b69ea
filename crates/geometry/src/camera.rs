//! Pinhole camera model.

use crate::mat::Mat3;
use crate::se3::SE3;
use crate::vec::{Vec2, Vec3};

/// A pinhole camera: intrinsics `K` plus an image size.
///
/// Conventions follow the paper (§III): a pose `T_cw` maps world points into
/// the camera frame, which looks down +Z; projection is
/// `π(T, P) = K (R P + t)` followed by perspective division.
///
/// # Example
///
/// ```
/// use edgeis_geometry::{Camera, SE3, Vec3};
/// let cam = Camera::new(500.0, 500.0, 320.0, 240.0, 640, 480);
/// // A point straight ahead projects to the principal point.
/// let px = cam.project(&SE3::identity(), Vec3::new(0.0, 0.0, 1.0)).unwrap();
/// assert_eq!((px.x, px.y), (320.0, 240.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Focal length in pixels, x.
    pub fx: f64,
    /// Focal length in pixels, y.
    pub fy: f64,
    /// Principal point x.
    pub cx: f64,
    /// Principal point y.
    pub cy: f64,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
}

impl Camera {
    /// Creates a camera from intrinsics and image size.
    ///
    /// # Panics
    ///
    /// Panics if focal lengths are not strictly positive or the image is
    /// empty.
    pub fn new(fx: f64, fy: f64, cx: f64, cy: f64, width: u32, height: u32) -> Self {
        assert!(fx > 0.0 && fy > 0.0, "focal lengths must be positive");
        assert!(width > 0 && height > 0, "image must be non-empty");
        Self {
            fx,
            fy,
            cx,
            cy,
            width,
            height,
        }
    }

    /// A camera with a given horizontal field of view (radians) and the
    /// principal point at the image center.
    pub fn with_hfov(hfov: f64, width: u32, height: u32) -> Self {
        let fx = width as f64 / (2.0 * (hfov / 2.0).tan());
        Self::new(
            fx,
            fx,
            width as f64 / 2.0,
            height as f64 / 2.0,
            width,
            height,
        )
    }

    /// The intrinsic matrix `K`.
    pub fn k(&self) -> Mat3 {
        Mat3::from_rows([
            [self.fx, 0.0, self.cx],
            [0.0, self.fy, self.cy],
            [0.0, 0.0, 1.0],
        ])
    }

    /// The inverse intrinsic matrix `K⁻¹`.
    pub fn k_inv(&self) -> Mat3 {
        Mat3::from_rows([
            [1.0 / self.fx, 0.0, -self.cx / self.fx],
            [0.0, 1.0 / self.fy, -self.cy / self.fy],
            [0.0, 0.0, 1.0],
        ])
    }

    /// Projects a world point through pose `t_cw` to pixel coordinates.
    ///
    /// Returns `None` when the point is behind the camera (z ≤ small
    /// epsilon in the camera frame). The returned pixel may lie outside the
    /// image bounds; use [`Camera::contains`] to test visibility.
    #[inline]
    pub fn project(&self, t_cw: &SE3, p_world: Vec3) -> Option<Vec2> {
        let pc = t_cw.transform(p_world);
        self.project_camera(pc)
    }

    /// Projects a point already in the camera frame.
    #[inline]
    pub fn project_camera(&self, pc: Vec3) -> Option<Vec2> {
        if pc.z <= 1e-6 {
            return None;
        }
        Some(Vec2::new(
            self.fx * pc.x / pc.z + self.cx,
            self.fy * pc.y / pc.z + self.cy,
        ))
    }

    /// Back-projects pixel `px` at depth `z` into the camera frame.
    #[inline]
    pub fn unproject(&self, px: Vec2, z: f64) -> Vec3 {
        Vec3::new(
            (px.x - self.cx) / self.fx * z,
            (px.y - self.cy) / self.fy * z,
            z,
        )
    }

    /// Converts a pixel to a normalized image-plane coordinate
    /// (`K⁻¹ [u v 1]ᵀ`, with z = 1).
    #[inline]
    pub fn normalize(&self, px: Vec2) -> Vec2 {
        Vec2::new((px.x - self.cx) / self.fx, (px.y - self.cy) / self.fy)
    }

    /// Whether a pixel lies inside the image bounds.
    #[inline]
    pub fn contains(&self, px: Vec2) -> bool {
        px.x >= 0.0 && px.y >= 0.0 && px.x < self.width as f64 && px.y < self.height as f64
    }

    /// Whether a pixel lies inside the image with a `margin`-pixel border.
    #[inline]
    pub fn contains_with_margin(&self, px: Vec2, margin: f64) -> bool {
        px.x >= margin
            && px.y >= margin
            && px.x < self.width as f64 - margin
            && px.y < self.height as f64 - margin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::se3::SO3;

    fn cam() -> Camera {
        Camera::new(500.0, 480.0, 320.0, 240.0, 640, 480)
    }

    #[test]
    fn project_unproject_roundtrip() {
        let c = cam();
        let px = Vec2::new(100.5, 333.25);
        let p = c.unproject(px, 2.5);
        let px2 = c.project_camera(p).unwrap();
        assert!((px - px2).norm() < 1e-10);
    }

    #[test]
    fn behind_camera_is_none() {
        let c = cam();
        assert!(c.project_camera(Vec3::new(0.0, 0.0, -1.0)).is_none());
        assert!(c.project_camera(Vec3::new(0.0, 0.0, 0.0)).is_none());
    }

    #[test]
    fn k_and_k_inv_are_inverses() {
        let c = cam();
        let prod = c.k() * c.k_inv();
        for r in 0..3 {
            for col in 0..3 {
                let e = if r == col { 1.0 } else { 0.0 };
                assert!((prod.m[r][col] - e).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn project_with_pose() {
        let c = cam();
        // Camera translated so the world origin is 2m ahead.
        let t_cw = SE3::new(SO3::identity(), Vec3::new(0.0, 0.0, 2.0));
        let px = c.project(&t_cw, Vec3::ZERO).unwrap();
        assert_eq!((px.x, px.y), (320.0, 240.0));
    }

    #[test]
    fn contains_bounds() {
        let c = cam();
        assert!(c.contains(Vec2::new(0.0, 0.0)));
        assert!(c.contains(Vec2::new(639.9, 479.9)));
        assert!(!c.contains(Vec2::new(640.0, 100.0)));
        assert!(!c.contains(Vec2::new(-0.1, 100.0)));
        assert!(c.contains_with_margin(Vec2::new(20.0, 20.0), 10.0));
        assert!(!c.contains_with_margin(Vec2::new(5.0, 20.0), 10.0));
    }

    #[test]
    fn hfov_constructor() {
        let c = Camera::with_hfov(std::f64::consts::FRAC_PI_2, 640, 480);
        // 90 degree hfov: fx = w/2.
        assert!((c.fx - 320.0).abs() < 1e-9);
        assert_eq!(c.cx, 320.0);
    }

    #[test]
    fn normalize_matches_kinv() {
        let c = cam();
        let px = Vec2::new(415.0, 92.0);
        let n = c.normalize(px);
        let via_k = c.k_inv() * px.homogeneous();
        assert!((n.x - via_k.x).abs() < 1e-12);
        assert!((n.y - via_k.y).abs() < 1e-12);
    }
}
