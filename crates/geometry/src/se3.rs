//! Rotations `SO(3)` and rigid transforms `SE(3)` with exp/log maps.

use crate::mat::Mat3;
use crate::vec::Vec3;
use std::ops::Mul;

/// A rotation in 3-D, stored as an orthonormal matrix.
///
/// # Example
///
/// ```
/// use edgeis_geometry::{SO3, Vec3};
/// let r = SO3::exp(Vec3::new(0.0, 0.0, std::f64::consts::FRAC_PI_2));
/// let v = r * Vec3::X;
/// assert!((v - Vec3::Y).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SO3 {
    m: Mat3,
}

impl Default for SO3 {
    fn default() -> Self {
        Self::identity()
    }
}

impl SO3 {
    /// The identity rotation.
    #[inline]
    pub fn identity() -> Self {
        Self {
            m: Mat3::identity(),
        }
    }

    /// Wraps a rotation matrix.
    ///
    /// The caller is responsible for `m` being orthonormal with det +1; use
    /// [`SO3::from_matrix_orthogonalized`] for noisy inputs.
    #[inline]
    pub fn from_matrix_unchecked(m: Mat3) -> Self {
        Self { m }
    }

    /// Wraps a noisy rotation matrix, re-orthonormalizing its columns via
    /// Gram–Schmidt and fixing the handedness.
    pub fn from_matrix_orthogonalized(m: Mat3) -> Self {
        let c0 = m.col(0).normalized();
        let mut c1 = m.col(1) - c0 * c0.dot(m.col(1));
        c1 = c1.normalized();
        let c2 = c0.cross(c1);
        Self {
            m: Mat3::from_col_vecs(c0, c1, c2),
        }
    }

    /// Exponential map: axis-angle vector `w` (angle = |w|) to rotation
    /// (Rodrigues' formula).
    pub fn exp(w: Vec3) -> Self {
        let theta = w.norm();
        if theta < 1e-12 {
            // First-order expansion for tiny angles.
            let k = Mat3::hat(w);
            return Self::from_matrix_orthogonalized(Mat3::identity() + k);
        }
        let axis = w / theta;
        let k = Mat3::hat(axis);
        let m = Mat3::identity() + k.scaled(theta.sin()) + (k * k).scaled(1.0 - theta.cos());
        Self { m }
    }

    /// Logarithm map: rotation to axis-angle vector.
    pub fn log(&self) -> Vec3 {
        let cos = ((self.m.trace() - 1.0) / 2.0).clamp(-1.0, 1.0);
        let theta = cos.acos();
        if theta < 1e-9 {
            // Near identity: R ≈ I + hat(w).
            return Vec3::new(
                (self.m.m[2][1] - self.m.m[1][2]) / 2.0,
                (self.m.m[0][2] - self.m.m[2][0]) / 2.0,
                (self.m.m[1][0] - self.m.m[0][1]) / 2.0,
            );
        }
        if (std::f64::consts::PI - theta) < 1e-6 {
            // Near pi: extract axis from the symmetric part.
            let r = &self.m;
            let xx = ((r.m[0][0] + 1.0) / 2.0).max(0.0).sqrt();
            let yy = ((r.m[1][1] + 1.0) / 2.0).max(0.0).sqrt();
            let zz = ((r.m[2][2] + 1.0) / 2.0).max(0.0).sqrt();
            // Fix signs using off-diagonal terms.
            let (x, mut y, mut z) = (xx, yy, zz);
            if r.m[0][1] + r.m[1][0] < 0.0 {
                y = -y;
            }
            if r.m[0][2] + r.m[2][0] < 0.0 {
                z = -z;
            }
            let axis = Vec3::new(x, y, z);
            let n = axis.norm();
            if n < 1e-9 {
                return Vec3::new(theta, 0.0, 0.0);
            }
            return axis / n * theta;
        }
        let factor = theta / (2.0 * theta.sin());
        Vec3::new(
            (self.m.m[2][1] - self.m.m[1][2]) * factor,
            (self.m.m[0][2] - self.m.m[2][0]) * factor,
            (self.m.m[1][0] - self.m.m[0][1]) * factor,
        )
    }

    /// Rotation about an axis by `angle` radians.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Self {
        Self::exp(axis.normalized() * angle)
    }

    /// Yaw (about +Y), useful for planar camera trajectories.
    pub fn from_yaw(yaw: f64) -> Self {
        Self::from_axis_angle(Vec3::Y, yaw)
    }

    /// The inverse rotation (transpose).
    #[inline]
    pub fn inverse(&self) -> Self {
        Self {
            m: self.m.transpose(),
        }
    }

    /// The underlying matrix.
    #[inline]
    pub fn matrix(&self) -> Mat3 {
        self.m
    }

    /// Geodesic distance (angle in radians) to another rotation.
    pub fn angle_to(&self, other: &SO3) -> f64 {
        (self.inverse() * *other).log().norm()
    }
}

impl Mul<Vec3> for SO3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        self.m * v
    }
}

impl Mul for SO3 {
    type Output = SO3;
    #[inline]
    fn mul(self, rhs: SO3) -> SO3 {
        SO3 { m: self.m * rhs.m }
    }
}

/// A rigid transform `x ↦ R x + t`.
///
/// Following the paper's notation, a camera pose `T_cw` maps world
/// coordinates to camera coordinates.
///
/// # Example
///
/// ```
/// use edgeis_geometry::{SE3, SO3, Vec3};
/// let t = SE3::new(SO3::identity(), Vec3::new(1.0, 0.0, 0.0));
/// assert_eq!(t * Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
/// assert!((t.inverse() * (t * Vec3::Z) - Vec3::Z).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SE3 {
    /// Rotation part.
    pub rotation: SO3,
    /// Translation part.
    pub translation: Vec3,
}

impl SE3 {
    /// Creates a transform from rotation and translation.
    #[inline]
    pub fn new(rotation: SO3, translation: Vec3) -> Self {
        Self {
            rotation,
            translation,
        }
    }

    /// The identity transform.
    #[inline]
    pub fn identity() -> Self {
        Self::new(SO3::identity(), Vec3::ZERO)
    }

    /// Exponential map from a twist `[v, w]` (translation first).
    ///
    /// Uses the first-order approximation `t = v` for the translation part,
    /// which is standard for small Gauss–Newton update steps.
    pub fn exp(xi: [f64; 6]) -> Self {
        let v = Vec3::new(xi[0], xi[1], xi[2]);
        let w = Vec3::new(xi[3], xi[4], xi[5]);
        Self::new(SO3::exp(w), v)
    }

    /// Inverse transform.
    #[inline]
    pub fn inverse(&self) -> Self {
        let rinv = self.rotation.inverse();
        Self::new(rinv, -(rinv * self.translation))
    }

    /// Applies the transform to a point.
    #[inline]
    pub fn transform(&self, p: Vec3) -> Vec3 {
        self.rotation * p + self.translation
    }

    /// The camera center in world coordinates for a `T_cw` pose
    /// (`-Rᵀ t`).
    #[inline]
    pub fn camera_center(&self) -> Vec3 {
        -(self.rotation.inverse() * self.translation)
    }

    /// Translation distance to another transform.
    pub fn translation_distance(&self, other: &SE3) -> f64 {
        (self.translation - other.translation).norm()
    }

    /// Rotation angle (radians) to another transform.
    pub fn rotation_angle_to(&self, other: &SE3) -> f64 {
        self.rotation.angle_to(&other.rotation)
    }
}

impl Mul<Vec3> for SE3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, p: Vec3) -> Vec3 {
        self.transform(p)
    }
}

impl Mul for SE3 {
    type Output = SE3;
    #[inline]
    fn mul(self, rhs: SE3) -> SE3 {
        SE3::new(
            self.rotation * rhs.rotation,
            self.rotation * rhs.translation + self.translation,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn exp_log_roundtrip() {
        for w in [
            Vec3::new(0.1, -0.2, 0.3),
            Vec3::new(0.0, 0.0, 1.5),
            Vec3::new(1e-9, 0.0, 0.0),
            Vec3::new(0.7, 0.7, 0.7),
        ] {
            let r = SO3::exp(w);
            let w2 = r.log();
            assert!(
                (w - w2).norm() < 1e-8,
                "roundtrip failed for {w:?} -> {w2:?}"
            );
        }
    }

    #[test]
    fn exp_near_pi() {
        let w = Vec3::new(0.0, PI - 1e-8, 0.0);
        let r = SO3::exp(w);
        let w2 = r.log();
        assert!((w2.norm() - w.norm()).abs() < 1e-5);
    }

    #[test]
    fn rotation_composition() {
        let a = SO3::from_axis_angle(Vec3::Z, FRAC_PI_2);
        let b = SO3::from_axis_angle(Vec3::Z, FRAC_PI_2);
        let c = a * b; // 180 degrees about Z
        let v = c * Vec3::X;
        assert!((v + Vec3::X).norm() < 1e-12);
    }

    #[test]
    fn rotation_preserves_norm() {
        let r = SO3::exp(Vec3::new(0.3, 0.8, -0.4));
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!(((r * v).norm() - v.norm()).abs() < 1e-12);
    }

    #[test]
    fn se3_inverse_composition() {
        let t = SE3::new(
            SO3::exp(Vec3::new(0.2, -0.1, 0.4)),
            Vec3::new(1.0, 2.0, -0.5),
        );
        let id = t * t.inverse();
        assert!(id.translation.norm() < 1e-12);
        assert!(id.rotation.log().norm() < 1e-12);
    }

    #[test]
    fn camera_center() {
        // Camera at world (0,0,-2) looking down +Z with identity rotation:
        // T_cw = [I | (0,0,2)].
        let t = SE3::new(SO3::identity(), Vec3::new(0.0, 0.0, 2.0));
        assert!((t.camera_center() - Vec3::new(0.0, 0.0, -2.0)).norm() < 1e-12);
    }

    #[test]
    fn angle_to_self_is_zero() {
        let r = SO3::exp(Vec3::new(0.5, 0.0, 0.2));
        assert!(r.angle_to(&r) < 1e-12);
    }

    #[test]
    fn orthogonalized_handles_noise() {
        let mut m = SO3::exp(Vec3::new(0.1, 0.2, 0.3)).matrix();
        m.m[0][0] += 1e-3;
        let r = SO3::from_matrix_orthogonalized(m);
        let rt_r = r.matrix().transpose() * r.matrix();
        for i in 0..3 {
            for j in 0..3 {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!((rt_r.m[i][j] - e).abs() < 1e-12);
            }
        }
        assert!((r.matrix().det() - 1.0).abs() < 1e-12);
    }
}
