//! 3×3 matrices in row-major order.

use crate::vec::Vec3;
use std::ops::{Add, Mul, Sub};

/// A 3×3 matrix, row-major.
///
/// # Example
///
/// ```
/// use edgeis_geometry::{Mat3, Vec3};
/// let m = Mat3::identity();
/// assert_eq!(m * Vec3::new(1.0, 2.0, 3.0), Vec3::new(1.0, 2.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Row-major entries: `m[r][c]`.
    pub m: [[f64; 3]; 3],
}

impl Default for Mat3 {
    fn default() -> Self {
        Self::identity()
    }
}

impl Mat3 {
    /// Builds a matrix from row-major entries.
    #[inline]
    pub const fn from_rows(m: [[f64; 3]; 3]) -> Self {
        Self { m }
    }

    /// Builds a matrix from three row vectors.
    #[inline]
    pub fn from_row_vecs(r0: Vec3, r1: Vec3, r2: Vec3) -> Self {
        Self {
            m: [[r0.x, r0.y, r0.z], [r1.x, r1.y, r1.z], [r2.x, r2.y, r2.z]],
        }
    }

    /// Builds a matrix from three column vectors.
    #[inline]
    pub fn from_col_vecs(c0: Vec3, c1: Vec3, c2: Vec3) -> Self {
        Self {
            m: [[c0.x, c1.x, c2.x], [c0.y, c1.y, c2.y], [c0.z, c1.z, c2.z]],
        }
    }

    /// The identity matrix.
    #[inline]
    pub const fn identity() -> Self {
        Self::from_rows([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    }

    /// The zero matrix.
    #[inline]
    pub const fn zero() -> Self {
        Self::from_rows([[0.0; 3]; 3])
    }

    /// Diagonal matrix with entries `d`.
    pub fn from_diagonal(d: Vec3) -> Self {
        Self::from_rows([[d.x, 0.0, 0.0], [0.0, d.y, 0.0], [0.0, 0.0, d.z]])
    }

    /// The skew-symmetric (hat) matrix of `v`, so that `hat(v) * w = v × w`.
    pub fn hat(v: Vec3) -> Self {
        Self::from_rows([[0.0, -v.z, v.y], [v.z, 0.0, -v.x], [-v.y, v.x, 0.0]])
    }

    /// Row `r` as a vector.
    #[inline]
    pub fn row(&self, r: usize) -> Vec3 {
        Vec3::new(self.m[r][0], self.m[r][1], self.m[r][2])
    }

    /// Column `c` as a vector.
    #[inline]
    pub fn col(&self, c: usize) -> Vec3 {
        Vec3::new(self.m[0][c], self.m[1][c], self.m[2][c])
    }

    /// Transpose.
    #[inline]
    pub fn transpose(&self) -> Self {
        let m = &self.m;
        Self::from_rows([
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        ])
    }

    /// Determinant.
    #[inline]
    pub fn det(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Trace.
    #[inline]
    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Matrix inverse via the adjugate.
    ///
    /// Returns `None` when the determinant is numerically zero.
    pub fn inverse(&self) -> Option<Self> {
        let d = self.det();
        if d.abs() < 1e-15 {
            return None;
        }
        let m = &self.m;
        let inv = |a: f64| a / d;
        Some(Self::from_rows([
            [
                inv(m[1][1] * m[2][2] - m[1][2] * m[2][1]),
                inv(m[0][2] * m[2][1] - m[0][1] * m[2][2]),
                inv(m[0][1] * m[1][2] - m[0][2] * m[1][1]),
            ],
            [
                inv(m[1][2] * m[2][0] - m[1][0] * m[2][2]),
                inv(m[0][0] * m[2][2] - m[0][2] * m[2][0]),
                inv(m[0][2] * m[1][0] - m[0][0] * m[1][2]),
            ],
            [
                inv(m[1][0] * m[2][1] - m[1][1] * m[2][0]),
                inv(m[0][1] * m[2][0] - m[0][0] * m[2][1]),
                inv(m[0][0] * m[1][1] - m[0][1] * m[1][0]),
            ],
        ]))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.m.iter().flatten().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Scales all entries by `s`.
    pub fn scaled(&self, s: f64) -> Self {
        let mut out = *self;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] *= s;
            }
        }
        out
    }

    /// Returns `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.m.iter().flatten().all(|v| v.is_finite())
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    #[inline]
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::zero();
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.row(r).dot(rhs.col(c));
            }
        }
        out
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    #[inline]
    fn add(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::zero();
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.m[r][c] + rhs.m[r][c];
            }
        }
        out
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    #[inline]
    fn sub(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::zero();
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.m[r][c] - rhs.m[r][c];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Mat3::identity() * v, v);
        let m = Mat3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]);
        assert_eq!(m * Mat3::identity(), m);
        assert_eq!(Mat3::identity() * m, m);
    }

    #[test]
    fn inverse_roundtrip() {
        let m = Mat3::from_rows([[2.0, 1.0, 0.5], [0.0, 3.0, -1.0], [1.0, 0.0, 4.0]]);
        let inv = m.inverse().unwrap();
        let prod = m * inv;
        for r in 0..3 {
            for c in 0..3 {
                let expected = if r == c { 1.0 } else { 0.0 };
                assert!((prod.m[r][c] - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn singular_inverse_is_none() {
        let m = Mat3::from_rows([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn hat_matrix_cross_product() {
        let v = Vec3::new(0.3, -1.2, 2.0);
        let w = Vec3::new(1.0, 0.5, -0.7);
        let hv = Mat3::hat(v) * w;
        let cross = v.cross(w);
        assert!((hv - cross).norm() < 1e-12);
    }

    #[test]
    fn det_and_trace() {
        let m = Mat3::from_diagonal(Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(m.det(), 24.0);
        assert_eq!(m.trace(), 9.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn col_row_accessors() {
        let m = Mat3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        assert_eq!(m.row(1), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(m.col(2), Vec3::new(3.0, 6.0, 9.0));
    }
}
