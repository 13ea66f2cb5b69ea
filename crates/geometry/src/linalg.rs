//! Small dense linear-algebra kernels: symmetric Jacobi eigendecomposition,
//! Gaussian elimination, Cholesky solves and a 3×3 SVD.
//!
//! These are the only solvers the visual-odometry stack needs: the normalized
//! 8-point algorithm (smallest eigenvector of a 9×9 Gram matrix), essential
//! matrix projection (3×3 SVD) and Gauss–Newton steps (6×6 SPD solve).

use crate::mat::Mat3;
use crate::vec::Vec3;

/// A small dense square symmetric matrix stored row-major in a `Vec`.
#[derive(Debug, Clone, PartialEq)]
pub struct SymMat {
    n: usize,
    a: Vec<f64>,
}

impl SymMat {
    /// Creates an `n`×`n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            a: vec![0.0; n * n],
        }
    }

    /// Entry accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= n` or `c >= n`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.n && c < self.n);
        self.a[r * self.n + c]
    }

    /// Sets entry `(r, c)` and mirrors it to `(c, r)`.
    pub fn set_sym(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * self.n + c] = v;
        self.a[c * self.n + r] = v;
    }

    /// Builds the Gram matrix `AᵀA` from `rows` of width `n`.
    pub fn gram<const N: usize>(rows: &[[f64; N]]) -> Self {
        let mut g = Self::zeros(N);
        for row in rows {
            for i in 0..N {
                for j in i..N {
                    g.a[i * N + j] += row[i] * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..N {
            for j in 0..i {
                g.a[i * N + j] = g.a[j * N + i];
            }
        }
        g
    }
}

/// Result of a symmetric eigendecomposition: `values[k]` with column
/// eigenvector `vectors[k]`, sorted ascending by eigenvalue.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// `vectors[k]` is the unit eigenvector for `values[k]`.
    pub vectors: Vec<Vec<f64>>,
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Robust and exact enough for the ≤9×9 systems used here. Runs a fixed
/// maximum of 100 sweeps or until off-diagonal mass is negligible.
pub fn sym_eigen(m: &SymMat) -> SymEigen {
    let n = m.n;
    let mut a = m.a.clone();
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    let idx = |r: usize, c: usize| r * n + c;
    for _sweep in 0..100 {
        let mut off = 0.0;
        for r in 0..n {
            for c in (r + 1)..n {
                off += a[idx(r, c)] * a[idx(r, c)];
            }
        }
        if off < 1e-24 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[idx(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a[idx(p, p)];
                let aqq = a[idx(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                for k in 0..n {
                    let akp = a[idx(k, p)];
                    let akq = a[idx(k, q)];
                    a[idx(k, p)] = c * akp - s * akq;
                    a[idx(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[idx(p, k)];
                    let aqk = a[idx(q, k)];
                    a[idx(p, k)] = c * apk - s * aqk;
                    a[idx(q, k)] = s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[idx(k, p)];
                    let vkq = v[idx(k, q)];
                    v[idx(k, p)] = c * vkp - s * vkq;
                    v[idx(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        a[idx(i, i)]
            .partial_cmp(&a[idx(j, j)])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let values = order.iter().map(|&i| a[idx(i, i)]).collect();
    let vectors = order
        .iter()
        .map(|&k| (0..n).map(|r| v[idx(r, k)]).collect())
        .collect();
    SymEigen { values, vectors }
}

/// Solves the dense system `A x = b` with Gaussian elimination and partial
/// pivoting. `a` is row-major `n`×`n` and is consumed as scratch.
///
/// Returns `None` when the matrix is numerically singular.
pub fn solve_dense(mut a: Vec<f64>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    assert_eq!(a.len(), n * n, "matrix shape mismatch");
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for r in (col + 1)..n {
            let v = a[r * n + col].abs();
            if v > best {
                best = v;
                pivot = r;
            }
        }
        if best < 1e-14 {
            return None;
        }
        if pivot != col {
            for c in 0..n {
                a.swap(col * n + c, pivot * n + c);
            }
            b.swap(col, pivot);
        }
        let diag = a[col * n + col];
        for r in (col + 1)..n {
            let factor = a[r * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                a[r * n + c] -= factor * a[col * n + c];
            }
            b[r] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut acc = b[r];
        for c in (r + 1)..n {
            acc -= a[r * n + c] * x[c];
        }
        x[r] = acc / a[r * n + r];
    }
    Some(x)
}

/// Solves the 6×6 SPD system that arises in pose-only Gauss–Newton steps.
///
/// Falls back to a damped solve when the Hessian is near-singular.
pub fn solve_spd6(h: &[[f64; 6]; 6], g: &[f64; 6]) -> Option<[f64; 6]> {
    let mut a = Vec::with_capacity(36);
    for row in h {
        a.extend_from_slice(row);
    }
    let x = solve_dense(a, g.to_vec()).or_else(|| {
        // Levenberg-style damping rescue.
        let mut a = Vec::with_capacity(36);
        for (r, row) in h.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                a.push(if r == c {
                    v + 1e-6 * (1.0 + v.abs())
                } else {
                    v
                });
            }
        }
        solve_dense(a, g.to_vec())
    })?;
    let mut out = [0.0; 6];
    out.copy_from_slice(&x);
    Some(out)
}

/// Singular value decomposition of a 3×3 matrix: `m = U diag(s) Vᵀ`.
///
/// Built on the symmetric Jacobi eigensolver applied to `mᵀm` (for `V` and
/// the singular values) with `U` recovered column-wise. Singular values are
/// returned in descending order; `U` and `V` have determinant +1 or −1 (not
/// normalized to rotations — callers that need rotations fix signs
/// themselves).
#[derive(Debug, Clone)]
pub struct Svd3 {
    /// Left singular vectors (columns).
    pub u: Mat3,
    /// Singular values, descending.
    pub s: Vec3,
    /// Right singular vectors (columns).
    pub v: Mat3,
}

/// Computes the SVD of a 3×3 matrix.
pub fn svd3(m: &Mat3) -> Svd3 {
    // V from eigenvectors of MᵀM (ascending eigenvalues -> reverse).
    let mtm = m.transpose() * *m;
    let mut g = SymMat::zeros(3);
    for r in 0..3 {
        for c in 0..3 {
            g.a[r * 3 + c] = mtm.m[r][c];
        }
    }
    let eig = sym_eigen(&g);
    // Descending order.
    let order = [2usize, 1, 0];
    let mut vcols = [Vec3::ZERO; 3];
    let mut svals = [0.0f64; 3];
    for (i, &k) in order.iter().enumerate() {
        vcols[i] = Vec3::new(eig.vectors[k][0], eig.vectors[k][1], eig.vectors[k][2]);
        svals[i] = eig.values[k].max(0.0).sqrt();
    }
    let v = Mat3::from_col_vecs(vcols[0], vcols[1], vcols[2]);

    // U columns: u_i = M v_i / s_i, with Gram-Schmidt fallback for tiny s.
    let mut ucols = [Vec3::ZERO; 3];
    for i in 0..3 {
        let mv = *m * vcols[i];
        if svals[i] > 1e-12 {
            ucols[i] = mv / svals[i];
        }
    }
    // Orthonormalize / fill degenerate columns.
    for i in 0..3 {
        let mut u = ucols[i];
        for prev in &ucols[..i] {
            u -= *prev * prev.dot(u);
        }
        if u.norm() < 1e-9 {
            // Choose any vector orthogonal to previous columns.
            for cand in [Vec3::X, Vec3::Y, Vec3::Z] {
                let mut c = cand;
                for prev in &ucols[..i] {
                    c -= *prev * prev.dot(c);
                }
                if c.norm() > 1e-6 {
                    u = c;
                    break;
                }
            }
        }
        ucols[i] = u.normalized();
    }
    let u = Mat3::from_col_vecs(ucols[0], ucols[1], ucols[2]);

    Svd3 {
        u,
        s: Vec3::new(svals[0], svals[1], svals[2]),
        v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(svd: &Svd3) -> Mat3 {
        svd.u * Mat3::from_diagonal(svd.s) * svd.v.transpose()
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let mut m = SymMat::zeros(3);
        m.set_sym(0, 0, 3.0);
        m.set_sym(1, 1, 1.0);
        m.set_sym(2, 2, 2.0);
        let e = sym_eigen(&m);
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn jacobi_known_eigenpair() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let mut m = SymMat::zeros(2);
        m.set_sym(0, 0, 2.0);
        m.set_sym(1, 1, 2.0);
        m.set_sym(0, 1, 1.0);
        let e = sym_eigen(&m);
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        // Eigenvector for 1 is (1,-1)/sqrt(2) up to sign.
        let v = &e.vectors[0];
        assert!((v[0] + v[1]).abs() < 1e-10);
    }

    #[test]
    fn gram_matches_manual() {
        let rows = [[1.0, 2.0], [3.0, 4.0]];
        let g = SymMat::gram(&rows);
        assert_eq!(g.get(0, 0), 10.0);
        assert_eq!(g.get(0, 1), 14.0);
        assert_eq!(g.get(1, 1), 20.0);
    }

    #[test]
    fn solve_dense_simple() {
        // x + y = 3 ; x - y = 1 -> x=2, y=1.
        let x = solve_dense(vec![1.0, 1.0, 1.0, -1.0], vec![3.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_dense_singular_is_none() {
        assert!(solve_dense(vec![1.0, 2.0, 2.0, 4.0], vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn svd3_reconstructs_random_matrices() {
        let samples = [
            Mat3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]),
            Mat3::from_rows([[0.2, -1.0, 0.0], [3.0, 0.1, -2.0], [1.0, 1.0, 1.0]]),
            Mat3::identity(),
            Mat3::hat(crate::vec::Vec3::new(1.0, 2.0, 3.0)), // rank 2
        ];
        for m in samples {
            let svd = svd3(&m);
            let r = reconstruct(&svd);
            assert!(
                (r - m).frobenius_norm() < 1e-8,
                "bad reconstruction: {m:?} -> {r:?}"
            );
            assert!(svd.s.x >= svd.s.y && svd.s.y >= svd.s.z);
            assert!(svd.s.z >= -1e-12);
        }
    }

    #[test]
    fn svd3_orthogonal_factors() {
        let m = Mat3::from_rows([[2.0, 0.5, -1.0], [0.0, 1.5, 0.3], [1.0, -0.2, 0.8]]);
        let svd = svd3(&m);
        let utu = svd.u.transpose() * svd.u;
        let vtv = svd.v.transpose() * svd.v;
        for r in 0..3 {
            for c in 0..3 {
                let e = if r == c { 1.0 } else { 0.0 };
                assert!((utu.m[r][c] - e).abs() < 1e-9);
                assert!((vtv.m[r][c] - e).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn spd6_solve_identity() {
        let mut h = [[0.0; 6]; 6];
        for (i, row) in h.iter_mut().enumerate() {
            row[i] = 2.0;
        }
        let g = [2.0; 6];
        let x = solve_spd6(&h, &g).unwrap();
        for v in x {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }
}
