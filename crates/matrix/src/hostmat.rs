//! [`HostMat`]: a dense column-major host matrix over any [`MdScalar`],
//! with the golden-reference operations used to verify the simulated
//! device kernels.

use gpusim::DeviceMat;
use multidouble::{MdReal, MdScalar};
use rand::Rng;

/// Dense column-major matrix on the host.
#[derive(Clone, Debug, PartialEq)]
pub struct HostMat<S> {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Column-major storage: element `(r, c)` at `c * rows + r`.
    pub data: Vec<S>,
}

impl<S: MdScalar> HostMat<S> {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        HostMat {
            rows,
            cols,
            data: vec![S::zero(); rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, S::one());
        }
        m
    }

    /// Random matrix with entries uniform in `[-1, 1]` on every limb.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        HostMat {
            rows,
            cols,
            data: (0..rows * cols).map(|_| S::rand(rng)).collect(),
        }
    }

    /// Build from a row-major nested closure (convenient in tests).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut m = Self::zeros(rows, cols);
        for c in 0..cols {
            for r in 0..rows {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Element access.
    #[inline(always)]
    pub fn get(&self, r: usize, c: usize) -> S {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r]
    }

    /// Element assignment.
    #[inline(always)]
    pub fn set(&mut self, r: usize, c: usize, v: S) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r] = v;
    }

    /// Matrix-vector product `A x`, element at a time on purpose: the
    /// reference the kernels' column steps (`gpusim::shared::axpy`, with
    /// its lane path) are checked against, so it shares none of their code.
    pub fn matvec(&self, x: &[S]) -> Vec<S> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![S::zero(); self.rows];
        for c in 0..self.cols {
            let xc = x[c];
            for r in 0..self.rows {
                y[r] += self.get(r, c) * xc;
            }
        }
        y
    }

    /// Conjugate-transposed matrix-vector product `A^H x`.
    pub fn matvec_conj_t(&self, x: &[S]) -> Vec<S> {
        assert_eq!(x.len(), self.rows);
        let mut y = vec![S::zero(); self.cols];
        for c in 0..self.cols {
            let mut acc = S::zero();
            for r in 0..self.rows {
                acc += self.get(r, c).conj() * x[r];
            }
            y[c] = acc;
        }
        y
    }

    /// Matrix-matrix product `A * B`.
    pub fn matmul(&self, b: &HostMat<S>) -> HostMat<S> {
        assert_eq!(self.cols, b.rows);
        let mut c = HostMat::zeros(self.rows, b.cols);
        for j in 0..b.cols {
            for k in 0..self.cols {
                let bkj = b.get(k, j);
                if bkj.is_zero() {
                    continue;
                }
                for i in 0..self.rows {
                    let v = c.get(i, j) + self.get(i, k) * bkj;
                    c.set(i, j, v);
                }
            }
        }
        c
    }

    /// Conjugate transpose `A^H` (plain transpose for real scalars).
    pub fn conj_transpose(&self) -> HostMat<S> {
        let mut t = HostMat::zeros(self.cols, self.rows);
        for c in 0..self.cols {
            for r in 0..self.rows {
                t.set(c, r, self.get(r, c).conj());
            }
        }
        t
    }

    /// Frobenius norm as a real scalar.
    pub fn frobenius(&self) -> S::Real {
        let mut acc = <S::Real as MdReal>::zero();
        for v in &self.data {
            acc += v.norm_sqr();
        }
        acc.sqrt()
    }

    /// Residual `|| b - A x ||_2` as a real scalar.
    pub fn residual(&self, x: &[S], b: &[S]) -> S::Real {
        let ax = self.matvec(x);
        let mut acc = <S::Real as MdReal>::zero();
        for (bi, axi) in b.iter().zip(ax.iter()) {
            acc += (*bi - *axi).norm_sqr();
        }
        acc.sqrt()
    }

    /// Deviation of `Q` from unitarity: `|| Q^H Q - I ||_F`.
    pub fn orthogonality_defect(&self) -> S::Real {
        let qhq = self.conj_transpose().matmul(self);
        let mut acc = <S::Real as MdReal>::zero();
        for c in 0..qhq.cols {
            for r in 0..qhq.rows {
                let want = if r == c { S::one() } else { S::zero() };
                acc += (qhq.get(r, c) - want).norm_sqr();
            }
        }
        acc.sqrt()
    }

    /// `|| A - B ||_F`.
    pub fn diff_frobenius(&self, b: &HostMat<S>) -> S::Real {
        assert_eq!((self.rows, self.cols), (b.rows, b.cols));
        let mut acc = <S::Real as MdReal>::zero();
        for (x, y) in self.data.iter().zip(b.data.iter()) {
            acc += (*x - *y).norm_sqr();
        }
        acc.sqrt()
    }

    /// Largest below-diagonal magnitude (upper-triangularity check).
    pub fn max_below_diagonal(&self) -> f64 {
        let mut m = 0.0f64;
        for c in 0..self.cols {
            for r in (c + 1)..self.rows {
                m = m.max(self.get(r, c).norm_sqr().to_f64().sqrt());
            }
        }
        m
    }

    /// Upload to a device matrix (allocated by the caller's `Sim`).
    pub fn upload_to(&self, dev: &DeviceMat<S>) {
        assert_eq!((dev.rows, dev.cols), (self.rows, self.cols));
        dev.upload_col_major(&self.data);
    }

    /// Download a device matrix into a new host matrix.
    pub fn download_from(dev: &DeviceMat<S>) -> HostMat<S> {
        HostMat {
            rows: dev.rows,
            cols: dev.cols,
            data: dev.download_col_major(),
        }
    }

    /// Reference back substitution on an upper-triangular `self`
    /// (golden model for Algorithm 1).
    pub fn solve_upper(&self, b: &[S]) -> Vec<S> {
        assert_eq!(self.rows, self.cols);
        assert_eq!(b.len(), self.rows);
        let n = self.rows;
        let mut x = b.to_vec();
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.get(i, j) * x[j];
            }
            x[i] = acc / self.get(i, i);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidouble::{Complex, Dd, Qd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matvec_identity() {
        let m = HostMat::<Qd>::identity(4);
        let x: Vec<Qd> = (0..4).map(|i| Qd::from_f64(i as f64 + 1.0)).collect();
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn matmul_associates_on_small_case() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = HostMat::<Dd>::random(3, 4, &mut rng);
        let b = HostMat::<Dd>::random(4, 2, &mut rng);
        let c = HostMat::<Dd>::random(2, 5, &mut rng);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        let d = left.diff_frobenius(&right).to_f64();
        assert!(d < 1e-28, "associativity defect {d:e}");
    }

    #[test]
    fn conj_transpose_involutive() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = HostMat::<Complex<Dd>>::random(3, 5, &mut rng);
        assert_eq!(a.conj_transpose().conj_transpose(), a);
    }

    #[test]
    fn solve_upper_reference() {
        // [2 1; 0 4] x = [4; 8] -> x = [1; 2]... solve: x2 = 2, x1 = (4-2)/2 = 1
        let mut u = HostMat::<Qd>::zeros(2, 2);
        u.set(0, 0, Qd::from_f64(2.0));
        u.set(0, 1, Qd::from_f64(1.0));
        u.set(1, 1, Qd::from_f64(4.0));
        let x = u.solve_upper(&[Qd::from_f64(4.0), Qd::from_f64(8.0)]);
        assert_eq!(x[0].to_f64(), 1.0);
        assert_eq!(x[1].to_f64(), 2.0);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let m = HostMat::<Dd>::identity(3);
        let b = vec![Dd::from_f64(1.0); 3];
        assert_eq!(m.residual(&b, &b).to_f64(), 0.0);
    }

    #[test]
    fn orthogonality_defect_of_identity_is_zero() {
        let m = HostMat::<Qd>::identity(5);
        assert_eq!(m.orthogonality_defect().to_f64(), 0.0);
    }

    #[test]
    fn device_roundtrip() {
        use gpusim::{ExecMode, Gpu, Sim};
        let mut rng = StdRng::seed_from_u64(11);
        let h = HostMat::<Qd>::random(6, 3, &mut rng);
        let sim = Sim::new(Gpu::v100(), ExecMode::Sequential);
        let d = sim.alloc_mat::<Qd>(6, 3);
        h.upload_to(&d);
        assert_eq!(HostMat::download_from(&d), h);
    }
}
