//! A dense `f32` matrix for the GNN kernels.
//!
//! Row-major storage. The GCNs run on back-traced sub-graphs of a few
//! dozen nodes at feature widths of 16 or less, so each product is one
//! plain loop on the calling thread. Every output element accumulates
//! its contributions in ascending inner-index order as separate adds, so
//! no float reassociation ever happens and each product is **bitwise
//! identical** to its naive reference in [`reference`](crate::reference).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use m3d_gnn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::eye(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization, deterministic in `seed`.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The flat row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `self · other`.
    ///
    /// One output row at a time, with the shared dimension unrolled by
    /// four. Each output element receives its `k` contributions in
    /// ascending order as separate adds, so the result is **bitwise
    /// identical** to [`matmul_naive`](crate::reference::matmul_naive)
    /// (the property tests assert exactly that).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (kd, n) = (self.cols, other.cols);
        let mut out = Matrix::zeros(self.rows, n);
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = out.row_mut(i);
            let mut k = 0;
            while k + 4 <= kd {
                let (a0, a1, a2, a3) = (arow[k], arow[k + 1], arow[k + 2], arow[k + 3]);
                let (b0, b1) = (other.row(k), other.row(k + 1));
                let (b2, b3) = (other.row(k + 2), other.row(k + 3));
                for (j, o) in orow.iter_mut().enumerate() {
                    let mut v = *o;
                    v += a0 * b0[j];
                    v += a1 * b1[j];
                    v += a2 * b2[j];
                    v += a3 * b3[j];
                    *o = v;
                }
                k += 4;
            }
            while k < kd {
                let av = arow[k];
                for (o, &bv) in orow.iter_mut().zip(other.row(k)) {
                    *o += av * bv;
                }
                k += 1;
            }
        }
        out
    }

    /// `selfᵀ · other` without materializing the transpose.
    ///
    /// Shared-row-outer accumulation: for each row `r` of the operands,
    /// `self[r][i] · other[r][·]` is added into every output row `i`.
    /// Each output element receives its contributions in ascending `r`
    /// order as separate adds, so the result is bitwise identical to
    /// [`t_matmul_naive`](crate::reference::t_matmul_naive).
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let brow = other.row(r);
            for (i, &av) in self.row(r).iter().enumerate() {
                for (o, &bv) in out.row_mut(i).iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// `self · otherᵀ`.
    ///
    /// Four independent dot-product accumulators per step: each is a
    /// single ascending-`k` chain, so the result is bitwise identical to
    /// [`matmul_t_naive`](crate::reference::matmul_t_naive), and the four
    /// chains give the loop instruction-level parallelism that one chain
    /// at a time lacks.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let bn = other.rows;
        let mut out = Matrix::zeros(self.rows, bn);
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = out.row_mut(i);
            let mut j = 0;
            while j + 4 <= bn {
                let (b0, b1) = (other.row(j), other.row(j + 1));
                let (b2, b3) = (other.row(j + 2), other.row(j + 3));
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for (k, &av) in arow.iter().enumerate() {
                    s0 += av * b0[k];
                    s1 += av * b1[k];
                    s2 += av * b2[k];
                    s3 += av * b3[k];
                }
                orow[j..j + 4].copy_from_slice(&[s0, s1, s2, s3]);
                j += 4;
            }
            while j < bn {
                let mut s = 0.0f32;
                for (&x, &y) in arow.iter().zip(other.row(j)) {
                    s += x * y;
                }
                orow[j] = s;
                j += 1;
            }
        }
        out
    }

    /// `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self *= s`.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sets every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Column means (used by graph mean-pooling and PCA centering).
    pub fn col_means(&self) -> Vec<f32> {
        let mut means = vec![0.0f32; self.cols];
        for i in 0..self.rows {
            for (m, &v) in means.iter_mut().zip(self.row(i)) {
                *m += v;
            }
        }
        if self.rows > 0 {
            let inv = 1.0 / self.rows as f32;
            for m in &mut means {
                *m *= inv;
            }
        }
        means
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_against_hand_computed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn transposed_products_agree_with_naive() {
        let a = Matrix::xavier(5, 3, 1);
        let b = Matrix::xavier(5, 4, 2);
        let t1 = a.t_matmul(&b);
        // naive Aᵀ B
        for i in 0..3 {
            for j in 0..4 {
                let want: f32 = (0..5).map(|r| a[(r, i)] * b[(r, j)]).sum();
                assert!((t1[(i, j)] - want).abs() < 1e-5);
            }
        }
        let c = Matrix::xavier(4, 3, 3);
        let t2 = a.matmul_t(&c); // 5×4
        for i in 0..5 {
            for j in 0..4 {
                let want: f32 = (0..3).map(|k| a[(i, k)] * c[(j, k)]).sum();
                assert!((t2[(i, j)] - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::xavier(4, 4, 9);
        let prod = a.matmul(&Matrix::eye(4));
        for (x, y) in prod.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn col_means_and_norm() {
        let a = Matrix::from_rows(&[&[1.0, 3.0], &[3.0, 5.0]]);
        assert_eq!(a.col_means(), vec![2.0, 4.0]);
        assert!((a.norm() - (1.0f32 + 9.0 + 9.0 + 25.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let a = Matrix::xavier(10, 10, 5);
        assert_eq!(a, Matrix::xavier(10, 10, 5));
        let bound = (6.0f32 / 20.0).sqrt();
        assert!(a.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}

#[cfg(test)]
mod kernel_reference_tests {
    //! The kernels must be *bitwise* equal to the naive triple-loop
    //! references: each output element accumulates its terms in the same
    //! ascending-k order, so no float tolerance is needed (and the GNN's
    //! bitwise thread-count determinism can rest on these kernels). The
    //! sweep over edge shapes lives in `tests/kernel_equiv.rs`.

    use super::*;
    use crate::reference::{matmul_naive, matmul_t_naive, t_matmul_naive};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random matrix with negatives and a sprinkling of exact zeros
    /// (zeros exercise what used to be a sparsity fast path).
    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| {
                if rng.gen_range(0..4usize) == 0 {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_bitwise_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: element {i} differs ({g} vs {w})"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn kernels_match_naive_bitwise(
            m in 1usize..18,
            k in 1usize..18,
            n in 1usize..18,
            seed in 0u64..1_000_000,
        ) {
            let a = random_matrix(m, k, seed);
            let b = random_matrix(k, n, seed.wrapping_add(1));
            assert_bitwise_eq(&a.matmul(&b), &matmul_naive(&a, &b), "matmul");

            let at = random_matrix(k, m, seed.wrapping_add(2));
            let bt = random_matrix(k, n, seed.wrapping_add(3));
            assert_bitwise_eq(&at.t_matmul(&bt), &t_matmul_naive(&at, &bt), "t_matmul");

            let c = random_matrix(n, k, seed.wrapping_add(4));
            assert_bitwise_eq(&a.matmul_t(&c), &matmul_t_naive(&a, &c), "matmul_t");
        }
    }
}
