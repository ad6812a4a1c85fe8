//! A dense `f32` matrix for the GNN kernels.
//!
//! Row-major storage. The product kernels are cache-blocked and
//! register-tiled, and split their output rows into panels across the
//! `m3d-par` pool — while staying **bitwise identical** to the naive
//! triple-loop references in [`reference`](crate::reference): every
//! output element accumulates its contributions in ascending inner-index
//! order as separate adds, so no float reassociation ever happens and the
//! result is the same at any thread count, tile size or block size.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Register-tile height (output rows held live per inner loop).
const MR: usize = 4;
/// Register-tile width (output columns held live per inner loop).
const NR: usize = 8;
/// Cache-block depth: the shared dimension is walked in panels of this
/// many rows so the streamed operand panel stays hot across a row tile.
const KB: usize = 128;
/// Outputs with fewer rows than this stay on the serial path: panel
/// buffers and their reassembly cost more than they save.
const PAR_MIN_ROWS: usize = 64;
/// Outputs at most this wide skip the register-tile grid for a full-row
/// kernel: a whole output row fits in registers anyway, and the tile
/// load/store bookkeeping costs more than it saves. This covers the GNN
/// training shapes (hidden width ≤ 16), where the full-row kernel
/// measures ~2× faster than the tiled one.
pub(crate) const NARROW_N: usize = 2 * NR;

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
    /// Cache-blocked (`KB`-deep panels of B), register-tiled (`MR × NR`
    /// accumulator tiles) and row-panel-parallel: disjoint ranges of
    /// output rows are computed on the `m3d-par` pool and reassembled in
    /// order. Each output element receives its `k` contributions in
    /// ascending order as separate adds, so the result is **bitwise
    /// identical** to [`matmul_naive`](crate::reference::matmul_naive) at
    /// any thread count (the property tests assert exactly that).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let n = other.cols;
        let work = (self.rows * n * self.cols) as u64;
        Self::build_rows(self.rows, n, work, |rows, out| {
            matmul_panel(&self.data, self.cols, &other.data, n, rows, out);
        })
    }

    /// `selfᵀ · other` without materializing the transpose.
    ///
    /// Blocked over the shared row dimension, register-tiled, and
    /// parallel over panels of *output* rows (columns of `self`); bitwise
    /// identical to [`t_matmul_naive`](crate::reference::t_matmul_naive).
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let n = other.cols;
        let work = (self.cols * n * self.rows) as u64;
        Self::build_rows(self.cols, n, work, |rows, out| {
            t_matmul_panel(&self.data, self.rows, self.cols, &other.data, n, rows, out);
        })
    }

    /// `self · otherᵀ`.
    ///
    /// Dot-product kernel over `MR × NR` accumulator tiles with the shared
    /// dimension cache-blocked; parallel over output-row panels; bitwise
    /// identical to [`matmul_t_naive`](crate::reference::matmul_t_naive).
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let work = (self.rows * other.rows * self.cols) as u64;
        Self::build_rows(self.rows, other.rows, work, |rows, out| {
            matmul_t_panel(&self.data, self.cols, &other.data, other.rows, rows, out);
        })
    }

    /// Builds a `rows × cols` matrix by running `f` over disjoint
    /// output-row panels — serially when the pool is width 1, the output
    /// is small, or the estimated `work` (in element-units ≈ one float
    /// multiply-add each) is below the [`m3d_par::par_gate`] break-even —
    /// otherwise on the pool with the panels reassembled in range order.
    /// `f(range, out)` must fill `out` (zeroed, `range.len() * cols`
    /// long) with rows `range` of the result; since every row is computed
    /// identically regardless of which panel it lands in, the output is
    /// bitwise identical at any thread count *and* either side of the
    /// cost gate.
    pub(crate) fn build_rows(
        rows: usize,
        cols: usize,
        work: u64,
        f: impl Fn(Range<usize>, &mut [f32]) + Sync,
    ) -> Matrix {
        let mut out = Matrix::zeros(rows, cols);
        if m3d_par::num_threads() <= 1 || rows < PAR_MIN_ROWS || m3d_par::par_gate(work) <= 1 {
            f(0..rows, &mut out.data);
            return out;
        }
        let panels = m3d_par::par_ranges(rows, |r| {
            let mut buf = vec![0.0f32; r.len() * cols];
            f(r.clone(), &mut buf);
            buf
        });
        let mut off = 0;
        for p in panels {
            out.data[off..off + p.len()].copy_from_slice(&p);
            off += p.len();
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

/// True CSR sparse × dense product: `out[i][j] = Σ_{nz ∈ row i} v(nz) ·
/// b[indices[nz]][j]` with the nonzeros of each row walked in ascending
/// order. `vals: None` means unit values, accumulated as **pure adds**
/// (no multiply), which is what makes this kernel bitwise equal to the
/// add-only mean-aggregation inner loop; `vals: Some(v)` scales each
/// nonzero's contribution (one value per nonzero, aligned with
/// `indices`).
///
/// The kernel walks each row's nonzeros in `KB`-sized panels with
/// `NR`-wide register tiles over the dense columns and the nonzero walk
/// unrolled by four; every output element still receives its
/// contributions in ascending nonzero order as separate adds, so the
/// result is bitwise identical to [`spmm_naive`](crate::reference::spmm_naive)
/// for any panel or tile size — and at any thread count (output-row
/// panels fan out via the pool).
///
/// # Panics
///
/// Panics if `offsets` is empty, its last entry doesn't cover `indices`,
/// `vals` (when present) isn't nonzero-aligned, or a column index is out
/// of range for `b`.
pub fn spmm(offsets: &[u32], indices: &[u32], vals: Option<&[f32]>, b: &Matrix) -> Matrix {
    assert!(!offsets.is_empty(), "offsets must have rows + 1 entries");
    assert_eq!(
        *offsets.last().expect("nonempty") as usize,
        indices.len(),
        "offsets must cover indices"
    );
    if let Some(v) = vals {
        assert_eq!(v.len(), indices.len(), "one value per nonzero");
    }
    let rows = offsets.len() - 1;
    let n = b.cols();
    let work = indices.len() as u64 * n as u64;
    Matrix::build_rows(rows, n, work, |r, out| {
        spmm_panel(offsets, indices, vals, b.data(), n, r, out);
    })
}

/// Rows `rows` of the CSR sparse × dense product into `out` (`out` is the
/// zeroed panel buffer, `rows.len() * n` long). `offsets` index
/// absolutely into `indices`/`vals`; column indices address rows of the
/// dense operand `b` (row-major, `n` wide). Shared by [`spmm`] and the
/// wide aggregation paths of [`GcnGraph`](crate::GcnGraph).
pub(crate) fn spmm_panel(
    offsets: &[u32],
    indices: &[u32],
    vals: Option<&[f32]>,
    b: &[f32],
    n: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    if n == 0 {
        return;
    }
    if n <= NARROW_N {
        // Full-row kernel: the whole output row stays hot, one ascending
        // pass over the nonzeros.
        for i in rows.clone() {
            let o0 = (i - rows.start) * n;
            let orow = &mut out[o0..o0 + n];
            for nz in offsets[i] as usize..offsets[i + 1] as usize {
                let brow = &b[indices[nz] as usize * n..][..n];
                match vals {
                    Some(v) => {
                        let s = v[nz];
                        for (o, &x) in orow.iter_mut().zip(brow) {
                            *o += s * x;
                        }
                    }
                    None => {
                        for (o, &x) in orow.iter_mut().zip(brow) {
                            *o += x;
                        }
                    }
                }
            }
        }
        return;
    }
    // Wide outputs: per row, KB-sized nonzero panels; per panel, NR-wide
    // register tiles over the dense columns with the nonzero walk
    // unrolled by four. The panel keeps the ≤KB gathered `b` rows hot
    // across the column tiles; the register tile keeps the accumulators
    // out of memory across the nonzero walk. Ascending-nonzero order per
    // element is preserved by construction (panels ascend, the unroll
    // adds in order).
    for i in rows.clone() {
        let o0 = (i - rows.start) * n;
        let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
        let mut p0 = s;
        while p0 < e {
            let p1 = (p0 + KB).min(e);
            let mut j = 0;
            while j < n {
                let nw = NR.min(n - j);
                let mut acc = [0.0f32; NR];
                acc[..nw].copy_from_slice(&out[o0 + j..o0 + j + nw]);
                let mut nz = p0;
                while nz + 4 <= p1 {
                    let b0 = &b[indices[nz] as usize * n + j..][..nw];
                    let b1 = &b[indices[nz + 1] as usize * n + j..][..nw];
                    let b2 = &b[indices[nz + 2] as usize * n + j..][..nw];
                    let b3 = &b[indices[nz + 3] as usize * n + j..][..nw];
                    match vals {
                        Some(v) => {
                            let (v0, v1, v2, v3) = (v[nz], v[nz + 1], v[nz + 2], v[nz + 3]);
                            for l in 0..nw {
                                let mut a = acc[l];
                                a += v0 * b0[l];
                                a += v1 * b1[l];
                                a += v2 * b2[l];
                                a += v3 * b3[l];
                                acc[l] = a;
                            }
                        }
                        None => {
                            for l in 0..nw {
                                let mut a = acc[l];
                                a += b0[l];
                                a += b1[l];
                                a += b2[l];
                                a += b3[l];
                                acc[l] = a;
                            }
                        }
                    }
                    nz += 4;
                }
                while nz < p1 {
                    let brow = &b[indices[nz] as usize * n + j..][..nw];
                    match vals {
                        Some(v) => {
                            let s = v[nz];
                            for (a, &x) in acc[..nw].iter_mut().zip(brow) {
                                *a += s * x;
                            }
                        }
                        None => {
                            for (a, &x) in acc[..nw].iter_mut().zip(brow) {
                                *a += x;
                            }
                        }
                    }
                    nz += 1;
                }
                out[o0 + j..o0 + j + nw].copy_from_slice(&acc[..nw]);
                j += nw;
            }
            p0 = p1;
        }
    }
}

/// Shared blocked driver for the `A·B`-shaped kernels:
/// `out[i][j] += Σ_k av(k, i) · b[k·n + j]`, with `k` walked in ascending
/// order through `KB`-deep cache blocks and an `MR × NR` register-tile
/// grid over the output panel. Because every output element sees its `k`
/// contributions in ascending order as separate adds, the result is
/// bitwise identical to the naive triple loop for any `KB`/`MR`/`NR`.
fn panel_driver(
    kd: usize,
    b: &[f32],
    n: usize,
    rows: Range<usize>,
    out: &mut [f32],
    av: impl Fn(usize, usize) -> f32,
) {
    if n == 0 {
        return;
    }
    for k0 in (0..kd).step_by(KB) {
        let kend = (k0 + KB).min(kd);
        let mut i = rows.start;
        while i < rows.end {
            let mh = MR.min(rows.end - i);
            let o0 = (i - rows.start) * n;
            let mut j = 0;
            while j < n {
                let nw = NR.min(n - j);
                let mut acc = [[0.0f32; NR]; MR];
                for (mi, accr) in acc.iter_mut().enumerate().take(mh) {
                    let base = o0 + mi * n + j;
                    accr[..nw].copy_from_slice(&out[base..base + nw]);
                }
                for k in k0..kend {
                    let brow = &b[k * n + j..k * n + j + nw];
                    for (mi, accr) in acc.iter_mut().enumerate().take(mh) {
                        let v = av(k, i + mi);
                        for (s, &bv) in accr[..nw].iter_mut().zip(brow) {
                            *s += v * bv;
                        }
                    }
                }
                for (mi, accr) in acc.iter().enumerate().take(mh) {
                    let base = o0 + mi * n + j;
                    out[base..base + nw].copy_from_slice(&accr[..nw]);
                }
                j += nw;
            }
            i += mh;
        }
    }
}

/// Rows `rows` of `A·B` into `out` (`A` is `? × kd`, `B` is `kd × n`).
fn matmul_panel(a: &[f32], kd: usize, b: &[f32], n: usize, rows: Range<usize>, out: &mut [f32]) {
    if n <= NARROW_N {
        // Full-row kernel, `k` unrolled by four: each output element still
        // receives its `k` contributions in ascending order as separate
        // adds, so this stays bitwise equal to the naive reference.
        for i in rows.clone() {
            let arow = &a[i * kd..(i + 1) * kd];
            let o0 = (i - rows.start) * n;
            let orow = &mut out[o0..o0 + n];
            let mut k = 0;
            while k + 4 <= kd {
                let (a0, a1, a2, a3) = (arow[k], arow[k + 1], arow[k + 2], arow[k + 3]);
                let b0 = &b[k * n..(k + 1) * n];
                let b1 = &b[(k + 1) * n..(k + 2) * n];
                let b2 = &b[(k + 2) * n..(k + 3) * n];
                let b3 = &b[(k + 3) * n..(k + 4) * n];
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
                let brow = &b[k * n..(k + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
                k += 1;
            }
        }
        return;
    }
    panel_driver(kd, b, n, rows, out, |k, i| a[i * kd + k]);
}

/// Rows `rows` of `Aᵀ·B` into `out` (`A` is `ar × ac`, `B` is `ar × n`;
/// output rows index columns of `A`).
fn t_matmul_panel(
    a: &[f32],
    ar: usize,
    ac: usize,
    b: &[f32],
    n: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    if (MR..=NARROW_N).contains(&n) {
        // Shared-row-outer accumulation: for each row `r` of the operands,
        // scatter `a[r][i] · b[r][·]` into every output row of the panel.
        // Each output element receives its contributions in ascending `r`
        // order as separate adds — bitwise equal to the naive reference —
        // and the panel (at most `rows.len() × NARROW_N` floats, i.e. the
        // weight-gradient shape in training) stays cache-hot across `r`.
        for r in 0..ar {
            let brow = &b[r * n..(r + 1) * n];
            let arow = &a[r * ac..(r + 1) * ac];
            for i in rows.clone() {
                let av = arow[i];
                let o0 = (i - rows.start) * n;
                for (o, &bv) in out[o0..o0 + n].iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        return;
    }
    panel_driver(ar, b, n, rows, out, |r, i| a[r * ac + i]);
}

/// Rows `rows` of `A·Bᵀ` into `out` (`A` is `? × kd`, `B` is `bn × kd`).
/// Both operands stream stride-1 over the `KB`-blocked shared dimension;
/// the `MR × NR` tile keeps the touched `A`/`B` rows hot across the tile.
fn matmul_t_panel(a: &[f32], kd: usize, b: &[f32], bn: usize, rows: Range<usize>, out: &mut [f32]) {
    if bn == 0 {
        return;
    }
    if bn <= NARROW_N {
        // Four independent dot-product accumulators per step: each is a
        // single ascending-`k` chain (bitwise equal to the naive
        // reference), and the four chains give the ILP the one-element-
        // at-a-time tile loop lacks at narrow widths.
        for i in rows.clone() {
            let arow = &a[i * kd..(i + 1) * kd];
            let o0 = (i - rows.start) * bn;
            let mut j = 0;
            while j + 4 <= bn {
                let b0 = &b[j * kd..(j + 1) * kd];
                let b1 = &b[(j + 1) * kd..(j + 2) * kd];
                let b2 = &b[(j + 2) * kd..(j + 3) * kd];
                let b3 = &b[(j + 3) * kd..(j + 4) * kd];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for (k, &av) in arow.iter().enumerate() {
                    s0 += av * b0[k];
                    s1 += av * b1[k];
                    s2 += av * b2[k];
                    s3 += av * b3[k];
                }
                out[o0 + j] = s0;
                out[o0 + j + 1] = s1;
                out[o0 + j + 2] = s2;
                out[o0 + j + 3] = s3;
                j += 4;
            }
            while j < bn {
                let brow = &b[j * kd..(j + 1) * kd];
                let mut s = 0.0f32;
                for (&x, &y) in arow.iter().zip(brow) {
                    s += x * y;
                }
                out[o0 + j] = s;
                j += 1;
            }
        }
        return;
    }
    for k0 in (0..kd).step_by(KB) {
        let kend = (k0 + KB).min(kd);
        let mut i = rows.start;
        while i < rows.end {
            let mh = MR.min(rows.end - i);
            let o0 = (i - rows.start) * bn;
            let mut j = 0;
            while j < bn {
                let nw = NR.min(bn - j);
                for mi in 0..mh {
                    let arow = &a[(i + mi) * kd + k0..(i + mi) * kd + kend];
                    let orow = &mut out[o0 + mi * bn + j..o0 + mi * bn + j + nw];
                    for (nj, o) in orow.iter_mut().enumerate() {
                        let brow = &b[(j + nj) * kd + k0..(j + nj) * kd + kend];
                        let mut s = *o;
                        for (&x, &y) in arow.iter().zip(brow) {
                            s += x * y;
                        }
                        *o = s;
                    }
                }
                j += nw;
            }
            i += mh;
        }
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
    //! The blocked kernels must be *bitwise* equal to the naive
    //! triple-loop references: each output element accumulates its terms
    //! in the same ascending-k order, so no float tolerance is needed (and
    //! the GNN's bitwise thread-count determinism can rest on these
    //! kernels). The 1-vs-N-thread sweep over edge shapes lives in
    //! `tests/kernel_equiv.rs`.

    use super::*;
    use crate::reference::{matmul_naive, matmul_t_naive, spmm_naive, t_matmul_naive};
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
        fn blocked_kernels_match_naive_bitwise(
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

    /// A random CSR: per row, a sorted, deduped set of column indices
    /// into `n_cols` rows of the dense operand.
    fn random_csr(rows: usize, n_cols: usize, avg_nnz: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut offsets = vec![0u32];
        let mut indices = Vec::new();
        for _ in 0..rows {
            let k = rng.gen_range(0..=2 * avg_nnz).min(n_cols);
            let mut row: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n_cols as u32)).collect();
            row.sort_unstable();
            row.dedup();
            indices.extend_from_slice(&row);
            offsets.push(indices.len() as u32);
        }
        (offsets, indices)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The tiled SpMM must be bitwise equal to the naive nonzero walk
        /// for unit and scaled values, across the narrow/wide column
        /// boundary and nonzero counts straddling the KB panel.
        #[test]
        fn spmm_matches_naive_bitwise(
            rows in 1usize..40,
            bcols in 1usize..40,
            brows in 1usize..60,
            avg_nnz in 0usize..40,
            seed in 0u64..1_000_000,
        ) {
            let (offsets, indices) = random_csr(rows, brows, avg_nnz, seed);
            let b = random_matrix(brows, bcols, seed.wrapping_add(5));
            let got = spmm(&offsets, &indices, None, &b);
            assert_bitwise_eq(&got, &spmm_naive(&offsets, &indices, None, &b), "spmm unit");
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(6));
            let vals: Vec<f32> = (0..indices.len())
                .map(|_| rng.gen_range(-1.5f32..1.5))
                .collect();
            let gotv = spmm(&offsets, &indices, Some(&vals), &b);
            assert_bitwise_eq(
                &gotv,
                &spmm_naive(&offsets, &indices, Some(&vals), &b),
                "spmm scaled",
            );
        }
    }

    /// Rows with more nonzeros than one KB panel, plus empty rows, at the
    /// exact NARROW_N boundary and just past it.
    #[test]
    fn spmm_panel_boundaries_match_naive_bitwise() {
        let brows = 3 * KB + 7;
        for &bcols in &[NARROW_N, NARROW_N + 1, 4 * NR + 3] {
            let b = random_matrix(brows, bcols, 77);
            // Row 0: every b row (multi-panel). Row 1: empty. Row 2: one.
            let mut indices: Vec<u32> = (0..brows as u32).collect();
            indices.push(5);
            let offsets = vec![0u32, brows as u32, brows as u32, brows as u32 + 1];
            let got = spmm(&offsets, &indices, None, &b);
            assert_bitwise_eq(&got, &spmm_naive(&offsets, &indices, None, &b), "spmm");
            let vals: Vec<f32> = (0..indices.len()).map(|i| 0.25 + (i % 7) as f32).collect();
            let gotv = spmm(&offsets, &indices, Some(&vals), &b);
            assert_bitwise_eq(
                &gotv,
                &spmm_naive(&offsets, &indices, Some(&vals), &b),
                "spmm scaled",
            );
        }
    }

    /// Shapes chosen to straddle the tile and block boundaries (`MR`,
    /// `NR`, `KB`) and the parallel row threshold.
    #[test]
    fn boundary_shapes_match_naive_bitwise() {
        let shapes = [
            (1, 1, 1),
            (MR, NR, KB),
            (MR + 1, NR + 1, KB + 1),
            (MR - 1, NR - 1, KB - 1),
            (PAR_MIN_ROWS + 3, 5, 7),
            (2 * MR + 3, 2 * NR + 5, 2 * KB + 9),
        ];
        for (si, &(m, n, k)) in shapes.iter().enumerate() {
            let a = random_matrix(m, k, si as u64 * 10 + 1);
            let b = random_matrix(k, n, si as u64 * 10 + 2);
            assert_bitwise_eq(&a.matmul(&b), &matmul_naive(&a, &b), "matmul");
            let at = random_matrix(k, m, si as u64 * 10 + 3);
            assert_bitwise_eq(&at.t_matmul(&b), &t_matmul_naive(&at, &b), "t_matmul");
            let c = random_matrix(n, k, si as u64 * 10 + 4);
            assert_bitwise_eq(&a.matmul_t(&c), &matmul_t_naive(&a, &c), "matmul_t");
        }
    }
}
