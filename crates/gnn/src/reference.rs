//! Naive reference kernels.
//!
//! Plain loops in which every output element accumulates its
//! contributions in ascending inner-index order, one add at a time. The
//! kernels of [`Matrix`] and [`GcnGraph`] are proptest-proven bitwise
//! equal to these; the kernel-equivalence tests compare against them.
//! Nothing else calls them.

use crate::{GcnGraph, Matrix};

/// `a · b`: the naive triple loop, each element summed in ascending `k`
/// order. [`Matrix::matmul`] is bitwise equal to this.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = 0.0f32;
            for k in 0..a.cols() {
                s += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = s;
        }
    }
    out
}

/// `aᵀ · b` in ascending shared-row order; [`Matrix::t_matmul`] is
/// bitwise equal to this.
pub fn t_matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "t_matmul shape mismatch");
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for i in 0..a.cols() {
        for j in 0..b.cols() {
            let mut s = 0.0f32;
            for r in 0..a.rows() {
                s += a[(r, i)] * b[(r, j)];
            }
            out[(i, j)] = s;
        }
    }
    out
}

/// `a · bᵀ` in ascending `k` order; [`Matrix::matmul_t`] is bitwise
/// equal to this.
pub fn matmul_t_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_t shape mismatch");
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut s = 0.0f32;
            for k in 0..a.cols() {
                s += a[(i, k)] * b[(j, k)];
            }
            out[(i, j)] = s;
        }
    }
    out
}

/// Serial mean-neighbour aggregation; [`GcnGraph::aggregate`] is bitwise
/// equal to this.
pub fn aggregate_naive(g: &GcnGraph, x: &Matrix) -> Matrix {
    let n = g.node_count();
    assert_eq!(x.rows(), n, "feature rows must match nodes");
    let mut out = Matrix::zeros(n, x.cols());
    for v in 0..n {
        let ns = g.neighbors(v);
        let inv = 1.0 / ns.len() as f32;
        let row = out.row_mut(v);
        for &u in ns {
            for (o, &val) in row.iter_mut().zip(x.row(u as usize)) {
                *o += val;
            }
        }
        for o in row {
            *o *= inv;
        }
    }
    out
}

/// Transposed aggregation in its natural scatter form:
/// `out[u] += x[v] / |N(v)|` for every `v` with `u ∈ N(v)`, `v`
/// ascending. [`GcnGraph::aggregate_transpose`] is bitwise equal to this.
pub fn aggregate_transpose_naive(g: &GcnGraph, x: &Matrix) -> Matrix {
    let n = g.node_count();
    assert_eq!(x.rows(), n, "feature rows must match nodes");
    let mut out = Matrix::zeros(n, x.cols());
    for v in 0..n {
        let ns = g.neighbors(v);
        let inv = 1.0 / ns.len() as f32;
        for &u in ns {
            let row = out.row_mut(u as usize);
            for (o, &val) in row.iter_mut().zip(x.row(v)) {
                *o += val * inv;
            }
        }
    }
    out
}
