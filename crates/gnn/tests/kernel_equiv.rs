//! Blocked/parallel kernels vs naive references, at 1 vs N threads.
//!
//! The contract under test: `Matrix::{matmul,t_matmul,matmul_t}`,
//! [`m3d_gnn::spmm`], and `GcnGraph::{aggregate,aggregate_transpose}`
//! (row-wise and SpMM branches) are **bitwise** equal to their naive
//! references in [`m3d_gnn::reference`], at any pool width and any
//! adaptive-granularity gate decision. Shapes deliberately
//! cross the register-tile (4×8), cache-block (128) and parallel-row (64)
//! boundaries: single-row, single-column, and k-not-divisible-by-block
//! cases included. Parallel runs pin the `m3d-par` cost gate open
//! (`with_par_threshold(0, ..)`) so small proptest shapes genuinely
//! exercise the fan-out path instead of being gated back to serial.

use m3d_gnn::reference::{
    aggregate_naive, aggregate_transpose_naive, matmul_naive, matmul_t_naive, spmm_naive,
    t_matmul_naive,
};
use m3d_gnn::{spmm, GcnGraph, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn assert_bitwise(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} differs ({g} vs {w})"
        );
    }
}

/// Runs `f` at pool width 1 and 4 — the 4-wide run once under the
/// calibrated cost gate and once with the gate pinned open so the
/// parallel path is actually taken — and asserts every output is bitwise
/// equal to `want`.
fn check_both_widths(want: &Matrix, what: &str, f: impl Fn() -> Matrix) {
    let one = m3d_par::with_threads(1, &f);
    let four = m3d_par::with_threads(4, &f);
    let four_forced = m3d_par::with_threads(4, || m3d_par::with_par_threshold(0, &f));
    assert_bitwise(&one, want, &format!("{what} @1t"));
    assert_bitwise(&four, want, &format!("{what} @4t"));
    assert_bitwise(&four_forced, want, &format!("{what} @4t forced-parallel"));
}

fn random_graph(n: usize, m: usize, seed: u64) -> GcnGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(usize, usize)> = (0..m)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    GcnGraph::from_edges(n, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized shapes spanning the serial→parallel row threshold and
    /// non-multiple-of-tile dimensions.
    #[test]
    fn matmul_family_bitwise_equal_at_1_and_4_threads(
        m in 1usize..100,
        k in 1usize..48,
        n in 1usize..24,
        seed in 0u64..1_000_000,
    ) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed.wrapping_add(1));
        check_both_widths(&matmul_naive(&a, &b), "matmul", || a.matmul(&b));

        let at = random_matrix(k, m, seed.wrapping_add(2));
        let bt = random_matrix(k, n, seed.wrapping_add(3));
        check_both_widths(&t_matmul_naive(&at, &bt), "t_matmul", || at.t_matmul(&bt));

        let c = random_matrix(n, k, seed.wrapping_add(4));
        check_both_widths(&matmul_t_naive(&a, &c), "matmul_t", || a.matmul_t(&c));
    }

    /// Aggregation over random graphs (duplicate edges and self-loops
    /// allowed by construction) at both pool widths, with widths on both
    /// sides of the narrow-output boundary (row-wise and SpMM branches).
    #[test]
    fn aggregation_bitwise_equal_at_1_and_4_threads(
        n in 1usize..200,
        extra in 0usize..400,
        cols in 1usize..36,
        seed in 0u64..1_000_000,
    ) {
        let g = random_graph(n, extra, seed);
        let x = random_matrix(n, cols, seed.wrapping_add(9));
        check_both_widths(&aggregate_naive(&g, &x), "aggregate", || g.aggregate(&x));
        check_both_widths(
            &aggregate_transpose_naive(&g, &x),
            "aggregate_transpose",
            || g.aggregate_transpose(&x),
        );
    }

    /// The tiled SpMM: bitwise equal to the naive nonzero walk at 1 vs 4
    /// threads, unit-valued and scaled, for widths spanning the
    /// narrow-output boundary.
    #[test]
    fn spmm_bitwise_equal_at_1_and_4_threads(
        rows in 1usize..120,
        brows in 1usize..80,
        bcols in 1usize..40,
        avg_nnz in 0usize..30,
        seed in 0u64..1_000_000,
    ) {
        let (offsets, indices) = random_csr(rows, brows, avg_nnz, seed);
        let b = random_matrix(brows, bcols, seed.wrapping_add(21));
        let want = spmm_naive(&offsets, &indices, None, &b);
        check_both_widths(&want, "spmm unit", || spmm(&offsets, &indices, None, &b));
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(22));
        let vals: Vec<f32> = (0..indices.len()).map(|_| rng.gen_range(-1.5f32..1.5)).collect();
        let wantv = spmm_naive(&offsets, &indices, Some(&vals), &b);
        check_both_widths(&wantv, "spmm scaled", || spmm(&offsets, &indices, Some(&vals), &b));
    }
}

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

/// Deterministic edge shapes: k not divisible by the 128-deep cache block,
/// single-row and single-column matrices, and a row count deep into the
/// parallel regime.
#[test]
fn edge_shapes_bitwise_equal_at_1_and_4_threads() {
    let shapes = [
        (1usize, 1usize, 1usize), // scalar
        (1, 257, 9),              // single row, k % 128 != 0
        (300, 1, 1),              // single column, parallel rows
        (129, 127, 16),           // both dims straddle the block size
        (200, 33, 7),             // parallel rows, odd k
    ];
    for (si, &(m, k, n)) in shapes.iter().enumerate() {
        let s = si as u64 * 100;
        let a = random_matrix(m, k, s + 1);
        let b = random_matrix(k, n, s + 2);
        check_both_widths(&matmul_naive(&a, &b), "matmul", || a.matmul(&b));
        let at = random_matrix(k, m, s + 3);
        check_both_widths(&t_matmul_naive(&at, &b), "t_matmul", || at.t_matmul(&b));
        let c = random_matrix(n, k, s + 4);
        check_both_widths(&matmul_t_naive(&a, &c), "matmul_t", || a.matmul_t(&c));
    }
}

/// A graph big enough that every pool chunk holds many rows: the parallel
/// aggregation path must reproduce the serial scatter bit for bit.
#[test]
fn large_graph_aggregation_bitwise_equal() {
    let g = random_graph(3000, 9000, 11);
    let x = random_matrix(3000, 8, 12);
    check_both_widths(&aggregate_naive(&g, &x), "aggregate", || g.aggregate(&x));
    check_both_widths(
        &aggregate_transpose_naive(&g, &x),
        "aggregate_transpose",
        || g.aggregate_transpose(&x),
    );
}

/// A graph of the same size at 32 columns, past the narrow-output
/// boundary, so `aggregate`/`aggregate_transpose` dispatch to the SpMM
/// branch with many rows per pool chunk.
#[test]
fn wide_dispatch_aggregation_bitwise_equal() {
    let g = random_graph(3000, 9000, 13);
    let x = random_matrix(3000, 32, 14);
    check_both_widths(&aggregate_naive(&g, &x), "aggregate (wide)", || {
        g.aggregate(&x)
    });
    check_both_widths(
        &aggregate_transpose_naive(&g, &x),
        "aggregate_transpose (wide)",
        || g.aggregate_transpose(&x),
    );
}
