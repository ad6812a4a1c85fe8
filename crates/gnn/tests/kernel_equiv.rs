//! GNN kernels vs naive references, at pool widths 1 and 4.
//!
//! The contract under test: `Matrix::{matmul,t_matmul,matmul_t}` and
//! `GcnGraph::{aggregate,aggregate_transpose}` are **bitwise** equal to
//! their naive references in [`m3d_gnn::reference`], at any pool width.
//! Shapes include single-row and single-column matrices, shared
//! dimensions that are not a multiple of the four-wide unroll, widths
//! past the 16 columns the models use, and graphs of thousands of nodes.

use m3d_gnn::reference::{
    aggregate_naive, aggregate_transpose_naive, matmul_naive, matmul_t_naive, t_matmul_naive,
};
use m3d_gnn::{GcnGraph, Matrix};
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

/// Runs `f` at pool width 1 and 4 and asserts both outputs are bitwise
/// equal to `want`.
fn check_both_widths(want: &Matrix, what: &str, f: impl Fn() -> Matrix) {
    let one = m3d_par::with_threads(1, &f);
    let four = m3d_par::with_threads(4, &f);
    assert_bitwise(&one, want, &format!("{what} @1t"));
    assert_bitwise(&four, want, &format!("{what} @4t"));
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

    /// Randomized shapes, including shared dimensions that are not a
    /// multiple of the four-wide unroll.
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
    /// allowed by construction) at both pool widths, at 1–35 columns.
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
}

/// Deterministic edge shapes `(m, k, n)`: scalar, single-row and
/// single-column matrices, odd shared dimensions, and outputs wider than
/// the 16 columns the models use.
#[test]
fn edge_shapes_bitwise_equal_at_1_and_4_threads() {
    let shapes = [
        (1usize, 1usize, 1usize), // scalar
        (1, 257, 9),              // single row, long odd k
        (300, 1, 1),              // single column, many rows
        (129, 127, 16),
        (200, 33, 7),
        (4, 128, 8),
        (5, 129, 9),
        (3, 127, 7),
        (67, 7, 5),
        (11, 265, 21),
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

/// Graphs of thousands of nodes, at 8 and at 32 columns.
#[test]
fn large_graph_aggregation_bitwise_equal() {
    for (cols, seed) in [(8, 11), (32, 13)] {
        let g = random_graph(3000, 9000, seed);
        let x = random_matrix(3000, cols, seed + 1);
        check_both_widths(&aggregate_naive(&g, &x), "aggregate", || g.aggregate(&x));
        check_both_widths(
            &aggregate_transpose_naive(&g, &x),
            "aggregate_transpose",
            || g.aggregate_transpose(&x),
        );
    }
}
