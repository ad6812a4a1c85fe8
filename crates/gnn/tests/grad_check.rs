//! Property-based gradient checks: the hand-written backpropagation must
//! match finite differences for random graph shapes, feature dimensions,
//! and parameter values — the invariant everything trained in this
//! workspace rests on.

use proptest::prelude::*;

use m3d_gnn::{DenseLayer, GcnGraph, GcnLayer, Matrix};

/// Scalar loss = sum of all outputs; its gradient wrt outputs is ones.
fn ones_like(m: &Matrix) -> Matrix {
    Matrix::from_vec(m.rows(), m.cols(), vec![1.0; m.rows() * m.cols()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn gcn_layer_weight_gradients_match_finite_differences(
        nodes in 2usize..10,
        in_dim in 1usize..5,
        out_dim in 1usize..5,
        extra_edges in 0usize..12,
        seed in 1u64..500,
    ) {
        let mut edges: Vec<(usize, usize)> =
            (1..nodes).map(|v| (v - 1, v)).collect();
        for k in 0..extra_edges {
            edges.push((k % nodes, (k * 5 + 2) % nodes));
        }
        let g = GcnGraph::from_edges(nodes, &edges);
        let x = Matrix::xavier(nodes, in_dim, seed);
        let mut layer = GcnLayer::new(in_dim, out_dim, seed + 1);
        // Bias the pre-activations away from the ReLU kink so the central
        // difference stays on one side for most coordinates.
        for b in layer.b.value.data_mut() {
            *b = 0.25;
        }

        let (h, cache) = layer.forward(&g, &x);
        // Finite differences are meaningless across the ReLU kink: skip
        // cases where any pre-activation sits within reach of ±eps.
        let min_abs_z = cache
            .z
            .data()
            .iter()
            .map(|z| z.abs())
            .fold(f32::INFINITY, f32::min);
        prop_assume!(min_abs_z > 0.05);
        let (dw, _, dx) = layer.backward_wrt(&g, &cache, &ones_like(&h));

        let eps = 1e-2f32;
        // Sample a few weight coordinates.
        for idx in 0..(in_dim * out_dim).min(6) {
            let orig = layer.w.value.data()[idx];
            layer.w.value.data_mut()[idx] = orig + eps;
            let up: f32 = layer.forward(&g, &x).0.data().iter().sum();
            layer.w.value.data_mut()[idx] = orig - eps;
            let dn: f32 = layer.forward(&g, &x).0.data().iter().sum();
            layer.w.value.data_mut()[idx] = orig;
            let numeric = (up - dn) / (2.0 * eps);
            let analytic = dw.data()[idx];
            prop_assert!(
                (numeric - analytic).abs() < 0.12 + 0.12 * analytic.abs(),
                "dW[{idx}] numeric {numeric} vs analytic {analytic}"
            );
        }
        // And a few input coordinates.
        let mut x2 = x.clone();
        for idx in 0..(nodes * in_dim).min(6) {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let up: f32 = layer.forward(&g, &x2).0.data().iter().sum();
            x2.data_mut()[idx] = orig - eps;
            let dn: f32 = layer.forward(&g, &x2).0.data().iter().sum();
            x2.data_mut()[idx] = orig;
            let numeric = (up - dn) / (2.0 * eps);
            let analytic = dx.data()[idx];
            prop_assert!(
                (numeric - analytic).abs() < 0.12 + 0.12 * analytic.abs(),
                "dX[{idx}] numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn dense_layer_gradients_match_finite_differences(
        batch in 1usize..6,
        in_dim in 1usize..6,
        out_dim in 1usize..4,
        seed in 1u64..500,
    ) {
        let x = Matrix::xavier(batch, in_dim, seed);
        let mut layer = DenseLayer::new(in_dim, out_dim, seed + 9);
        let y = layer.forward(&x);
        let (dw, _, dx) = layer.backward_wrt(&x, &ones_like(&y));

        let eps = 1e-2f32;
        for idx in 0..(in_dim * out_dim).min(6) {
            let orig = layer.w.value.data()[idx];
            layer.w.value.data_mut()[idx] = orig + eps;
            let up: f32 = layer.forward(&x).data().iter().sum();
            layer.w.value.data_mut()[idx] = orig - eps;
            let dn: f32 = layer.forward(&x).data().iter().sum();
            layer.w.value.data_mut()[idx] = orig;
            let numeric = (up - dn) / (2.0 * eps);
            prop_assert!((numeric - dw.data()[idx]).abs() < 0.03);
        }
        // Dense layers are linear: dX is exact.
        for idx in 0..(batch * in_dim).min(8) {
            let mut x2 = x.clone();
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let up: f32 = layer.forward(&x2).data().iter().sum();
            x2.data_mut()[idx] = orig - eps;
            let dn: f32 = layer.forward(&x2).data().iter().sum();
            let numeric = (up - dn) / (2.0 * eps);
            prop_assert!((numeric - dx.data()[idx]).abs() < 0.03);
        }
    }
}
