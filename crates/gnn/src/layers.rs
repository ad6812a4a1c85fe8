//! Trainable layers: GCN convolution (paper eq. (1)) and dense heads,
//! with manual backpropagation and Adam parameter state.

use crate::graph::GcnGraph;
use crate::matrix::Matrix;

/// A trainable parameter tensor with its gradient and Adam moments.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    grad: Matrix,
    m: Matrix,
    v: Matrix,
}

impl Param {
    /// Wraps an initial value.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Param {
            m: grad.clone(),
            v: grad.clone(),
            grad,
            value,
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// The gradient accumulator.
    pub fn grad_mut(&mut self) -> &mut Matrix {
        &mut self.grad
    }

    /// Read-only view of the gradient accumulator (used by the numeric
    /// guards to scan merged gradients without mutating anything).
    pub fn grad(&self) -> &Matrix {
        &self.grad
    }

    /// The Adam moment estimates `(m, v)`, for checkpointing.
    pub fn moments(&self) -> (&Matrix, &Matrix) {
        (&self.m, &self.v)
    }

    /// Restores the Adam moments from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if either moment's shape differs from the parameter's.
    pub fn set_moments(&mut self, m: Matrix, v: Matrix) {
        assert_eq!(
            (m.rows(), m.cols()),
            (self.value.rows(), self.value.cols()),
            "m moment shape mismatch"
        );
        assert_eq!(
            (v.rows(), v.cols()),
            (self.value.rows(), self.value.cols()),
            "v moment shape mismatch"
        );
        self.m = m;
        self.v = v;
    }

    /// One Adam update (`t` is the 1-based step for bias correction).
    pub fn adam_step(&mut self, lr: f32, t: u64) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        let bc1 = 1.0 - B1.powi(t as i32);
        let bc2 = 1.0 - B2.powi(t as i32);
        for i in 0..self.value.data().len() {
            let g = self.grad.data()[i];
            let m = B1 * self.m.data()[i] + (1.0 - B1) * g;
            let v = B2 * self.v.data()[i] + (1.0 - B2) * g * g;
            self.m.data_mut()[i] = m;
            self.v.data_mut()[i] = v;
            let mhat = m / bc1;
            let vhat = v / bc2;
            self.value.data_mut()[i] -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

/// Forward cache of one GCN layer (needed for backprop).
#[derive(Clone, Debug)]
pub struct GcnCache {
    /// Mean-aggregated input, `M·X`.
    pub agg_x: Matrix,
    /// Pre-activation, `M·X·W + b`.
    pub z: Matrix,
}

/// One graph-convolution layer: `H' = ReLU(b + mean_{u∈N(v)}(H_u) · W)`,
/// the paper's eq. (1) with self-loops in `N(v)`.
#[derive(Clone, Debug)]
pub struct GcnLayer {
    /// Weight matrix, `in × out`.
    pub w: Param,
    /// Bias, `1 × out`.
    pub b: Param,
}

impl GcnLayer {
    /// Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        GcnLayer {
            w: Param::new(Matrix::xavier(in_dim, out_dim, seed)),
            b: Param::new(Matrix::zeros(1, out_dim)),
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// Forward pass; returns the activated output and the cache.
    pub fn forward(&self, g: &GcnGraph, x: &Matrix) -> (Matrix, GcnCache) {
        let agg_x = g.aggregate(x);
        let mut z = agg_x.matmul(&self.w.value);
        for r in 0..z.rows() {
            for (o, &bias) in z.row_mut(r).iter_mut().zip(self.b.value.row(0)) {
                *o += bias;
            }
        }
        let mut h = z.clone();
        for v in h.data_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        (h, GcnCache { agg_x, z })
    }

    /// Pure backward pass: returns `(dW, db, dL/dX)` without touching the
    /// stored gradients. Safe to call concurrently from training workers;
    /// the epoch runner ([`crate::Trainable::train_epoch`]) accumulates the
    /// per-sample results in sample order.
    pub fn backward_wrt(
        &self,
        g: &GcnGraph,
        cache: &GcnCache,
        dh: &Matrix,
    ) -> (Matrix, Matrix, Matrix) {
        // dZ = dH ⊙ ReLU'(Z)
        let mut dz = dh.clone();
        for (d, &z) in dz.data_mut().iter_mut().zip(cache.z.data()) {
            if z <= 0.0 {
                *d = 0.0;
            }
        }
        // dW = (M·X)ᵀ · dZ ; db = column sums of dZ
        let dw = cache.agg_x.t_matmul(&dz);
        let mut db = Matrix::zeros(1, dz.cols());
        for r in 0..dz.rows() {
            for (acc, &d) in db.row_mut(0).iter_mut().zip(dz.row(r)) {
                *acc += d;
            }
        }
        // dX = Mᵀ · (dZ · Wᵀ)
        let dx = g.aggregate_transpose(&dz.matmul_t(&self.w.value));
        (dw, db, dx)
    }
}

/// A dense (linear) layer over row vectors: `Y = X·W + b`.
#[derive(Clone, Debug)]
pub struct DenseLayer {
    /// Weight matrix, `in × out`.
    pub w: Param,
    /// Bias, `1 × out`.
    pub b: Param,
}

impl DenseLayer {
    /// Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        DenseLayer {
            w: Param::new(Matrix::xavier(in_dim, out_dim, seed)),
            b: Param::new(Matrix::zeros(1, out_dim)),
        }
    }

    /// Forward pass over a batch of row vectors.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.value);
        for r in 0..y.rows() {
            for (o, &bias) in y.row_mut(r).iter_mut().zip(self.b.value.row(0)) {
                *o += bias;
            }
        }
        y
    }

    /// Pure backward pass: returns `(dW, db, dL/dX)` without touching the
    /// stored gradients (see [`GcnLayer::backward_wrt`]).
    pub fn backward_wrt(&self, x: &Matrix, dy: &Matrix) -> (Matrix, Matrix, Matrix) {
        let dw = x.t_matmul(dy);
        let mut db = Matrix::zeros(1, dy.cols());
        for r in 0..dy.rows() {
            for (acc, &d) in db.row_mut(0).iter_mut().zip(dy.row(r)) {
                *acc += d;
            }
        }
        let dx = dy.matmul_t(&self.w.value);
        (dw, db, dx)
    }
}

/// Softmax cross-entropy over one logit row; returns `(loss, dlogits)`.
pub fn softmax_ce(logits: &[f32], label: usize) -> (f32, Vec<f32>) {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let probs: Vec<f32> = exps.iter().map(|&e| e / sum).collect();
    let loss = -(probs[label].max(1e-12)).ln();
    let mut d = probs.clone();
    d[label] -= 1.0;
    (loss, d)
}

/// Numerically stable softmax probabilities.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

/// Weighted sigmoid binary cross-entropy on one logit; returns
/// `(loss, dlogit)`.
pub fn sigmoid_bce(logit: f32, target: bool, weight: f32) -> (f32, f32) {
    let p = sigmoid(logit);
    let y = if target { 1.0 } else { 0.0 };
    let loss = -weight * (y * p.max(1e-7).ln() + (1.0 - y) * (1.0 - p).max(1e-7).ln());
    (loss, weight * (p - y))
}

/// The logistic function.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GcnGraph;

    /// Finite-difference gradient check for one GCN layer + scalar loss.
    #[test]
    fn gcn_gradients_match_finite_differences() {
        let g = GcnGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let x = Matrix::xavier(4, 3, 7);
        let mut layer = GcnLayer::new(3, 2, 9);

        // loss = sum(H); dH = ones.
        let loss_of = |layer: &GcnLayer| {
            let (h, _) = layer.forward(&g, &x);
            h.data().iter().sum::<f32>()
        };
        let (h, cache) = layer.forward(&g, &x);
        let dh = Matrix::from_vec(h.rows(), h.cols(), vec![1.0; h.rows() * h.cols()]);
        let (dw, _, dx) = layer.backward_wrt(&g, &cache, &dh);

        let eps = 1e-3f32;
        // check dW numerically
        for idx in 0..layer.w.value.data().len() {
            let orig = layer.w.value.data()[idx];
            layer.w.value.data_mut()[idx] = orig + eps;
            let up = loss_of(&layer);
            layer.w.value.data_mut()[idx] = orig - eps;
            let dn = loss_of(&layer);
            layer.w.value.data_mut()[idx] = orig;
            let num = (up - dn) / (2.0 * eps);
            let ana = dw.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "dW[{idx}] numeric {num} vs analytic {ana}"
            );
        }
        // check dX numerically
        let mut x2 = x.clone();
        for idx in 0..x2.data().len() {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let (h_up, _) = layer.forward(&g, &x2);
            x2.data_mut()[idx] = orig - eps;
            let (h_dn, _) = layer.forward(&g, &x2);
            x2.data_mut()[idx] = orig;
            let num =
                (h_up.data().iter().sum::<f32>() - h_dn.data().iter().sum::<f32>()) / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 1e-2,
                "dX[{idx}] numeric {num} vs analytic {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let x = Matrix::xavier(3, 4, 1);
        let mut layer = DenseLayer::new(4, 2, 2);
        let dy = Matrix::from_vec(3, 2, vec![1.0; 6]);
        let (dw, _, _) = layer.backward_wrt(&x, &dy);
        let eps = 1e-3f32;
        for idx in 0..layer.w.value.data().len() {
            let orig = layer.w.value.data()[idx];
            layer.w.value.data_mut()[idx] = orig + eps;
            let up: f32 = layer.forward(&x).data().iter().sum();
            layer.w.value.data_mut()[idx] = orig - eps;
            let dn: f32 = layer.forward(&x).data().iter().sum();
            layer.w.value.data_mut()[idx] = orig;
            let num = (up - dn) / (2.0 * eps);
            assert!((num - dw.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn softmax_ce_gradient_sums_to_zero() {
        let (loss, d) = softmax_ce(&[2.0, -1.0, 0.5], 0);
        assert!(loss > 0.0);
        assert!((d.iter().sum::<f32>()).abs() < 1e-6);
        assert!(d[0] < 0.0, "true-class gradient is negative");
    }

    #[test]
    fn sigmoid_bce_direction() {
        let (l1, d1) = sigmoid_bce(2.0, true, 1.0);
        let (l0, d0) = sigmoid_bce(2.0, false, 1.0);
        assert!(l0 > l1, "confident wrong prediction costs more");
        assert!(d1 < 0.0 && d0 > 0.0);
        let (_, dw) = sigmoid_bce(2.0, false, 3.0);
        assert!((dw - 3.0 * d0).abs() < 1e-6, "weight scales the gradient");
    }

    #[test]
    fn adam_reduces_a_quadratic() {
        // minimize ||W||² with Adam.
        let mut p = Param::new(Matrix::xavier(3, 3, 4));
        let start = p.value.norm();
        for t in 1..=200 {
            let g = p.value.clone();
            p.zero_grad();
            p.grad_mut().add_assign(&g);
            p.adam_step(0.05, t);
        }
        assert!(p.value.norm() < start * 0.2);
    }
}
