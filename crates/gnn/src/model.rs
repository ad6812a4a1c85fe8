//! GCN models: graph-level classification (Tier-predictor / Classifier)
//! and node-level classification (MIV-pinpointer), both trained by the one
//! epoch runner of [`Trainable`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::graph::GcnGraph;
use crate::guard::{
    EpochReport, GuardAction, GuardCause, GuardConfig, GuardEvent, GuardPolicy, NumericFault,
    TrainReport,
};
use crate::layers::{
    sigmoid, sigmoid_bce, softmax, softmax_ce, DenseLayer, GcnCache, GcnLayer, Param,
};
use crate::matrix::Matrix;

/// One graph with its node feature matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphData {
    /// The (sub-)graph topology.
    pub graph: GcnGraph,
    /// Node features, `n × f`.
    pub features: Matrix,
}

impl GraphData {
    /// Bundles a graph and its features.
    ///
    /// # Panics
    ///
    /// Panics if feature rows don't match the node count.
    pub fn new(graph: GcnGraph, features: Matrix) -> Self {
        assert_eq!(graph.node_count(), features.rows());
        GraphData { graph, features }
    }
}

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Gradient-accumulation batch size.
    pub batch_size: usize,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 40,
            learning_rate: 0.01,
            batch_size: 16,
            seed: 1,
        }
    }
}

/// The mutable position of a training run: epoch counter, Adam step count,
/// current learning rate, shuffle RNG, and the shuffle order.
///
/// The order vector is shuffled *in place* at the start of every epoch, so
/// epoch `k`'s permutation is the composition of `k` shuffles — it cannot
/// be reconstructed from the seed and epoch number alone. A resumable
/// checkpoint therefore must carry the cursor verbatim
/// ([`TrainCursor::rng_state`] + [`TrainCursor::order`]), which is exactly
/// what `m3d-resilient` snapshots. Restoring a cursor with
/// [`TrainCursor::restore`] and continuing produces weights bit-identical
/// to the uninterrupted run.
#[derive(Clone, Debug)]
pub struct TrainCursor {
    /// Completed epochs; the next `train_epoch` call runs this epoch.
    pub epoch: usize,
    /// 1-based Adam step count (batches stepped so far).
    pub t: u64,
    /// Current learning rate. Starts at [`TrainConfig::learning_rate`];
    /// only [`GuardPolicy::RollbackAndHalveLr`] changes it.
    pub lr: f32,
    rng: StdRng,
    order: Vec<usize>,
}

impl TrainCursor {
    /// A fresh cursor at epoch 0 for `n_samples` training samples.
    pub fn start(cfg: &TrainConfig, n_samples: usize) -> Self {
        TrainCursor {
            epoch: 0,
            t: 0,
            lr: cfg.learning_rate,
            rng: StdRng::seed_from_u64(cfg.seed),
            order: (0..n_samples).collect(),
        }
    }

    /// The raw shuffle-RNG state, for checkpointing.
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// The current shuffle order, for checkpointing.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Reconstructs a cursor captured mid-run by a checkpoint.
    pub fn restore(epoch: usize, t: u64, lr: f32, rng_state: u64, order: Vec<usize>) -> Self {
        TrainCursor {
            epoch,
            t,
            lr,
            rng: StdRng::from_state(rng_state),
            order,
        }
    }
}

/// A model the shared epoch runner trains with Adam on shuffled
/// mini-batches.
///
/// A model supplies its parameter list, how many leading parameters are
/// frozen, and a pure per-sample forward/backward ([`Trainable::sample_grads`]).
/// The provided methods do the rest once for every model: shuffling,
/// batching, numeric guards, telemetry and the Adam step. Per-sample passes
/// within a batch fan out over the [`m3d_par`] pool and their gradients
/// merge in sample-index order before the step, so the trained weights are
/// bitwise identical at any thread count (`M3D_THREADS=1` included).
pub trait Trainable: Sync {
    /// One sample's label: a class index for graph classification, the
    /// labelled nodes for node classification.
    type Label<'a>: Copy + Sync;

    /// Every parameter in a fixed order: GCN layers, then the head layers,
    /// weights before biases. The checkpoint format and
    /// [`Trainable::flat_params`] are defined over this order.
    fn params(&self) -> Vec<&Param>;

    /// Mutable access to every parameter, in [`Trainable::params`] order
    /// (checkpoint restore).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// How many leading [`Trainable::params`] are frozen: they neither
    /// accumulate gradients nor step.
    fn frozen_params(&self) -> usize {
        0
    }

    /// Forward + backward for one sample without mutating the model: the
    /// loss and one gradient per trainable parameter, in
    /// [`Trainable::params`] order after the frozen ones.
    fn sample_grads(&self, data: &GraphData, label: Self::Label<'_>) -> (f32, Vec<Matrix>);

    /// Every parameter flattened in [`Trainable::params`] order. Used to
    /// compare trained models bitwise.
    fn flat_params(&self) -> Vec<f32> {
        self.params()
            .iter()
            .flat_map(|p| p.value.data().iter().copied())
            .collect()
    }

    /// Trains for `cfg.epochs` epochs; returns the final-epoch mean
    /// training loss. This is [`Trainable::fit_guarded`] with guards off.
    fn fit(&mut self, samples: &[(&GraphData, Self::Label<'_>)], cfg: &TrainConfig) -> f32 {
        self.fit_guarded(samples, cfg, &GuardConfig::off())
            .expect("guards disabled: no numeric fault can surface")
            .final_loss
    }

    /// [`Trainable::fit`] with numeric guardrails: per-sample losses and
    /// merged gradients are checked for NaN/Inf before every Adam step
    /// and the configured [`GuardPolicy`] applied. Returns a
    /// [`TrainReport`] recording every intervention, or a typed
    /// [`NumericFault`] under [`GuardPolicy::Abort`].
    ///
    /// On healthy data the result is bit-identical to [`Trainable::fit`]
    /// — the checks are pure reads.
    fn fit_guarded(
        &mut self,
        samples: &[(&GraphData, Self::Label<'_>)],
        cfg: &TrainConfig,
        guard: &GuardConfig,
    ) -> Result<TrainReport, NumericFault> {
        let mut span = m3d_obs::span("gnn_fit");
        span.add("samples", samples.len() as u64);
        let mut cursor = TrainCursor::start(cfg, samples.len());
        let mut report = TrainReport::default();
        while cursor.epoch < cfg.epochs {
            report.absorb(self.train_epoch(samples, cfg, &mut cursor, guard)?);
        }
        Ok(report)
    }

    /// Runs exactly one training epoch from `cursor`, advancing it.
    ///
    /// This is the unit the crash-safe trainer in `m3d-resilient` wraps:
    /// it checkpoints the model plus cursor between epochs. With
    /// `guard.enabled` the batch loop checks per-sample losses and merged
    /// gradients before stepping; a detected fault is handled per
    /// `guard.policy` (see [`GuardConfig`]). After an `Err` the cursor is
    /// mid-epoch and must not be reused.
    ///
    /// # Panics
    ///
    /// Panics if the cursor was built for a different sample count.
    fn train_epoch(
        &mut self,
        samples: &[(&GraphData, Self::Label<'_>)],
        cfg: &TrainConfig,
        cursor: &mut TrainCursor,
        guard: &GuardConfig,
    ) -> Result<EpochReport, NumericFault> {
        assert_eq!(
            cursor.order.len(),
            samples.len(),
            "cursor built for a different sample count"
        );
        // Observability here is a pure read of training state (loss,
        // merged gradients, lr) recorded on the orchestrating thread —
        // it never changes RNG draws, merge order, or trained weights.
        let obs_on = m3d_obs::enabled();
        let mut span = m3d_obs::span("train_epoch");
        let mut grad_norm_sum = 0.0f64;
        let mut steps = 0u64;
        cursor.order.shuffle(&mut cursor.rng);
        let epoch = cursor.epoch;
        let order = cursor.order.clone();
        let frozen = self.frozen_params();
        let mut epoch_loss = 0.0f32;
        let mut events = Vec::new();
        for (batch, chunk) in order.chunks(cfg.batch_size).enumerate() {
            // Adaptive granularity: tiny batches (small graphs × narrow
            // features) run serial — pool dispatch would cost more than
            // it saves — via the calibrated `m3d-par` cost gate. Serial
            // and parallel paths are bitwise identical, so the gate can
            // only change wall time, never trained weights.
            let work: u64 = chunk
                .iter()
                .map(|&idx| {
                    let data = samples[idx].0;
                    data.graph.edge_count() as u64 * data.features.cols().max(1) as u64 * 8
                })
                .sum();
            let model = &*self;
            let grads = m3d_par::with_threads(m3d_par::par_gate(work), || {
                m3d_par::par_map(chunk, |&idx| {
                    let (data, label) = samples[idx];
                    model.sample_grads(data, label)
                })
            });
            let mut params = self.params_mut();
            for p in &mut params {
                p.zero_grad();
            }
            let loss_before = epoch_loss;
            let mut fault = None;
            for (&idx, (loss, sample_grads)) in chunk.iter().zip(&grads) {
                if guard.enabled && fault.is_none() && !loss.is_finite() {
                    fault = Some(GuardCause::NonFiniteLoss { sample: idx });
                }
                epoch_loss += loss;
                debug_assert_eq!(sample_grads.len(), params.len() - frozen);
                for (p, g) in params[frozen..].iter_mut().zip(sample_grads) {
                    p.grad_mut().add_assign(g);
                }
            }
            if guard.enabled
                && fault.is_none()
                && !params
                    .iter()
                    .all(|p| p.grad().data().iter().all(|g| g.is_finite()))
            {
                fault = Some(GuardCause::NonFiniteGrad);
            }
            if let Some(cause) = fault {
                let action = match guard.policy {
                    GuardPolicy::Abort => {
                        m3d_obs::counter("gnn.guard.aborted", 1);
                        return Err(NumericFault {
                            epoch,
                            batch,
                            cause,
                        });
                    }
                    GuardPolicy::SkipBatch => {
                        m3d_obs::counter("gnn.guard.skipped_batch", 1);
                        GuardAction::SkippedBatch
                    }
                    GuardPolicy::RollbackAndHalveLr => {
                        cursor.lr = (cursor.lr * 0.5).max(guard.min_lr);
                        m3d_obs::counter("gnn.guard.rolled_back", 1);
                        GuardAction::RolledBack { new_lr: cursor.lr }
                    }
                };
                epoch_loss = loss_before;
                events.push(GuardEvent {
                    epoch,
                    batch,
                    cause,
                    action,
                });
                continue;
            }
            if obs_on {
                // L2 norm of every merged gradient accumulator.
                let sq: f64 = params
                    .iter()
                    .flat_map(|p| p.grad().data().iter())
                    .map(|&g| f64::from(g) * f64::from(g))
                    .sum();
                grad_norm_sum += sq.sqrt();
                steps += 1;
            }
            cursor.t += 1;
            for p in &mut params[frozen..] {
                p.adam_step(cursor.lr, cursor.t);
            }
        }
        cursor.epoch += 1;
        let mean_loss = epoch_loss / samples.len().max(1) as f32;
        if obs_on {
            let n_batches = samples.len().div_ceil(cfg.batch_size.max(1)) as u64;
            span.add("batches", n_batches);
            span.add("guard_events", events.len() as u64);
            m3d_obs::counter("gnn.train.epochs", 1);
            m3d_obs::counter("gnn.train.batches", n_batches);
            m3d_obs::series_push("gnn.epoch_loss", f64::from(mean_loss));
            m3d_obs::series_push("gnn.lr", f64::from(cursor.lr));
            let mean_norm = if steps > 0 {
                grad_norm_sum / steps as f64
            } else {
                0.0
            };
            m3d_obs::series_push("gnn.grad_norm", mean_norm);
        }
        Ok(EpochReport { mean_loss, events })
    }
}

/// `num_layers` GCN layers of width `hidden`, layer `l` seeded with
/// `seed + l`.
///
/// # Panics
///
/// Panics if `num_layers == 0`.
fn gcn_stack(in_dim: usize, hidden: usize, num_layers: usize, seed: u64) -> Vec<GcnLayer> {
    assert!(num_layers > 0, "need at least one GCN layer");
    (0..num_layers)
        .map(|l| {
            let d_in = if l == 0 { in_dim } else { hidden };
            GcnLayer::new(d_in, hidden, seed.wrapping_add(l as u64))
        })
        .collect()
}

/// Runs a GCN stack; returns per-layer caches and the final node
/// embedding matrix.
fn backbone(layers: &[GcnLayer], data: &GraphData) -> (Vec<GcnCache>, Matrix) {
    let mut caches = Vec::with_capacity(layers.len());
    let mut h = data.features.clone();
    for layer in layers {
        let (next, cache) = layer.forward(&data.graph, &h);
        caches.push(cache);
        h = next;
    }
    (caches, h)
}

/// Backpropagates `dh` through a GCN stack, pushing each layer's `db` and
/// `dW` onto `grads` from the last layer to the first.
fn backbone_backward(
    layers: &[GcnLayer],
    graph: &GcnGraph,
    caches: &[GcnCache],
    mut dh: Matrix,
    grads: &mut Vec<Matrix>,
) {
    for (layer, cache) in layers.iter().zip(caches).rev() {
        let (dw, db, dx) = layer.backward_wrt(graph, cache, &dh);
        grads.extend([db, dw]);
        dh = dx;
    }
}

/// A GCN graph classifier: stacked GCN layers, mean graph pooling, and a
/// dense softmax head (the paper's Tier-predictor architecture, with the
/// two-dimensional `[p_top, p_bottom]` output). Trains on softmax
/// cross-entropy through [`Trainable`].
///
/// # Examples
///
/// ```
/// use m3d_gnn::{GcnClassifier, GcnGraph, GraphData, Matrix, TrainConfig};
///
/// let data = GraphData::new(
///     GcnGraph::from_edges(3, &[(0, 1), (1, 2)]),
///     Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]),
/// );
/// let model = GcnClassifier::new(2, 8, 2, 2, 1);
/// let probs = model.predict_proba(&data);
/// assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
/// ```
#[derive(Clone, Debug)]
pub struct GcnClassifier {
    layers: Vec<GcnLayer>,
    /// Optional hidden classification layer (ReLU), used by transfer
    /// models ("trainable classification layers" in the paper).
    head_hidden: Option<DenseLayer>,
    head: DenseLayer,
    /// When `true`, the GCN backbone is not updated during training
    /// (network-based transfer learning: pre-trained hidden layers +
    /// trainable classification layers).
    pub freeze_backbone: bool,
}

impl GcnClassifier {
    /// A fresh model: `num_layers` GCN layers of width `hidden`, then a
    /// dense head to `num_classes` logits.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0`.
    pub fn new(
        in_dim: usize,
        hidden: usize,
        num_layers: usize,
        num_classes: usize,
        seed: u64,
    ) -> Self {
        GcnClassifier {
            layers: gcn_stack(in_dim, hidden, num_layers, seed),
            head_hidden: None,
            head: DenseLayer::new(hidden, num_classes, seed.wrapping_add(97)),
            freeze_backbone: false,
        }
    }

    /// Builds a transfer model: the pre-trained backbone of `base` with a
    /// fresh classification head (the paper's GNN-based Classifier).
    pub fn transfer_from(base: &GcnClassifier, num_classes: usize, seed: u64) -> Self {
        let hidden = base.layers.last().expect("non-empty").out_dim();
        GcnClassifier {
            layers: base.layers.clone(),
            head_hidden: Some(DenseLayer::new(hidden, hidden, seed.wrapping_add(7))),
            head: DenseLayer::new(hidden, num_classes, seed),
            freeze_backbone: true,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Mean-pooled graph embedding (pre-head). Used for the paper's
    /// PCA feature visualization (Fig. 5) and as the transfer interface.
    pub fn pooled_embedding(&self, data: &GraphData) -> Vec<f32> {
        let (_, h) = backbone(&self.layers, data);
        h.col_means()
    }

    /// Class probabilities for one graph.
    pub fn predict_proba(&self, data: &GraphData) -> Vec<f32> {
        let pooled = Matrix::from_vec(
            1,
            self.layers.last().expect("non-empty").out_dim(),
            self.pooled_embedding(data),
        );
        let pre_head = self.apply_head_hidden(&pooled).0;
        softmax(self.head.forward(&pre_head).row(0))
    }

    /// Applies the optional hidden head layer with ReLU; returns the
    /// activated output and the pre-activation (for backprop).
    fn apply_head_hidden(&self, pooled: &Matrix) -> (Matrix, Option<Matrix>) {
        match &self.head_hidden {
            None => (pooled.clone(), None),
            Some(layer) => {
                let z = layer.forward(pooled);
                let mut h = z.clone();
                for v in h.data_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
                (h, Some(z))
            }
        }
    }

    /// The most probable class.
    pub fn predict(&self, data: &GraphData) -> usize {
        let p = self.predict_proba(data);
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .expect("at least one class")
    }

    /// Classification accuracy over a labelled set.
    pub fn accuracy(&self, samples: &[(&GraphData, usize)]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let hits = samples
            .iter()
            .filter(|(d, l)| self.predict(d) == *l)
            .count();
        hits as f64 / samples.len() as f64
    }
}

impl Trainable for GcnClassifier {
    /// The class index.
    type Label<'a> = usize;

    fn params(&self) -> Vec<&Param> {
        let dense = self.head_hidden.iter().chain([&self.head]);
        self.layers
            .iter()
            .flat_map(|l| [&l.w, &l.b])
            .chain(dense.flat_map(|d| [&d.w, &d.b]))
            .collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let dense = self.head_hidden.iter_mut().chain([&mut self.head]);
        self.layers
            .iter_mut()
            .flat_map(|l| [&mut l.w, &mut l.b])
            .chain(dense.flat_map(|d| [&mut d.w, &mut d.b]))
            .collect()
    }

    /// The GCN layers' weights and biases when the backbone is frozen.
    fn frozen_params(&self) -> usize {
        if self.freeze_backbone {
            2 * self.layers.len()
        } else {
            0
        }
    }

    fn sample_grads(&self, data: &GraphData, label: usize) -> (f32, Vec<Matrix>) {
        let (caches, h) = backbone(&self.layers, data);
        let hidden = h.cols();
        let pooled = Matrix::from_vec(1, hidden, h.col_means());
        let (pre_head, head_z) = self.apply_head_hidden(&pooled);
        let logits = self.head.forward(&pre_head);
        let (loss, dlogits) = softmax_ce(logits.row(0), label);
        let dlogits = Matrix::from_vec(1, logits.cols(), dlogits);
        let (head_dw, head_db, mut dpooled) = self.head.backward_wrt(&pre_head, &dlogits);
        // Gathered from the output back, then reversed into `params` order.
        let mut grads = vec![head_db, head_dw];
        if let (Some(layer), Some(z)) = (self.head_hidden.as_ref(), head_z) {
            // ReLU backward on the hidden head, then its dense backward.
            for (d, &zv) in dpooled.data_mut().iter_mut().zip(z.data()) {
                if zv <= 0.0 {
                    *d = 0.0;
                }
            }
            let (dw, db, dp) = layer.backward_wrt(&pooled, &dpooled);
            grads.extend([db, dw]);
            dpooled = dp;
        }
        if !self.freeze_backbone {
            // Mean-pool backward: broadcast /n to every node row.
            let n = h.rows().max(1);
            let mut dh = Matrix::zeros(h.rows(), hidden);
            for r in 0..h.rows() {
                for (d, &g) in dh.row_mut(r).iter_mut().zip(dpooled.row(0)) {
                    *d = g / n as f32;
                }
            }
            backbone_backward(&self.layers, &data.graph, &caches, dh, &mut grads);
        }
        grads.reverse();
        (loss, grads)
    }
}

/// A GCN node classifier: stacked GCN layers and a per-node sigmoid head
/// (the paper's MIV-pinpointer — node classification over MIV nodes, where
/// local information matters more than the global pooled representation).
/// Trains on weighted sigmoid cross-entropy through [`Trainable`].
#[derive(Clone, Debug)]
pub struct NodeClassifier {
    layers: Vec<GcnLayer>,
    head: DenseLayer,
    /// Training-loss weight of positive (faulty) nodes, countering class
    /// imbalance; `1.0` in a fresh model.
    pub pos_weight: f32,
}

impl NodeClassifier {
    /// A fresh model with `num_layers` GCN layers of width `hidden`.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0`.
    pub fn new(in_dim: usize, hidden: usize, num_layers: usize, seed: u64) -> Self {
        NodeClassifier {
            layers: gcn_stack(in_dim, hidden, num_layers, seed.wrapping_add(11)),
            head: DenseLayer::new(hidden, 1, seed.wrapping_add(131)),
            pos_weight: 1.0,
        }
    }

    /// Fault probability for the listed nodes.
    pub fn predict_nodes(&self, data: &GraphData, nodes: &[usize]) -> Vec<f32> {
        let (_, h) = backbone(&self.layers, data);
        let logits = self.head.forward(&h);
        nodes.iter().map(|&n| sigmoid(logits[(n, 0)])).collect()
    }
}

impl Trainable for NodeClassifier {
    /// Binary labels of the supervised nodes.
    type Label<'a> = &'a [(usize, bool)];

    fn params(&self) -> Vec<&Param> {
        self.layers
            .iter()
            .flat_map(|l| [&l.w, &l.b])
            .chain([&self.head.w, &self.head.b])
            .collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| [&mut l.w, &mut l.b])
            .chain([&mut self.head.w, &mut self.head.b])
            .collect()
    }

    fn sample_grads(&self, data: &GraphData, labels: &[(usize, bool)]) -> (f32, Vec<Matrix>) {
        if labels.is_empty() {
            // Nothing supervised: a zero gradient for every parameter.
            let zeros = self.params().into_iter().map(|p| {
                let v = &p.value;
                Matrix::zeros(v.rows(), v.cols())
            });
            return (0.0, zeros.collect());
        }
        let (caches, h) = backbone(&self.layers, data);
        let logits = self.head.forward(&h);
        let mut dlogits = Matrix::zeros(logits.rows(), 1);
        let mut loss = 0.0f32;
        let norm = 1.0 / labels.len() as f32;
        for &(node, target) in labels {
            let w = if target { self.pos_weight } else { 1.0 };
            let (l, d) = sigmoid_bce(logits[(node, 0)], target, w);
            loss += l * norm;
            dlogits[(node, 0)] = d * norm;
        }
        let (head_dw, head_db, dh) = self.head.backward_wrt(&h, &dlogits);
        let mut grads = vec![head_db, head_dw];
        backbone_backward(&self.layers, &data.graph, &caches, dh, &mut grads);
        grads.reverse();
        (loss, grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A toy separable task: class = whether the mean of feature 0 is
    /// positive.
    fn toy_dataset(n: usize, seed: u64) -> Vec<(GraphData, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let nodes = rng.gen_range(4..9);
                let label = rng.gen_range(0..2usize);
                let edges: Vec<(usize, usize)> = (1..nodes).map(|v| (v - 1, v)).collect();
                let mut feats = Matrix::zeros(nodes, 3);
                for r in 0..nodes {
                    let base = if label == 0 { 1.0 } else { -1.0 };
                    feats[(r, 0)] = base + rng.gen_range(-0.3..0.3);
                    feats[(r, 1)] = rng.gen_range(-1.0..1.0);
                    feats[(r, 2)] = rng.gen_range(-1.0..1.0);
                }
                (
                    GraphData::new(GcnGraph::from_edges(nodes, &edges), feats),
                    label,
                )
            })
            .collect()
    }

    #[test]
    fn classifier_learns_a_separable_task() {
        let data = toy_dataset(60, 3);
        let refs: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
        let mut model = GcnClassifier::new(3, 8, 2, 2, 5);
        let before = model.accuracy(&refs);
        model.fit(
            &refs,
            &TrainConfig {
                epochs: 30,
                ..TrainConfig::default()
            },
        );
        let after = model.accuracy(&refs);
        assert!(
            after > 0.95 && after > before,
            "training must learn: {before} -> {after}"
        );
    }

    #[test]
    fn transfer_model_freezes_backbone() {
        let data = toy_dataset(30, 7);
        let refs: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
        let mut base = GcnClassifier::new(3, 8, 2, 2, 5);
        base.fit(&refs, &TrainConfig::default());
        let backbone_before: Vec<f32> = base.layers[0].w.value.data().to_vec();
        let mut transfer = GcnClassifier::transfer_from(&base, 2, 42);
        assert!(transfer.freeze_backbone);
        transfer.fit(
            &refs,
            &TrainConfig {
                epochs: 5,
                ..TrainConfig::default()
            },
        );
        assert_eq!(
            transfer.layers[0].w.value.data(),
            backbone_before.as_slice(),
            "frozen backbone must not move"
        );
    }

    #[test]
    fn probabilities_are_normalized() {
        let data = toy_dataset(1, 9);
        let model = GcnClassifier::new(3, 8, 2, 2, 1);
        let p = model.predict_proba(&data[0].0);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn node_classifier_learns_node_labels() {
        // Label = neighbourhood mean of feature 0 is positive — a target a
        // mean-aggregating GCN can express exactly.
        let mut rng = StdRng::seed_from_u64(21);
        let mut samples = Vec::new();
        for _ in 0..30 {
            let nodes = 8usize;
            let edges: Vec<(usize, usize)> = (1..nodes).map(|v| (v - 1, v)).collect();
            let mut feats = Matrix::zeros(nodes, 2);
            for r in 0..nodes {
                feats[(r, 0)] = rng.gen_range(-1.0f32..1.0);
                feats[(r, 1)] = rng.gen_range(-0.2..0.2);
            }
            let mut labels = Vec::new();
            for r in 0..nodes {
                let lo = r.saturating_sub(1);
                let hi = (r + 1).min(nodes - 1);
                let mean: f32 =
                    (lo..=hi).map(|i| feats[(i, 0)]).sum::<f32>() / (hi - lo + 1) as f32;
                labels.push((r, mean > 0.0));
            }
            samples.push((
                GraphData::new(GcnGraph::from_edges(nodes, &edges), feats),
                labels,
            ));
        }
        let refs: Vec<(&GraphData, &[(usize, bool)])> =
            samples.iter().map(|(d, l)| (d, l.as_slice())).collect();
        let mut model = NodeClassifier::new(2, 16, 1, 3);
        model.fit(
            &refs,
            &TrainConfig {
                epochs: 120,
                ..TrainConfig::default()
            },
        );
        let mut hits = 0usize;
        let mut total = 0usize;
        for (d, labels) in &refs {
            let nodes: Vec<usize> = labels.iter().map(|&(n, _)| n).collect();
            let probs = model.predict_nodes(d, &nodes);
            for ((_, want), p) in labels.iter().zip(probs) {
                total += 1;
                if (p > 0.5) == *want {
                    hits += 1;
                }
            }
        }
        assert!(
            hits as f64 / total as f64 > 0.9,
            "node accuracy {hits}/{total}"
        );
    }
}
