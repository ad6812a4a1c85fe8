//! From-scratch graph neural networks for M3D fault localization.
//!
//! The paper builds its models with PyTorch + DGL; no mature Rust GNN
//! stack exists, so this crate implements the needed pieces directly:
//!
//! * [`Matrix`] — dense `f32` kernels,
//! * [`GcnGraph`] — CSR graphs with the paper's mean-neighbour aggregation
//!   (eq. (1), self-loops included),
//! * [`GcnClassifier`] — stacked GCN layers + mean graph pooling + softmax
//!   head (Tier-predictor / Classifier architecture), with network-based
//!   transfer learning ([`GcnClassifier::transfer_from`]),
//! * [`NodeClassifier`] — per-node sigmoid head (MIV-pinpointer),
//! * [`Trainable`] — the one Adam epoch runner both models train through,
//! * [`PrCurve`] — precision-recall analysis and the `T_p` threshold rule,
//! * [`pca_project`] — PCA for the Fig. 5 feature visualization,
//! * [`permutation_significance`] — the Table II feature-importance scores,
//! * [`reference`](mod@reference) — the naive kernels the products are tested against.
//!
//! Everything is deterministic in the provided seeds and trains on CPU in
//! seconds at the workspace's benchmark scale.
//!
//! # Examples
//!
//! ```
//! use m3d_gnn::{GcnClassifier, GcnGraph, GraphData, Matrix};
//!
//! let g = GraphData::new(
//!     GcnGraph::from_edges(2, &[(0, 1)]),
//!     Matrix::from_rows(&[&[1.0], &[0.0]]),
//! );
//! let model = GcnClassifier::new(1, 4, 2, 2, 7);
//! let probs = model.predict_proba(&g);
//! assert_eq!(probs.len(), 2);
//! ```

#![warn(missing_docs)]

mod graph;
mod guard;
mod layers;
mod matrix;
mod metrics;
mod model;
mod pca;
pub mod reference;
mod significance;

pub use graph::GcnGraph;
pub use guard::{
    EpochReport, GuardAction, GuardCause, GuardConfig, GuardEvent, GuardPolicy, NumericFault,
    TrainReport,
};
pub use layers::{sigmoid, softmax, DenseLayer, GcnLayer, Param};
pub use matrix::Matrix;
pub use metrics::{accuracy, PrCurve, PrPoint, RocCurve, RocPoint, ScoredSample};
pub use model::{GcnClassifier, GraphData, NodeClassifier, TrainConfig, TrainCursor, Trainable};
pub use pca::pca_project;
pub use significance::permutation_significance;
