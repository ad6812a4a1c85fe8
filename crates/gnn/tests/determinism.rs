//! Thread-count determinism: training on the `m3d_par` pool must produce
//! bitwise-identical models at `threads = 1` and `threads = 8`.
//!
//! This is the contract that lets every table in the reproduction be
//! regenerated on any machine: chunk boundaries are a function of input
//! length only, and gradients merge in sample-index order (see the
//! `m3d_par` crate docs).

use m3d_gnn::{GcnClassifier, GcnGraph, GraphData, Matrix, NodeClassifier, TrainConfig, Trainable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn classifier_training_is_bitwise_thread_count_independent() {
    let data = toy_dataset(50, 11);
    let refs: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
    let cfg = TrainConfig {
        epochs: 12,
        ..TrainConfig::default()
    };

    let run = |threads: usize| {
        m3d_par::with_threads(threads, || {
            let mut model = GcnClassifier::new(3, 8, 2, 2, 5);
            let loss = model.fit(&refs, &cfg);
            let preds: Vec<usize> = data.iter().map(|(d, _)| model.predict(d)).collect();
            let probs: Vec<u32> = data
                .iter()
                .flat_map(|(d, _)| model.predict_proba(d))
                .map(f32::to_bits)
                .collect();
            (bits(&model.flat_params()), loss.to_bits(), preds, probs)
        })
    };

    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.0, parallel.0, "final weights must be bit-identical");
    assert_eq!(serial.1, parallel.1, "final loss must be bit-identical");
    assert_eq!(serial.2, parallel.2, "predictions must be identical");
    assert_eq!(serial.3, parallel.3, "probabilities must be bit-identical");
}

#[test]
fn transfer_classifier_training_is_thread_count_independent() {
    // The frozen-backbone path skips layer gradients; cover it separately.
    let data = toy_dataset(30, 7);
    let refs: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
    let cfg = TrainConfig {
        epochs: 6,
        ..TrainConfig::default()
    };
    let run = |threads: usize| {
        m3d_par::with_threads(threads, || {
            let mut base = GcnClassifier::new(3, 8, 2, 2, 5);
            base.fit(&refs, &cfg);
            let mut transfer = GcnClassifier::transfer_from(&base, 2, 42);
            let loss = transfer.fit(&refs, &cfg);
            (bits(&transfer.flat_params()), loss.to_bits())
        })
    };
    assert_eq!(run(1), run(8));
}

#[test]
fn node_classifier_training_is_thread_count_independent() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut samples = Vec::new();
    for _ in 0..24 {
        let nodes = 8usize;
        let edges: Vec<(usize, usize)> = (1..nodes).map(|v| (v - 1, v)).collect();
        let mut feats = Matrix::zeros(nodes, 2);
        for r in 0..nodes {
            feats[(r, 0)] = rng.gen_range(-1.0f32..1.0);
            feats[(r, 1)] = rng.gen_range(-0.2..0.2);
        }
        let labels: Vec<(usize, bool)> = (0..nodes).map(|r| (r, feats[(r, 0)] > 0.0)).collect();
        samples.push((
            GraphData::new(GcnGraph::from_edges(nodes, &edges), feats),
            labels,
        ));
    }
    let refs: Vec<(&GraphData, &[(usize, bool)])> =
        samples.iter().map(|(d, l)| (d, l.as_slice())).collect();
    let cfg = TrainConfig {
        epochs: 20,
        ..TrainConfig::default()
    };
    let run = |threads: usize| {
        m3d_par::with_threads(threads, || {
            let mut model = NodeClassifier::new(2, 16, 1, 3);
            model.pos_weight = 2.0;
            let loss = model.fit(&refs, &cfg);
            (bits(&model.flat_params()), loss.to_bits())
        })
    };
    assert_eq!(run(1), run(8), "node model must train identically");
}
