//! Observability must be a pure read of training: enabling span tracing
//! and metrics recording must leave weights, loss, and predictions
//! bit-identical to an uninstrumented run, at any pool width — for the
//! graph classifier and the node classifier alike, since both train
//! through the one epoch runner.
//!
//! Single `#[test]`: obs state is process-global, so the four scenarios
//! (obs off/on × threads 1/4) of each model run sequentially inside one
//! test function.

use std::fmt::Debug;

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

/// Runs `train` with obs off and on at pool widths 1 and 4: the results
/// must be equal, and the instrumented run must record the fit span, one
/// epoch counter tick and one loss point per epoch.
fn assert_obs_is_a_pure_read<R: PartialEq + Debug>(
    model: &str,
    epochs: usize,
    train: impl Fn() -> R,
) {
    let run = |threads: usize, obs: bool| {
        m3d_obs::reset();
        m3d_obs::set_enabled(obs);
        let out = m3d_par::with_threads(threads, &train);
        m3d_obs::set_enabled(false);
        out
    };

    let baseline = run(1, false);
    let obs_1t = run(1, true);

    // The instrumented run must have actually recorded something…
    let trace = m3d_obs::trace_events();
    assert!(
        trace.iter().any(|e| matches!(
            e,
            m3d_obs::Event::Span { name, .. } if name == "gnn_fit"
        )),
        "{model}: instrumented run records a gnn_fit span"
    );
    let reg = m3d_obs::registry_snapshot();
    assert_eq!(
        reg.series("gnn.epoch_loss").map(<[f64]>::len),
        Some(epochs),
        "{model}: one loss point per epoch"
    );
    assert_eq!(
        reg.counter_value("gnn.train.epochs"),
        Some(epochs as u64),
        "{model}"
    );
    m3d_obs::reset();

    let obs_4t = run(4, true);
    m3d_obs::reset();
    let off_4t = run(4, false);

    // …while leaving every numeric result untouched.
    assert_eq!(
        baseline, obs_1t,
        "{model}: obs on/off must match at 1 thread"
    );
    assert_eq!(baseline, obs_4t, "{model}: obs on must match at 4 threads");
    assert_eq!(baseline, off_4t, "{model}: obs off must match at 4 threads");
}

#[test]
fn training_is_bit_identical_with_observability_on_or_off() {
    let data = toy_dataset(30, 17);
    let cfg = TrainConfig {
        epochs: 8,
        ..TrainConfig::default()
    };

    let graphs: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
    assert_obs_is_a_pure_read("GcnClassifier", cfg.epochs, || {
        let mut model = GcnClassifier::new(3, 8, 2, 2, 5);
        let loss = model.fit(&graphs, &cfg);
        let preds: Vec<usize> = data.iter().map(|(d, _)| model.predict(d)).collect();
        (bits(&model.flat_params()), loss.to_bits(), preds)
    });

    // Node labels: whether a node's first feature is positive.
    let labels: Vec<Vec<(usize, bool)>> = data
        .iter()
        .map(|(d, _)| {
            (0..d.features.rows())
                .map(|r| (r, d.features[(r, 0)] > 0.0))
                .collect()
        })
        .collect();
    let nodes: Vec<(&GraphData, &[(usize, bool)])> = data
        .iter()
        .zip(&labels)
        .map(|((d, _), l)| (d, l.as_slice()))
        .collect();
    assert_obs_is_a_pure_read("NodeClassifier", cfg.epochs, || {
        let mut model = NodeClassifier::new(3, 8, 2, 5);
        model.pos_weight = 2.0;
        let loss = model.fit(&nodes, &cfg);
        (bits(&model.flat_params()), loss.to_bits())
    });
}
