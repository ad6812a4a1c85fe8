//! Resume-equivalence: kill-at-epoch-k + resume must produce weights
//! bit-identical to an uninterrupted run, at 1 and 4 threads — the
//! cross-process extension of `m3d-par`'s determinism contract.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use m3d_gnn::{GcnClassifier, GcnGraph, GraphData, GuardConfig, Matrix, TrainConfig, Trainable};
use m3d_resilient::{train_resilient, weights_digest, CheckpointConfig};

/// A small separable graph-classification task (class = sign of the mean
/// of feature 0), mirroring the gnn crate's training tests.
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

fn fresh_model() -> GcnClassifier {
    GcnClassifier::new(3, 8, 2, 2, 5)
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("m3d-resume-{}-{tag}", std::process::id()))
}

/// Runs the full 8-epoch reference and the 4+resume-4 split in one helper
/// so each thread count exercises the identical scenario.
fn run_split_vs_straight(threads: usize) {
    let data = toy_dataset(24, 11);
    let samples: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
    let cfg = TrainConfig {
        epochs: 8,
        ..TrainConfig::default()
    };
    let guard = GuardConfig::default();

    m3d_par::with_threads(threads, || {
        // Uninterrupted reference run.
        let dir_a = tmp_dir(&format!("straight-{threads}"));
        let mut straight = fresh_model();
        let out_a = train_resilient(
            &mut straight,
            &samples,
            &cfg,
            &guard,
            &CheckpointConfig::new(&dir_a),
            false,
            None,
        )
        .expect("healthy run");
        assert_eq!(out_a.report.epochs_run, 8);
        assert_eq!(out_a.resumed_from, None);

        // Interrupted run: simulated crash after epoch 4...
        let dir_b = tmp_dir(&format!("split-{threads}"));
        let mut first_half = fresh_model();
        let out_halt = train_resilient(
            &mut first_half,
            &samples,
            &cfg,
            &guard,
            &CheckpointConfig::new(&dir_b),
            false,
            Some(4),
        )
        .expect("healthy run");
        assert_eq!(out_halt.halted_at, Some(4));

        // ...then a *fresh process stand-in*: a brand-new model object,
        // restored entirely from the checkpoint.
        let mut resumed = fresh_model();
        let out_b = train_resilient(
            &mut resumed,
            &samples,
            &cfg,
            &guard,
            &CheckpointConfig::new(&dir_b),
            true,
            None,
        )
        .expect("healthy resume");
        assert_eq!(out_b.resumed_from, Some(4));
        assert_eq!(out_b.report.epochs_run, 4);

        // Bit-identical weights, losses, and predictions.
        assert_eq!(
            straight.flat_params(),
            resumed.flat_params(),
            "threads={threads}: resumed weights must be bit-identical"
        );
        assert_eq!(
            weights_digest(&straight.flat_params()),
            weights_digest(&resumed.flat_params())
        );
        assert_eq!(
            out_a.report.final_loss.to_bits(),
            out_b.report.final_loss.to_bits(),
            "threads={threads}: final losses must be bit-identical"
        );
        for (d, _) in &samples {
            let pa = straight.predict_proba(d);
            let pb = resumed.predict_proba(d);
            let pa_bits: Vec<u32> = pa.iter().map(|x| x.to_bits()).collect();
            let pb_bits: Vec<u32> = pb.iter().map(|x| x.to_bits()).collect();
            assert_eq!(pa_bits, pb_bits, "threads={threads}: predictions differ");
        }

        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    });
}

#[test]
fn resume_is_bit_identical_at_one_thread() {
    run_split_vs_straight(1);
}

#[test]
fn resume_is_bit_identical_at_four_threads() {
    run_split_vs_straight(4);
}

#[test]
fn resume_matches_across_thread_counts() {
    // Crash at 1 thread, resume at 4 (and vice versa): still identical to
    // the straight serial run — checkpoints are thread-count portable.
    let data = toy_dataset(20, 3);
    let samples: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
    let cfg = TrainConfig {
        epochs: 6,
        ..TrainConfig::default()
    };
    let guard = GuardConfig::default();

    let reference = m3d_par::with_threads(1, || {
        let dir = tmp_dir("xref");
        let mut model = fresh_model();
        train_resilient(
            &mut model,
            &samples,
            &cfg,
            &guard,
            &CheckpointConfig::new(&dir),
            false,
            None,
        )
        .expect("healthy");
        std::fs::remove_dir_all(&dir).ok();
        model.flat_params()
    });

    let dir = tmp_dir("xswitch");
    let mut model = fresh_model();
    m3d_par::with_threads(1, || {
        train_resilient(
            &mut model,
            &samples,
            &cfg,
            &guard,
            &CheckpointConfig::new(&dir),
            false,
            Some(3),
        )
        .expect("healthy")
    });
    let mut resumed = fresh_model();
    m3d_par::with_threads(4, || {
        train_resilient(
            &mut resumed,
            &samples,
            &cfg,
            &guard,
            &CheckpointConfig::new(&dir),
            true,
            None,
        )
        .expect("healthy resume")
    });
    assert_eq!(reference, resumed.flat_params());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_without_checkpoint_starts_fresh() {
    let data = toy_dataset(8, 7);
    let samples: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    let dir = tmp_dir("fresh");
    std::fs::remove_dir_all(&dir).ok();
    let mut model = fresh_model();
    let out = train_resilient(
        &mut model,
        &samples,
        &cfg,
        &GuardConfig::default(),
        &CheckpointConfig::new(&dir),
        true,
        None,
    )
    .expect("fresh run despite --resume");
    assert_eq!(out.resumed_from, None);
    assert_eq!(out.report.epochs_run, 2);
    std::fs::remove_dir_all(&dir).ok();
}
