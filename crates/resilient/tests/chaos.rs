//! The fault-injection suite: every chaos fault class must surface as a
//! typed error or a recorded guard intervention — never a raw panic.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use m3d_gnn::{
    GcnClassifier, GcnGraph, GraphData, GuardAction, GuardConfig, GuardPolicy, Matrix,
    NodeClassifier, TrainConfig, Trainable,
};
use m3d_resilient::{
    chaos, checkpoint, train_resilient, CheckpointConfig, CheckpointError, ResilientError,
    TrainCheckpoint,
};

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

/// Node-classifier labels over `data`'s graphs: whether a node's first
/// feature is positive.
fn node_labels(data: &[(GraphData, usize)]) -> Vec<Vec<(usize, bool)>> {
    data.iter()
        .map(|(d, _)| {
            (0..d.features.rows())
                .map(|r| (r, d.features[(r, 0)] > 0.0))
                .collect()
        })
        .collect()
}

/// Pairs each graph with its node labels, as `NodeClassifier` trains.
fn node_samples<'a>(
    data: &'a [(GraphData, usize)],
    labels: &'a [Vec<(usize, bool)>],
) -> Vec<(&'a GraphData, &'a [(usize, bool)])> {
    data.iter()
        .zip(labels)
        .map(|((d, _), l)| (d, l.as_slice()))
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("m3d-chaos-{}-{tag}", std::process::id()))
}

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        // Small batches so a poisoned sample taints one batch per epoch
        // while the others still train.
        batch_size: 4,
        ..TrainConfig::default()
    }
}

/// Fault class 1a — NaN gradients under `Abort`: the run stops with a
/// typed `NumericFault` naming the epoch/batch, instead of silently
/// training on garbage.
#[test]
fn nan_gradient_aborts_with_typed_fault() {
    let mut data = toy_dataset(12, 1);
    chaos::poison_nan(&mut data[5].0.features, 42);
    let samples: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
    let mut model = GcnClassifier::new(3, 8, 2, 2, 5);
    let err = model
        .fit_guarded(&samples, &cfg(4), &GuardConfig::new(GuardPolicy::Abort))
        .expect_err("poisoned sample must abort");
    assert_eq!(err.epoch, 0, "caught in the first epoch: {err}");

    // The node classifier trains through the same guarded runner.
    let labels = node_labels(&data);
    let mut node_model = NodeClassifier::new(3, 8, 2, 5);
    let err = node_model
        .fit_guarded(
            &node_samples(&data, &labels),
            &cfg(4),
            &GuardConfig::new(GuardPolicy::Abort),
        )
        .expect_err("poisoned sample must abort the node classifier");
    assert_eq!(err.epoch, 0, "caught in the first epoch: {err}");
}

/// Fault class 1b — NaN gradients under `SkipBatch`: training completes,
/// every intervention is on the report, and the weights stay finite.
#[test]
fn nan_gradient_skips_batches_and_finishes() {
    let mut data = toy_dataset(12, 1);
    let poisoned = 5usize;
    chaos::poison_nan(&mut data[poisoned].0.features, 42);
    let samples: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
    let epochs = 4;
    let mut model = GcnClassifier::new(3, 8, 2, 2, 5);
    let report = model
        .fit_guarded(
            &samples,
            &cfg(epochs),
            &GuardConfig::new(GuardPolicy::SkipBatch),
        )
        .expect("skip policy survives poison");
    assert_eq!(report.epochs_run, epochs);
    // The poisoned sample lands in exactly one batch per epoch.
    assert_eq!(report.interventions(), epochs);
    assert!(report
        .events
        .iter()
        .all(|e| e.action == GuardAction::SkippedBatch));
    assert!(report.final_loss.is_finite());
    assert!(
        model.flat_params().iter().all(|w| w.is_finite()),
        "weights stay finite under SkipBatch"
    );
}

/// Fault class 1c — NaN gradients under `RollbackAndHalveLr`: every
/// intervention halves the learning rate (floored), and weights stay
/// finite.
#[test]
fn nan_gradient_rolls_back_and_halves_lr() {
    let mut data = toy_dataset(12, 1);
    chaos::poison_nan(&mut data[3].0.features, 7);
    let samples: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
    let mut model = GcnClassifier::new(3, 8, 2, 2, 5);
    let base_lr = cfg(3).learning_rate;
    let report = model
        .fit_guarded(
            &samples,
            &cfg(3),
            &GuardConfig::new(GuardPolicy::RollbackAndHalveLr),
        )
        .expect("rollback policy survives poison");
    assert!(!report.events.is_empty());
    let mut last_lr = base_lr;
    for e in &report.events {
        match e.action {
            GuardAction::RolledBack { new_lr } => {
                assert!(
                    new_lr <= last_lr / 2.0 || new_lr == 1e-6,
                    "lr halves: {new_lr}"
                );
                last_lr = new_lr;
            }
            other => panic!("unexpected action {other:?}"),
        }
    }
    assert!(model.flat_params().iter().all(|w| w.is_finite()));
}

/// Guard overhead is zero on healthy data: guarded and unguarded training
/// produce bit-identical weights (the checks are pure reads).
#[test]
fn guards_are_bitwise_free_on_healthy_data() {
    let data = toy_dataset(16, 9);
    let samples: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
    let mut plain = GcnClassifier::new(3, 8, 2, 2, 5);
    plain.fit(&samples, &cfg(5));
    let mut guarded = GcnClassifier::new(3, 8, 2, 2, 5);
    let report = guarded
        .fit_guarded(&samples, &cfg(5), &GuardConfig::new(GuardPolicy::Abort))
        .expect("healthy data");
    assert_eq!(report.interventions(), 0);
    assert_eq!(plain.flat_params(), guarded.flat_params());

    let labels = node_labels(&data);
    let nodes = node_samples(&data, &labels);
    let mut plain = NodeClassifier::new(3, 8, 2, 5);
    plain.fit(&nodes, &cfg(5));
    let mut guarded = NodeClassifier::new(3, 8, 2, 5);
    let report = guarded
        .fit_guarded(&nodes, &cfg(5), &GuardConfig::new(GuardPolicy::Abort))
        .expect("healthy data");
    assert_eq!(report.interventions(), 0);
    assert_eq!(plain.flat_params(), guarded.flat_params());
}

/// Fault class 2 — truncated checkpoint: every possible truncation point
/// is rejected with a typed error, never a panic.
#[test]
fn truncated_checkpoint_is_rejected_typed() {
    let dir = tmp_dir("trunc");
    let data = toy_dataset(8, 2);
    let samples: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
    let mut model = GcnClassifier::new(3, 8, 2, 2, 5);
    train_resilient(
        &mut model,
        &samples,
        &cfg(2),
        &GuardConfig::default(),
        &CheckpointConfig::new(&dir),
        false,
        None,
    )
    .expect("healthy");
    let path = CheckpointConfig::new(&dir).file();
    let full = std::fs::read(&path).expect("checkpoint exists");
    for keep in [0usize, 4, 7, 8, 20, full.len() / 2, full.len() - 1] {
        chaos::truncate_file(&path, keep).expect("truncate");
        let err = checkpoint::load(&path).expect_err("truncated file must be rejected");
        assert!(
            matches!(
                err,
                CheckpointError::Truncated { .. }
                    | CheckpointError::BadMagic
                    | CheckpointError::CrcMismatch { .. }
            ),
            "keep={keep}: {err}"
        );
        std::fs::write(&path, &full).expect("restore");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault class 3 — bit-flipped checkpoint: the CRC trailer catches seeded
/// random single-bit flips, and a resume attempt surfaces the typed error
/// instead of training on corrupt state.
#[test]
fn bit_flipped_checkpoint_fails_crc_and_resume() {
    let dir = tmp_dir("flip");
    let data = toy_dataset(8, 2);
    let samples: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
    let mut model = GcnClassifier::new(3, 8, 2, 2, 5);
    train_resilient(
        &mut model,
        &samples,
        &cfg(2),
        &GuardConfig::default(),
        &CheckpointConfig::new(&dir),
        false,
        None,
    )
    .expect("healthy");
    let path = CheckpointConfig::new(&dir).file();
    let full = std::fs::read(&path).expect("checkpoint exists");
    for seed in 0..16u64 {
        chaos::flip_bit(&path, seed).expect("flip");
        let err = checkpoint::load(&path).expect_err("flipped bit must be caught");
        assert!(
            matches!(
                err,
                CheckpointError::CrcMismatch { .. } | CheckpointError::BadMagic
            ),
            "seed={seed}: {err}"
        );
        std::fs::write(&path, &full).expect("restore");
    }
    // A resume over a corrupted file is a typed ResilientError, not a
    // panic, and the model is left untouched.
    chaos::flip_bit(&path, 99).expect("flip");
    let mut resumed = GcnClassifier::new(3, 8, 2, 2, 5);
    let before = resumed.flat_params();
    let err = train_resilient(
        &mut resumed,
        &samples,
        &cfg(2),
        &GuardConfig::default(),
        &CheckpointConfig::new(&dir),
        true,
        None,
    )
    .expect_err("resume over corruption must fail typed");
    assert!(matches!(err, ResilientError::Checkpoint(_)), "{err}");
    assert_eq!(resumed.flat_params(), before, "model untouched on failure");
    std::fs::remove_dir_all(&dir).ok();
}

/// Resuming over a checkpoint written for another training set (here: a
/// smaller one) is a typed error naming both sample counts, raised before
/// the model is touched — not a panic inside the epoch runner.
#[test]
fn resume_with_a_different_sample_count_is_rejected_typed() {
    let dir = tmp_dir("resize");
    let data = toy_dataset(12, 2);
    let samples: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
    let mut model = GcnClassifier::new(3, 8, 2, 2, 5);
    train_resilient(
        &mut model,
        &samples[..8],
        &cfg(4),
        &GuardConfig::default(),
        &CheckpointConfig::new(&dir),
        false,
        Some(2),
    )
    .expect("healthy");
    let mut resumed = GcnClassifier::new(3, 8, 2, 2, 5);
    let before = resumed.flat_params();
    let err = train_resilient(
        &mut resumed,
        &samples,
        &cfg(4),
        &GuardConfig::default(),
        &CheckpointConfig::new(&dir),
        true,
        None,
    )
    .expect_err("resuming on a resized training set must fail typed");
    assert!(
        matches!(
            err,
            ResilientError::Checkpoint(CheckpointError::OrderMismatch {
                expected: 12,
                found: 8
            })
        ),
        "{err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("8 entries") && msg.contains("12 training samples"),
        "{msg}"
    );
    assert_eq!(resumed.flat_params(), before, "model untouched on failure");
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint from a differently-shaped model is rejected by the shape
/// check before anything is mutated.
#[test]
fn shape_mismatch_is_rejected_before_mutation() {
    let small = GcnClassifier::new(3, 4, 1, 2, 5);
    let cursor = m3d_gnn::TrainCursor::start(&cfg(1), 4);
    let snap = TrainCheckpoint::capture(&small.params(), &cursor);
    let mut big = GcnClassifier::new(3, 8, 2, 2, 5);
    let before = big.flat_params();
    let mut params = big.params_mut();
    let err = snap.restore_into(&mut params).expect_err("shape mismatch");
    assert!(
        matches!(
            err,
            CheckpointError::TensorCountMismatch { .. } | CheckpointError::ShapeMismatch { .. }
        ),
        "{err}"
    );
    assert_eq!(big.flat_params(), before);
}

/// Fault class 5 — worker panics: the `try_` pool entry points contain a
/// seeded panic as a typed `WorkerPanic` with the chunk index; sibling
/// work completes.
#[test]
fn worker_panic_is_contained_typed() {
    let items: Vec<usize> = (0..128).collect();
    let inject = chaos::panic_on(77);
    for threads in [1, 4] {
        let err = m3d_par::with_threads(threads, || m3d_par::try_par_map(&items, &inject))
            .expect_err("injected panic must surface as Err");
        // 128 items → chunk size 2 → item 77 lives in chunk 38.
        assert_eq!(err.chunk, 38, "threads={threads}");
        assert!(err.message.contains("injected worker panic"));
    }
}

/// Fault class 4 (garbling side) — the text garbler deterministically
/// malforms a log; the parser-side proof that malformed logs surface as
/// typed errors lives in `m3d-tdf`'s fuzz tests, which use this injector.
#[test]
fn garbler_is_deterministic_and_destructive() {
    let log = "fail pattern 3 flop 1\nfail pattern 4 flop 2\n";
    for seed in 0..8u64 {
        let a = chaos::garble_text(log, seed);
        let b = chaos::garble_text(log, seed);
        assert_eq!(a, b, "seed={seed}: garbling must be deterministic");
        assert_ne!(a, log, "seed={seed}: garbling must change the text");
    }
}
