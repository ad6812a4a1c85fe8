//! Crash-safe execution for the M3D train→diagnose pipeline.
//!
//! The paper's flow is a long-running pipeline — ATPG, fault simulation,
//! dataset generation, GCN training — and this crate is its robustness
//! backbone:
//!
//! * [`checkpoint`] — versioned, CRC32-checksummed binary snapshots of
//!   model weights, Adam moments, and the full training cursor (epoch,
//!   step count, learning rate, RNG state, shuffle order), written via
//!   write-to-temp + atomic rename.
//! * [`trainer`] — [`train_resilient`]: guarded epochs with periodic
//!   checkpoints; kill-at-epoch-k + resume produces weights
//!   **bit-identical** to an uninterrupted run, extending `m3d-par`'s
//!   thread-count determinism contract across process boundaries.
//! * [`chaos`] — a deterministic fault-injection harness (NaN gradients,
//!   truncated/bit-flipped checkpoints, malformed log lines, worker
//!   panics) that the integration tests use to *prove* each fault class
//!   is detected and recovered from.
//!
//! The numeric guardrails themselves ([`GuardPolicy`], [`TrainReport`],
//! …) live in `m3d-gnn` next to the training loop and are re-exported
//! here for convenience.
//!
//! # Examples
//!
//! ```
//! use m3d_gnn::{GcnClassifier, GcnGraph, GraphData, GuardConfig, Matrix, TrainConfig};
//! use m3d_resilient::{train_resilient, CheckpointConfig};
//!
//! let data = GraphData::new(
//!     GcnGraph::from_edges(3, &[(0, 1), (1, 2)]),
//!     Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]),
//! );
//! let samples = vec![(&data, 0usize)];
//! let cfg = TrainConfig { epochs: 2, ..TrainConfig::default() };
//! let dir = std::env::temp_dir().join(format!("m3d-resilient-doc-{}", std::process::id()));
//! let mut model = GcnClassifier::new(2, 4, 1, 2, 7);
//! let outcome = train_resilient(
//!     &mut model,
//!     &samples,
//!     &cfg,
//!     &GuardConfig::default(),
//!     &CheckpointConfig::new(&dir),
//!     false,
//!     None,
//! )
//! .expect("training is healthy");
//! assert_eq!(outcome.report.epochs_run, 2);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod trainer;

pub use checkpoint::{
    crc32, save_bytes_atomic, save_text_atomic, CheckpointError, TensorState, TrainCheckpoint,
};
pub use trainer::{train_resilient, CheckpointConfig, ResilientError, TrainOutcome};

// The guard types live next to the training loop in `m3d-gnn`;
// re-exported so resilience-focused callers need only this crate.
pub use m3d_gnn::{
    EpochReport, GuardAction, GuardCause, GuardConfig, GuardEvent, GuardPolicy, NumericFault,
    TrainReport,
};

/// CRC-32 digest of a flattened parameter vector's little-endian bytes.
///
/// The CLI prints this after training and the resume-equivalence tests
/// compare it across runs: equal digests ⇔ bit-identical weights (up to
/// CRC collision, which the tests back with a full `flat_params`
/// comparison where both vectors are in hand).
pub fn weights_digest(flat_params: &[f32]) -> u32 {
    let mut bytes = Vec::with_capacity(flat_params.len() * 4);
    for &x in flat_params {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    crc32(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_distinguishes_bit_level_changes() {
        let a = [1.0f32, 2.0, 3.0];
        let mut b = a;
        assert_eq!(weights_digest(&a), weights_digest(&b));
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert_ne!(weights_digest(&a), weights_digest(&b));
    }
}
