//! The crash-safe training loop: guarded epochs with periodic atomic
//! checkpoints and bit-exact resume.

use std::fmt;
use std::fs;
use std::path::PathBuf;

use m3d_gnn::{
    GraphData, GuardConfig, NumericFault, TrainConfig, TrainCursor, TrainReport, Trainable,
};

use crate::checkpoint::{self, CheckpointError, TrainCheckpoint};

/// Where and how often checkpoints are written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding the checkpoint (created if missing).
    pub dir: PathBuf,
    /// Checkpoint every `every` completed epochs (0 disables periodic
    /// snapshots; the final one is still written).
    pub every: usize,
}

impl CheckpointConfig {
    /// Checkpoints into `dir` after every epoch.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every: 1,
        }
    }

    /// The checkpoint file path.
    pub fn file(&self) -> PathBuf {
        self.dir.join("train.ckpt")
    }
}

/// Why a resilient training run stopped early.
#[derive(Debug)]
pub enum ResilientError {
    /// Checkpoint I/O, corruption, or shape failure.
    Checkpoint(CheckpointError),
    /// A numeric fault under [`m3d_gnn::GuardPolicy::Abort`].
    Numeric(NumericFault),
}

impl fmt::Display for ResilientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilientError::Checkpoint(e) => write!(f, "{e}"),
            ResilientError::Numeric(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ResilientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResilientError::Checkpoint(e) => Some(e),
            ResilientError::Numeric(e) => Some(e),
        }
    }
}

impl From<CheckpointError> for ResilientError {
    fn from(e: CheckpointError) -> Self {
        ResilientError::Checkpoint(e)
    }
}

impl From<NumericFault> for ResilientError {
    fn from(e: NumericFault) -> Self {
        ResilientError::Numeric(e)
    }
}

/// What a resilient training run did.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainOutcome {
    /// Losses and guard interventions for the epochs this call executed.
    pub report: TrainReport,
    /// `Some(epoch)` when the run resumed from a checkpoint at that epoch.
    pub resumed_from: Option<usize>,
    /// Checkpoints written by this call.
    pub checkpoints_written: usize,
    /// `Some(epoch)` when the run stopped early at the simulated-crash
    /// point (`halt_after`), with a checkpoint on disk.
    pub halted_at: Option<usize>,
}

/// Trains `model` with numeric guardrails, checkpointing between epochs
/// and optionally resuming from an existing checkpoint.
///
/// * `resume` — when the checkpoint file exists, restore model + cursor
///   from it and continue; a fresh run otherwise. Because the snapshot
///   carries the full Adam state, RNG state, and shuffle order, a resumed
///   run produces weights **bit-identical** to an uninterrupted one, at
///   any thread count (the cross-process extension of `m3d-par`'s
///   determinism contract). A snapshot whose shuffle order is not a
///   permutation of `samples` (written for another training set) is
///   rejected with [`CheckpointError::OrderMismatch`] before the model is
///   touched.
/// * `halt_after` — simulated crash for the resume-equivalence tests and
///   the CLI smoke: after completing epoch `k` (0-based count of completed
///   epochs ≥ `k`), write a checkpoint and return early with
///   `halted_at = Some(k)`.
pub fn train_resilient<M: Trainable>(
    model: &mut M,
    samples: &[(&GraphData, M::Label<'_>)],
    cfg: &TrainConfig,
    guard: &GuardConfig,
    ckpt: &CheckpointConfig,
    resume: bool,
    halt_after: Option<usize>,
) -> Result<TrainOutcome, ResilientError> {
    fs::create_dir_all(&ckpt.dir).map_err(CheckpointError::Io)?;
    let path = ckpt.file();
    let mut resumed_from = None;
    let mut cursor = if resume && path.exists() {
        let snap = checkpoint::load(&path)?;
        if !is_permutation(&snap.order, samples.len()) {
            return Err(CheckpointError::OrderMismatch {
                expected: samples.len(),
                found: snap.order.len(),
            }
            .into());
        }
        let cursor = snap.restore_into(&mut model.params_mut())?;
        resumed_from = Some(cursor.epoch);
        cursor
    } else {
        TrainCursor::start(cfg, samples.len())
    };
    let mut report = TrainReport::default();
    let mut written = 0usize;
    while cursor.epoch < cfg.epochs {
        report.absorb(model.train_epoch(samples, cfg, &mut cursor, guard)?);
        let halt = halt_after.is_some_and(|h| cursor.epoch >= h);
        let due = (ckpt.every > 0 && cursor.epoch % ckpt.every == 0)
            || cursor.epoch == cfg.epochs
            || halt;
        if due {
            let params = model.params();
            checkpoint::save_atomic(&path, &TrainCheckpoint::capture(&params, &cursor))?;
            written += 1;
        }
        if halt {
            return Ok(TrainOutcome {
                report,
                resumed_from,
                checkpoints_written: written,
                halted_at: Some(cursor.epoch),
            });
        }
    }
    Ok(TrainOutcome {
        report,
        resumed_from,
        checkpoints_written: written,
        halted_at: None,
    })
}

/// Whether `order` holds each index in `0..n` exactly once.
fn is_permutation(order: &[u32], n: usize) -> bool {
    let mut seen = vec![false; n];
    order.len() == n
        && order.iter().all(|&i| {
            seen.get_mut(i as usize)
                .is_some_and(|s| !std::mem::replace(s, true))
        })
}
