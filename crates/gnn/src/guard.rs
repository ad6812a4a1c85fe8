//! Numeric guardrails for training: NaN/Inf detection on per-sample losses
//! and merged gradients, with a configurable recovery policy.
//!
//! Training a GCN for hours and losing the run to one non-finite gradient
//! is the failure mode this module removes. Every batch, the one epoch
//! runner every model trains through ([`crate::Trainable::train_epoch`])
//! checks the per-sample losses and the merged gradient accumulators
//! *before* the Adam step; a detected fault triggers the configured
//! [`GuardPolicy`] and is recorded as a [`GuardEvent`] in the returned
//! report.
//!
//! All checks are pure reads: on healthy data the guarded runner performs
//! bit-for-bit the same arithmetic as the unguarded one, so PR 2's
//! determinism contract (identical weights at any thread count) is
//! preserved.

use std::fmt;
use std::str::FromStr;

/// What to do when a non-finite loss or gradient is detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardPolicy {
    /// Stop training and return a typed [`NumericFault`].
    Abort,
    /// Discard the offending batch (no Adam step, no `t` increment, its
    /// loss excluded from the epoch mean) and continue.
    SkipBatch,
    /// Discard the offending batch *and* halve the learning rate (floored
    /// at [`GuardConfig::min_lr`]) before continuing — the classic
    /// response to a loss blow-up.
    RollbackAndHalveLr,
}

impl fmt::Display for GuardPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GuardPolicy::Abort => "abort",
            GuardPolicy::SkipBatch => "skip",
            GuardPolicy::RollbackAndHalveLr => "rollback",
        })
    }
}

impl FromStr for GuardPolicy {
    type Err = String;

    /// Parses the CLI spelling: `abort`, `skip`, or `rollback`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "abort" => Ok(GuardPolicy::Abort),
            "skip" => Ok(GuardPolicy::SkipBatch),
            "rollback" => Ok(GuardPolicy::RollbackAndHalveLr),
            other => Err(format!(
                "unknown guard policy `{other}` (expected abort|skip|rollback)"
            )),
        }
    }
}

/// Guardrail configuration for an epoch runner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuardConfig {
    /// Whether the checks run at all. [`GuardConfig::off`] disables them;
    /// [`crate::Trainable::fit`] trains with guards off.
    pub enabled: bool,
    /// The recovery policy when a fault is detected.
    pub policy: GuardPolicy,
    /// Floor for [`GuardPolicy::RollbackAndHalveLr`]: the learning rate is
    /// never halved below this.
    pub min_lr: f32,
}

impl GuardConfig {
    /// Guards disabled: the exact legacy training loop.
    pub fn off() -> Self {
        GuardConfig {
            enabled: false,
            policy: GuardPolicy::Abort,
            min_lr: 1e-6,
        }
    }

    /// Guards enabled with the given policy and the default `min_lr`
    /// floor of `1e-6`.
    pub fn new(policy: GuardPolicy) -> Self {
        GuardConfig {
            enabled: true,
            policy,
            min_lr: 1e-6,
        }
    }
}

impl Default for GuardConfig {
    /// Enabled, [`GuardPolicy::Abort`]: surface faults, never mask them.
    fn default() -> Self {
        GuardConfig::new(GuardPolicy::Abort)
    }
}

/// What the guard detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardCause {
    /// A per-sample loss came back NaN or ±Inf.
    NonFiniteLoss {
        /// Index of the offending sample in the training set.
        sample: usize,
    },
    /// The merged gradient accumulators contain a NaN or ±Inf.
    NonFiniteGrad,
}

impl fmt::Display for GuardCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardCause::NonFiniteLoss { sample } => {
                write!(f, "non-finite loss on sample {sample}")
            }
            GuardCause::NonFiniteGrad => f.write_str("non-finite merged gradient"),
        }
    }
}

/// How the guard responded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GuardAction {
    /// The batch was discarded and training continued.
    SkippedBatch,
    /// The batch was discarded and the learning rate halved.
    RolledBack {
        /// The learning rate after halving.
        new_lr: f32,
    },
}

/// One guard intervention, as recorded in a [`TrainReport`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuardEvent {
    /// Epoch (0-based) in which the fault was detected.
    pub epoch: usize,
    /// Batch index within the epoch.
    pub batch: usize,
    /// What was detected.
    pub cause: GuardCause,
    /// What the guard did about it.
    pub action: GuardAction,
}

/// Typed error for [`GuardPolicy::Abort`]: training stopped on a detected
/// numeric fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NumericFault {
    /// Epoch (0-based) in which the fault was detected.
    pub epoch: usize,
    /// Batch index within the epoch.
    pub batch: usize,
    /// What was detected.
    pub cause: GuardCause,
}

impl fmt::Display for NumericFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "numeric fault at epoch {} batch {}: {}",
            self.epoch, self.batch, self.cause
        )
    }
}

impl std::error::Error for NumericFault {}

/// Result of one guarded epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochReport {
    /// Mean training loss over the epoch (skipped batches excluded from
    /// the numerator, full sample count in the denominator).
    pub mean_loss: f32,
    /// Guard interventions during the epoch (empty on a clean epoch).
    pub events: Vec<GuardEvent>,
}

/// Result of a guarded training run: the final loss plus every guard
/// intervention that occurred along the way.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainReport {
    /// Final-epoch mean training loss (0.0 when no epoch ran).
    pub final_loss: f32,
    /// Number of epochs executed by this call (excludes epochs replayed
    /// from a checkpoint).
    pub epochs_run: usize,
    /// Every guard intervention, in detection order.
    pub events: Vec<GuardEvent>,
}

impl TrainReport {
    /// Number of guard interventions recorded.
    pub fn interventions(&self) -> usize {
        self.events.len()
    }

    /// Folds one epoch's outcome into the running report.
    pub fn absorb(&mut self, epoch: EpochReport) {
        self.final_loss = epoch.mean_loss;
        self.epochs_run += 1;
        self.events.extend(epoch.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_cli_spellings() {
        assert_eq!("abort".parse::<GuardPolicy>(), Ok(GuardPolicy::Abort));
        assert_eq!("skip".parse::<GuardPolicy>(), Ok(GuardPolicy::SkipBatch));
        assert_eq!(
            "rollback".parse::<GuardPolicy>(),
            Ok(GuardPolicy::RollbackAndHalveLr)
        );
        assert!("nope".parse::<GuardPolicy>().is_err());
        for p in [
            GuardPolicy::Abort,
            GuardPolicy::SkipBatch,
            GuardPolicy::RollbackAndHalveLr,
        ] {
            assert_eq!(p.to_string().parse::<GuardPolicy>(), Ok(p), "roundtrip");
        }
    }

    #[test]
    fn report_absorbs_epochs() {
        let mut report = TrainReport::default();
        report.absorb(EpochReport {
            mean_loss: 2.0,
            events: vec![GuardEvent {
                epoch: 0,
                batch: 1,
                cause: GuardCause::NonFiniteGrad,
                action: GuardAction::SkippedBatch,
            }],
        });
        report.absorb(EpochReport {
            mean_loss: 1.0,
            events: Vec::new(),
        });
        assert_eq!(report.final_loss, 1.0);
        assert_eq!(report.epochs_run, 2);
        assert_eq!(report.interventions(), 1);
    }

    #[test]
    fn fault_displays_location_and_cause() {
        let f = NumericFault {
            epoch: 3,
            batch: 7,
            cause: GuardCause::NonFiniteLoss { sample: 12 },
        };
        assert_eq!(
            f.to_string(),
            "numeric fault at epoch 3 batch 7: non-finite loss on sample 12"
        );
    }
}
