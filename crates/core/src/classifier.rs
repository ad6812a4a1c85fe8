//! The GNN-based Classifier (Section V-C).
//!
//! Among *Predicted Positive* samples (Tier-predictor confidence above
//! `T_p`), the Classifier separates True Positives (safe to prune) from
//! False Positives (pruning would delete the ground truth). It reuses the
//! Tier-predictor's pre-trained hidden layers with a fresh classification
//! head (network-based deep transfer learning), and balances its heavily
//! skewed training set by synthesizing minority samples with dummy-buffer
//! insertion.

use m3d_gnn::{GcnClassifier, GraphData, Trainable};
use m3d_hetgraph::SubGraph;

use crate::models::{ModelConfig, TierPredictor};
use crate::sample::DiagSample;

/// Classifier decisions: prune the fault-free tier, or only reorder.
pub const CLASS_REORDER: usize = 0;
/// See [`CLASS_REORDER`].
pub const CLASS_PRUNE: usize = 1;

/// The transfer-learned prune/reorder classifier.
#[derive(Clone, Debug)]
pub struct PruneClassifier {
    model: GcnClassifier,
}

impl PruneClassifier {
    /// Trains on the Predicted Positive subset of `samples`.
    ///
    /// Returns `None` when no sample clears the threshold (degenerate
    /// training runs) — the policy then falls back to reordering only.
    pub fn train(
        tier: &TierPredictor,
        samples: &[&DiagSample],
        tp_threshold: f64,
        cfg: &ModelConfig,
    ) -> Option<Self> {
        // Collect Predicted Positive samples and their prune-safety label.
        let mut real: Vec<(&SubGraph, usize)> = Vec::new();
        for s in samples {
            if !s.tier_trainable() {
                continue;
            }
            let sg = s.subgraph.as_ref().expect("tier_trainable");
            let (pred, p) = tier.predict(sg);
            if p <= tp_threshold {
                continue;
            }
            let label = if Some(pred) == s.faulty_tier {
                CLASS_PRUNE
            } else {
                CLASS_REORDER
            };
            real.push((sg, label));
        }
        if real.is_empty() {
            return None;
        }

        // Oversample the minority class with dummy-buffer synthesis.
        let prune_n = real.iter().filter(|&&(_, l)| l == CLASS_PRUNE).count();
        let reorder_n = real.len() - prune_n;
        let (minority, majority_n) = if prune_n < reorder_n {
            (CLASS_PRUNE, reorder_n)
        } else {
            (CLASS_REORDER, prune_n)
        };
        let minority_samples: Vec<&SubGraph> = real
            .iter()
            .filter(|&&(_, l)| l == minority)
            .map(|&(sg, _)| sg)
            .collect();
        let mut synthetic: Vec<SubGraph> = Vec::new();
        if !minority_samples.is_empty() {
            let mut deficit = majority_n - minority_samples.len();
            // Append consecutive buffers node by node, sample by sample,
            // exactly as Section V-C describes, until balanced.
            let mut round = 0usize;
            while deficit > 0 && round < 64 {
                for &sg in &minority_samples {
                    if deficit == 0 {
                        break;
                    }
                    let node = round % sg.node_count().max(1);
                    synthetic.push(sg.with_dummy_buffer(node));
                    deficit -= 1;
                }
                round += 1;
            }
        }

        let mut data: Vec<(&GraphData, usize)> =
            real.iter().map(|&(sg, l)| (&sg.data, l)).collect();
        data.extend(synthetic.iter().map(|sg| (&sg.data, minority)));

        let mut model = GcnClassifier::transfer_from(tier.model(), 2, cfg.seed.wrapping_add(2000));
        model.fit(&data, &cfg.train);
        Some(PruneClassifier { model })
    }

    /// Whether pruning is predicted safe for this sub-graph.
    pub fn should_prune(&self, subgraph: &SubGraph) -> bool {
        self.model.predict(&subgraph.data) == CLASS_PRUNE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::TestEnv;
    use crate::sample::{generate_samples, InjectionKind};
    use m3d_dft::ObsMode;
    use m3d_gnn::TrainConfig;
    use m3d_netlist::generate::Benchmark;
    use m3d_part::DesignConfig;

    #[test]
    fn classifier_trains_on_predicted_positive_subset() {
        let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(300));
        let fsim = env.fault_sim();
        let samples = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 50, 4);
        let refs: Vec<&DiagSample> = samples.iter().collect();
        let cfg = ModelConfig {
            train: TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            },
            ..ModelConfig::default()
        };
        let tier = TierPredictor::train(&refs, &cfg);
        // Threshold 0 admits every sample, so training must succeed.
        let clf = PruneClassifier::train(&tier, &refs, 0.0, &cfg)
            .expect("non-empty predicted-positive set");
        // The classifier must produce a decision for any sub-graph.
        let sg = samples
            .iter()
            .find_map(|s| s.subgraph.as_ref())
            .expect("some subgraph");
        let _ = clf.should_prune(sg);
        // An impossible threshold yields no training set.
        assert!(PruneClassifier::train(&tier, &refs, 1.1, &cfg).is_none());
    }
}
