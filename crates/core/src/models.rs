//! The two GNN models of the framework: Tier-predictor and MIV-pinpointer.

use m3d_gnn::{GcnClassifier, GraphData, NodeClassifier, PrCurve, ScoredSample, TrainConfig};
use m3d_hetgraph::{SubGraph, FEATURE_DIM};
use m3d_part::Tier;

use crate::sample::DiagSample;

/// GNN architecture knobs shared by the framework models.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelConfig {
    /// Hidden width of the GCN layers.
    pub hidden: usize,
    /// Number of GCN layers.
    pub layers: usize,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            hidden: 16,
            layers: 2,
            train: TrainConfig::default(),
            seed: 7,
        }
    }
}

/// The Tier-predictor: graph classification producing `[p_top, p_bottom]`.
///
/// # Examples
///
/// See [`FaultLocalizer`](crate::FaultLocalizer) for end-to-end usage.
#[derive(Clone, Debug)]
pub struct TierPredictor {
    model: GcnClassifier,
}

impl TierPredictor {
    /// Trains on the tier-labelled samples of `samples` (others skipped).
    pub fn train(samples: &[&DiagSample], cfg: &ModelConfig) -> Self {
        let data: Vec<(&GraphData, usize)> = samples
            .iter()
            .filter(|s| s.tier_trainable())
            .map(|s| {
                (
                    &s.subgraph.as_ref().expect("tier_trainable").data,
                    s.faulty_tier.expect("tier_trainable").index(),
                )
            })
            .collect();
        // The input width follows the data: 13 Table II columns, or 16
        // when the sub-graphs carry the SCOAP extension.
        let dim = data.first().map_or(FEATURE_DIM, |(d, _)| d.features.cols());
        let mut model = GcnClassifier::new(dim, cfg.hidden, cfg.layers, 2, cfg.seed);
        model.fit(&data, &cfg.train);
        TierPredictor { model }
    }

    /// Mutable access to the underlying graph classifier, for
    /// checkpointing and the fault-injection harness.
    pub fn model_mut(&mut self) -> &mut GcnClassifier {
        &mut self.model
    }

    /// Wraps an existing classifier (e.g. one whose tensors were restored
    /// from a CRC-verified checkpoint by the `m3d-serve` artifact cache).
    pub fn from_model(model: GcnClassifier) -> Self {
        TierPredictor { model }
    }

    /// `[p_top, p_bottom]` for a sub-graph.
    pub fn predict_proba(&self, subgraph: &SubGraph) -> [f64; 2] {
        let p = self.model.predict_proba(&subgraph.data);
        [f64::from(p[0]), f64::from(p[1])]
    }

    /// The predicted faulty tier and its probability (the confidence score
    /// compared against `T_p`).
    pub fn predict(&self, subgraph: &SubGraph) -> (Tier, f64) {
        let p = self.predict_proba(subgraph);
        if p[0] >= p[1] {
            (Tier::Top, p[0])
        } else {
            (Tier::Bottom, p[1])
        }
    }

    /// Accuracy over tier-labelled samples.
    pub fn accuracy(&self, samples: &[&DiagSample]) -> f64 {
        let mut total = 0usize;
        let mut hits = 0usize;
        for s in samples {
            if !s.tier_trainable() {
                continue;
            }
            total += 1;
            let (tier, _) = self.predict(s.subgraph.as_ref().expect("trainable"));
            if Some(tier) == s.faulty_tier {
                hits += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// The PR curve of confidence scores over labelled samples (used to
    /// derive `T_p` during training).
    pub fn pr_curve(&self, samples: &[&DiagSample]) -> PrCurve {
        let scored: Vec<ScoredSample> = samples
            .iter()
            .filter(|s| s.tier_trainable())
            .map(|s| {
                let (tier, p) = self.predict(s.subgraph.as_ref().expect("trainable"));
                ScoredSample {
                    score: p,
                    correct: Some(tier) == s.faulty_tier,
                }
            })
            .collect();
        PrCurve::from_samples(&scored)
    }

    /// The underlying classifier (transfer-learning source for the
    /// GNN-based Classifier).
    pub fn model(&self) -> &GcnClassifier {
        &self.model
    }

    /// Pooled pre-head embedding of a sub-graph (for Fig. 5's PCA).
    pub fn embedding(&self, subgraph: &SubGraph) -> Vec<f32> {
        self.model.pooled_embedding(&subgraph.data)
    }
}

/// The MIV-pinpointer: node classification over the MIV nodes of a
/// sub-graph.
#[derive(Clone, Debug)]
pub struct MivPinpointer {
    model: NodeClassifier,
    /// Decision threshold on the per-node fault probability.
    pub threshold: f32,
}

impl MivPinpointer {
    /// Trains on every sample with a sub-graph containing MIV nodes; node
    /// labels mark the injected MIVs. Positive nodes are up-weighted to
    /// counter the extreme class imbalance.
    pub fn train(samples: &[&DiagSample], cfg: &ModelConfig) -> Self {
        let mut labelled: Vec<(&GraphData, Vec<(usize, bool)>)> = Vec::new();
        let mut pos = 0usize;
        let mut neg = 0usize;
        for s in samples {
            let Some(sg) = &s.subgraph else { continue };
            if sg.miv_nodes.is_empty() {
                continue;
            }
            let labels: Vec<(usize, bool)> = sg
                .miv_nodes
                .iter()
                .map(|&(node, m)| {
                    let is_faulty = s.miv_truth.contains(&m);
                    if is_faulty {
                        pos += 1;
                    } else {
                        neg += 1;
                    }
                    (node, is_faulty)
                })
                .collect();
            labelled.push((&sg.data, labels));
        }
        let pos_weight = if pos == 0 {
            1.0
        } else {
            (neg as f32 / pos as f32).clamp(1.0, 50.0)
        };
        let refs: Vec<(&GraphData, &[(usize, bool)])> =
            labelled.iter().map(|(d, l)| (*d, l.as_slice())).collect();
        let dim = refs.first().map_or(FEATURE_DIM, |(d, _)| d.features.cols());
        let mut model =
            NodeClassifier::new(dim, cfg.hidden, cfg.layers, cfg.seed.wrapping_add(1000));
        model.fit(&refs, pos_weight, &cfg.train);
        MivPinpointer {
            model,
            threshold: 0.5,
        }
    }

    /// Wraps an existing node classifier and decision threshold (the
    /// checkpoint-restore counterpart of [`MivPinpointer::train`]).
    pub fn from_model(model: NodeClassifier, threshold: f32) -> Self {
        MivPinpointer { model, threshold }
    }

    /// The underlying node classifier (for checkpointing).
    pub fn model(&self) -> &NodeClassifier {
        &self.model
    }

    /// Mutable access to the underlying node classifier, for checkpoint
    /// restore and the fault-injection harness.
    pub fn model_mut(&mut self) -> &mut NodeClassifier {
        &mut self.model
    }

    /// MIV indices predicted faulty in a sub-graph, or `None` when a node
    /// probability or the threshold is non-finite (a numerically damaged
    /// model): NaN fails every `p > threshold` test, so without the check
    /// it would read as "no faulty MIV".
    pub fn predict_faulty_mivs(&self, subgraph: &SubGraph) -> Option<Vec<u32>> {
        if subgraph.miv_nodes.is_empty() {
            return Some(Vec::new());
        }
        let nodes: Vec<usize> = subgraph.miv_nodes.iter().map(|&(n, _)| n).collect();
        let probs = self.model.predict_nodes(&subgraph.data, &nodes);
        if !self.threshold.is_finite() || probs.iter().any(|p| !p.is_finite()) {
            return None;
        }
        Some(
            subgraph
                .miv_nodes
                .iter()
                .zip(probs)
                .filter(|&(_, p)| p > self.threshold)
                .map(|(&(_, m), _)| m)
                .collect(),
        )
    }

    /// Sample-level accuracy: an MIV-fault sample counts when an injected
    /// MIV is predicted; a fault-free-MIV sample counts when no MIV is.
    pub fn accuracy(&self, samples: &[&DiagSample]) -> f64 {
        let mut total = 0usize;
        let mut hits = 0usize;
        for s in samples {
            let Some(sg) = &s.subgraph else { continue };
            if sg.miv_nodes.is_empty() {
                continue;
            }
            total += 1;
            let Some(predicted) = self.predict_faulty_mivs(sg) else {
                continue;
            };
            let ok = if s.miv_truth.is_empty() {
                predicted.is_empty()
            } else {
                s.miv_truth.iter().any(|m| predicted.contains(m))
            };
            if ok {
                hits += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::TestEnv;
    use crate::sample::{generate_samples, InjectionKind};
    use m3d_dft::ObsMode;
    use m3d_netlist::generate::Benchmark;
    use m3d_part::DesignConfig;

    fn quick_cfg() -> ModelConfig {
        ModelConfig {
            hidden: 12,
            layers: 2,
            train: TrainConfig {
                epochs: 25,
                ..TrainConfig::default()
            },
            seed: 3,
        }
    }

    #[test]
    fn tier_predictor_beats_chance() {
        let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(300));
        let fsim = env.fault_sim();
        let samples = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 60, 1);
        let refs: Vec<&DiagSample> = samples.iter().collect();
        let (train, test) = refs.split_at(45);
        let tp = TierPredictor::train(train, &quick_cfg());
        let acc = tp.accuracy(test);
        assert!(acc > 0.65, "tier accuracy {acc}");
        // PR curve yields a usable threshold.
        let curve = tp.pr_curve(train);
        let t = curve.threshold_for_precision(0.99);
        assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn miv_pinpointer_flags_injected_mivs() {
        let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(300));
        let fsim = env.fault_sim();
        let mut samples =
            generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::MivOnly, 30, 2);
        samples.extend(generate_samples(
            &env,
            &fsim,
            ObsMode::Bypass,
            InjectionKind::Single,
            30,
            3,
        ));
        let refs: Vec<&DiagSample> = samples.iter().collect();
        let mp = MivPinpointer::train(&refs, &quick_cfg());
        let acc = mp.accuracy(&refs);
        assert!(acc > 0.6, "MIV accuracy {acc}");
    }
}
