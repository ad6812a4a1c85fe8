//! The end-to-end fault-localization framework (Fig. 1).

use m3d_diagnosis::DiagnosisReport;
use m3d_part::M3dDesign;

use crate::classifier::PruneClassifier;
use crate::models::{MivPinpointer, ModelConfig, TierPredictor};
use crate::policy::{prune_and_reorder, PolicyOutcome};
use crate::sample::DiagSample;

/// Framework-level configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameworkConfig {
    /// GNN architecture and training knobs.
    pub model: ModelConfig,
    /// Precision target selecting `T_p` on the training PR curve (the
    /// paper uses 99%).
    pub precision_target: f64,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            model: ModelConfig::default(),
            precision_target: 0.99,
        }
    }
}

/// The trained framework: Tier-predictor, MIV-pinpointer, the `T_p`
/// confidence threshold, and the transfer-learned Classifier.
///
/// # Examples
///
/// ```no_run
/// use m3d_dft::ObsMode;
/// use m3d_fault_localization::{
///     generate_samples, FaultLocalizer, FrameworkConfig, InjectionKind, TestEnv,
/// };
/// use m3d_netlist::generate::Benchmark;
/// use m3d_part::DesignConfig;
///
/// let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(300));
/// let fsim = env.fault_sim();
/// let train = generate_samples(
///     &env, &fsim, ObsMode::Bypass, InjectionKind::Single, 100, 1,
/// );
/// let refs: Vec<&_> = train.iter().collect();
/// let framework = FaultLocalizer::train(&refs, &FrameworkConfig::default());
/// println!("Tp = {}", framework.tp_threshold);
/// ```
#[derive(Clone, Debug)]
pub struct FaultLocalizer {
    /// The tier-level graph classifier.
    pub tier: TierPredictor,
    /// The MIV node classifier.
    pub miv: MivPinpointer,
    /// The prune/reorder Classifier (absent when no Predicted Positive
    /// training samples existed).
    pub classifier: Option<PruneClassifier>,
    /// The `T_p` confidence threshold derived from the training PR curve.
    pub tp_threshold: f64,
}

impl FaultLocalizer {
    /// Trains the full framework on labelled samples.
    pub fn train(samples: &[&DiagSample], cfg: &FrameworkConfig) -> Self {
        let tier = TierPredictor::train(samples, &cfg.model);
        let tp_threshold = tier
            .pr_curve(samples)
            .threshold_for_precision(cfg.precision_target);
        let miv = MivPinpointer::train(samples, &cfg.model);
        let classifier = PruneClassifier::train(&tier, samples, tp_threshold, &cfg.model);
        FaultLocalizer {
            tier,
            miv,
            classifier,
            tp_threshold,
        }
    }

    /// Runs the localization models and the pruning/reordering policy on
    /// one diagnosed sample, producing the final report.
    ///
    /// Samples without a sub-graph (empty back-trace) pass through
    /// unchanged. If the Tier-predictor emits a non-finite confidence or
    /// the MIV-pinpointer a non-finite probability (a numerically damaged
    /// model), the GNN outputs are discarded and the report falls back to
    /// the structural baseline ranker \[11\], tagged
    /// [`DiagnosisReport::degraded`] — graceful degradation instead of
    /// pruning on garbage or panicking.
    pub fn enhance(
        &self,
        design: &M3dDesign,
        report: &DiagnosisReport,
        sample: &DiagSample,
    ) -> PolicyOutcome {
        let Some(sg) = &sample.subgraph else {
            return PolicyOutcome::pass_through(report.clone());
        };
        let predicted_tier = self.tier.predict(sg);
        if !predicted_tier.1.is_finite() || !self.tp_threshold.is_finite() {
            return PolicyOutcome::degraded(report);
        }
        let Some(predicted_mivs) = self.miv.predict_faulty_mivs(sg) else {
            return PolicyOutcome::degraded(report);
        };
        let approves = self.classifier.as_ref().is_some_and(|c| c.should_prune(sg));
        prune_and_reorder(
            design,
            report,
            predicted_tier,
            &predicted_mivs,
            self.tp_threshold,
            approves,
        )
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
    fn framework_trains_and_enhances() {
        let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(300));
        let fsim = env.fault_sim();
        let samples = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 60, 1);
        let refs: Vec<&DiagSample> = samples.iter().collect();
        let cfg = FrameworkConfig {
            model: ModelConfig {
                train: TrainConfig {
                    epochs: 20,
                    ..TrainConfig::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let fw = FaultLocalizer::train(&refs, &cfg);
        assert!((0.0..=1.0).contains(&fw.tp_threshold));

        // Enhance a trivial report: must not panic and must keep shape.
        let report = DiagnosisReport::default();
        let out = fw.enhance(&env.design, &report, &samples[0]);
        assert_eq!(out.report.resolution(), 0);
    }

    #[test]
    fn damaged_models_degrade_to_the_structural_baseline() {
        use crate::policy::PolicyAction;

        let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(300));
        let fsim = env.fault_sim();
        let samples = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 30, 2);
        let refs: Vec<&DiagSample> = samples.iter().collect();
        let cfg = FrameworkConfig {
            model: ModelConfig {
                train: TrainConfig {
                    epochs: 5,
                    ..TrainConfig::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let mut fw = FaultLocalizer::train(&refs, &cfg);

        // Diagnose one sample so the report is non-trivial.
        let diag = m3d_diagnosis::Diagnoser::new(
            &fsim,
            &env.scan,
            ObsMode::Bypass,
            m3d_diagnosis::DiagnosisConfig::default(),
        );
        let report = diag.diagnose(&samples[0].log);

        // Healthy framework: not degraded.
        let healthy = fw.enhance(&env.design, &report, &samples[0]);
        assert_ne!(healthy.action, PolicyAction::Degraded);
        assert!(!healthy.report.degraded());

        // Fault 1: NaN weights in the tier predictor → non-finite
        // confidence → structural-baseline fallback, tagged degraded.
        for p in fw.tier.model_mut().params_mut() {
            p.value.data_mut()[0] = f32::NAN;
        }
        let out = fw.enhance(&env.design, &report, &samples[0]);
        assert_eq!(out.action, PolicyAction::Degraded);
        assert!(out.report.degraded());
        assert!(out.backup.is_empty(), "degraded path prunes nothing");

        // Fault 2: a NaN confidence threshold degrades the same way.
        let mut fw2 = FaultLocalizer::train(&refs, &cfg);
        fw2.tp_threshold = f64::NAN;
        let out2 = fw2.enhance(&env.design, &report, &samples[0]);
        assert_eq!(out2.action, PolicyAction::Degraded);
        assert!(out2.report.degraded());

        // Fault 3: NaN weights in the MIV-pinpointer → NaN node
        // probabilities on a sub-graph with MIV nodes. NaN fails every
        // `p > threshold` test, so this must degrade rather than read as
        // "no faulty MIV".
        let miv_sample = samples
            .iter()
            .find(|s| {
                s.subgraph
                    .as_ref()
                    .is_some_and(|sg| !sg.miv_nodes.is_empty())
            })
            .expect("a sample whose sub-graph has MIV nodes");
        let miv_report = diag.diagnose(&miv_sample.log);
        let mut fw3 = FaultLocalizer::train(&refs, &cfg);
        assert_ne!(
            fw3.enhance(&env.design, &miv_report, miv_sample).action,
            PolicyAction::Degraded
        );
        for p in fw3.miv.model_mut().params_mut() {
            p.value.data_mut()[0] = f32::NAN;
        }
        let out3 = fw3.enhance(&env.design, &miv_report, miv_sample);
        assert_eq!(out3.action, PolicyAction::Degraded);
        assert!(out3.report.degraded());
    }
}
