//! Evaluation harness: diagnoses sample sets with every method and
//! aggregates the paper's table metrics.

use m3d_dft::ObsMode;
use m3d_diagnosis::{
    baseline_filter, Diagnoser, DiagnosisConfig, DiagnosisReport, QualityAccumulator, ReportQuality,
};
use m3d_tdf::FaultSim;

use crate::env::TestEnv;
use crate::framework::FaultLocalizer;
use crate::sample::DiagSample;

/// Per-method aggregate quality for one (benchmark, config, mode) cell of
/// Tables V–VIII.
#[derive(Clone, Debug, Default)]
pub struct MethodEval {
    /// Raw ATPG diagnosis reports (Tables V / VII).
    pub atpg: ReportQuality,
    /// The 2D baseline \[11\] applied to the ATPG reports.
    pub baseline: ReportQuality,
    /// The proposed framework standalone (GNN pruning/reordering).
    pub gnn: ReportQuality,
    /// The framework followed by the baseline (GNN + \[11\]).
    pub combined: ReportQuality,
}

/// Diagnoses every sample with the four methods.
///
/// Tier-localization rates follow the paper's rule: reports already
/// localized by ATPG (all candidates in one tier) are excluded; the
/// baseline's rate checks the filtered report's candidate tiers against
/// the ground truth, the GNN's rate checks the Tier-predictor output.
pub fn evaluate_methods(
    env: &TestEnv,
    fsim: &FaultSim<'_>,
    framework: &FaultLocalizer,
    mode: ObsMode,
    samples: &[DiagSample],
) -> MethodEval {
    let diagnoser = Diagnoser::new(fsim, &env.scan, mode, DiagnosisConfig::default());

    // Per-sample work is independent; fan out across threads.
    let results = m3d_par::par_map(samples, |sample| {
        let atpg = diagnoser.diagnose(&sample.log);
        let base = baseline_filter(&atpg);
        let outcome = framework.enhance(&env.design, &atpg, sample);
        let combined = baseline_filter(&outcome.report);
        (atpg, base, outcome, combined)
    });

    let mut acc_atpg = QualityAccumulator::new();
    let mut acc_base = QualityAccumulator::new();
    let mut acc_gnn = QualityAccumulator::new();
    let mut acc_comb = QualityAccumulator::new();
    for (sample, (atpg, base, outcome, combined)) in samples.iter().zip(&results) {
        let gt = &sample.injected;
        acc_atpg.add(atpg, gt);
        acc_base.add(base, gt);
        acc_gnn.add(&outcome.report, gt);
        acc_comb.add(combined, gt);

        // Tier localization: skip reports ATPG already localized and
        // samples without a tier ground truth.
        if let Some(truth) = sample.faulty_tier {
            if !atpg.is_tier_localized() {
                acc_base.add_tier_outcome(base.candidate_tiers() == vec![truth]);
                if let Some((pred, _)) = outcome.predicted_tier {
                    acc_gnn.add_tier_outcome(pred == truth);
                    acc_comb.add_tier_outcome(pred == truth);
                }
            }
        }
    }
    MethodEval {
        atpg: acc_atpg.finish(),
        baseline: acc_base.finish(),
        gnn: acc_gnn.finish(),
        combined: acc_comb.finish(),
    }
}

/// Diagnoses samples with ATPG only (for Tables V / VII and the runtime
/// analysis).
pub fn diagnose_all(
    env: &TestEnv,
    fsim: &FaultSim<'_>,
    mode: ObsMode,
    samples: &[DiagSample],
) -> Vec<DiagnosisReport> {
    let diagnoser = Diagnoser::new(fsim, &env.scan, mode, DiagnosisConfig::default());
    m3d_par::par_map(samples, |s| diagnoser.diagnose(&s.log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use crate::sample::{generate_samples, InjectionKind};
    use m3d_gnn::TrainConfig;
    use m3d_netlist::generate::Benchmark;
    use m3d_part::DesignConfig;

    #[test]
    fn evaluation_produces_consistent_metrics() {
        let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(300));
        let fsim = env.fault_sim();
        let train = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 40, 1);
        let test = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 15, 99);
        let refs: Vec<&DiagSample> = train.iter().collect();
        let cfg = FrameworkConfig {
            model: crate::models::ModelConfig {
                train: TrainConfig {
                    epochs: 15,
                    ..TrainConfig::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let fw = FaultLocalizer::train(&refs, &cfg);
        let eval = evaluate_methods(&env, &fsim, &fw, ObsMode::Bypass, &test);
        assert_eq!(eval.atpg.samples, test.len());
        // ATPG single-fault diagnosis should be near-perfectly accurate.
        assert!(eval.atpg.accuracy > 0.85, "ATPG acc {}", eval.atpg.accuracy);
        // Filters can only shrink reports.
        assert!(eval.baseline.mean_resolution <= eval.atpg.mean_resolution);
        assert!(eval.combined.mean_resolution <= eval.gnn.mean_resolution + 1e-9);
        // Accuracy can drop only boundedly.
        assert!(eval.gnn.accuracy >= eval.atpg.accuracy - 0.25);
    }
}
