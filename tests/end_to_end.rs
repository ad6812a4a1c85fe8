//! Cross-crate integration tests: the full pipeline from netlist
//! generation through diagnosis enhancement, with the invariants every
//! release must hold.

use m3d_fault_diagnosis::dft::ObsMode;
use m3d_fault_diagnosis::diagnosis::{baseline_filter, Diagnoser, DiagnosisConfig};
use m3d_fault_diagnosis::fault_localization::{
    evaluate_methods, generate_samples, DiagSample, FaultLocalizer, FrameworkConfig, InjectionKind,
    PolicyAction, TestEnv,
};
use m3d_fault_diagnosis::gnn::{GcnClassifier, GraphData, Trainable};
use m3d_fault_diagnosis::netlist::generate::Benchmark;
use m3d_fault_diagnosis::part::DesignConfig;
use m3d_fault_diagnosis::resilient::weights_digest;

fn small_env() -> TestEnv {
    TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(400))
}

fn trained(env: &TestEnv, n: usize) -> (Vec<DiagSample>, FaultLocalizer) {
    let fsim = env.fault_sim();
    let train = generate_samples(env, &fsim, ObsMode::Bypass, InjectionKind::Single, n, 1);
    let refs: Vec<&DiagSample> = train.iter().collect();
    let fw = FaultLocalizer::train(&refs, &FrameworkConfig::default());
    (train, fw)
}

#[test]
fn pipeline_diagnoses_unseen_faults_accurately() {
    let env = small_env();
    let (train, fw) = trained(&env, 120);
    let fsim = env.fault_sim();
    let test = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 20, 777);
    let eval = evaluate_methods(&env, &fsim, &fw, ObsMode::Bypass, &test);
    assert!(eval.atpg.accuracy >= 0.9, "ATPG acc {}", eval.atpg.accuracy);
    assert!(
        eval.gnn.accuracy >= eval.atpg.accuracy - 0.25,
        "GNN accuracy loss bounded at this tiny training scale: {} vs {}",
        eval.gnn.accuracy,
        eval.atpg.accuracy
    );
    assert!(eval.combined.mean_resolution <= eval.atpg.mean_resolution);
    assert!(eval.baseline.mean_resolution <= eval.atpg.mean_resolution);

    // Golden oracle: the exact bits this seeded run produces, equal at
    // every pool width. A refactor that changes training arithmetic or
    // report quality fails here, not just the loose bounds above.
    let tier_data: Vec<(&GraphData, usize)> = train
        .iter()
        .filter(|s| s.tier_trainable())
        .map(|s| {
            let sg = s.subgraph.as_ref().expect("tier_trainable");
            (&sg.data, s.faulty_tier.expect("tier_trainable").index())
        })
        .collect();
    let mut transfer = GcnClassifier::transfer_from(fw.tier.model(), 2, 11);
    transfer.fit(&tier_data, &FrameworkConfig::default().model.train);
    let digests = [
        weights_digest(&fw.tier.model().flat_params()),
        weights_digest(&fw.miv.model().flat_params()),
        weights_digest(&transfer.flat_params()),
    ];
    assert_eq!(
        digests,
        [0x0d81_5c0c, 0xe883_02d8, 0x87c7_d556],
        "tier, MIV and frozen-backbone weights: {digests:08x?}"
    );
    assert_eq!(fw.tp_threshold, 0.7682278156280518);
    let gnn = &eval.gnn;
    assert_eq!(
        (
            gnn.accuracy,
            gnn.mean_resolution,
            gnn.mean_fhi,
            gnn.tier_localization
        ),
        (0.85, 6.5, 4.764705882352941, 0.9),
        "GNN quality"
    );
    assert_eq!(
        (eval.combined.mean_resolution, eval.combined.mean_fhi),
        (2.65, 2.0588235294117645),
        "GNN + baseline quality"
    );
}

#[test]
fn backup_dictionary_recovers_everything_pruned() {
    // The paper's compensation method: ATPG accuracy is recoverable
    // because pruned candidates land in the backup dictionary.
    let env = small_env();
    let (_train, fw) = trained(&env, 60);
    let fsim = env.fault_sim();
    let test = generate_samples(
        &env,
        &fsim,
        ObsMode::Bypass,
        InjectionKind::Single,
        25,
        4242,
    );
    let diagnoser = Diagnoser::new(
        &fsim,
        &env.scan,
        ObsMode::Bypass,
        DiagnosisConfig::default(),
    );
    let mut pruned_seen = false;
    for chip in &test {
        let report = diagnoser.diagnose(&chip.log);
        let outcome = fw.enhance(&env.design, &report, chip);
        // Invariant: pruning never loses a candidate — final + backup is a
        // permutation of the original report.
        let mut all: Vec<_> = outcome
            .report
            .candidates()
            .iter()
            .map(|c| c.fault)
            .chain(outcome.backup.iter().map(|c| c.fault))
            .collect();
        all.sort();
        let mut orig: Vec<_> = report.candidates().iter().map(|c| c.fault).collect();
        orig.sort();
        assert_eq!(all, orig, "no candidate may vanish");
        if outcome.action == PolicyAction::Prune && !outcome.backup.is_empty() {
            pruned_seen = true;
        }
    }
    assert!(pruned_seen, "some chip must exercise the pruning path");
}

#[test]
fn compaction_degrades_but_does_not_break_diagnosis() {
    let env = small_env();
    let fsim = env.fault_sim();
    let mut res = [0.0f64; 2];
    for (i, mode) in ObsMode::ALL.into_iter().enumerate() {
        let samples = generate_samples(&env, &fsim, mode, InjectionKind::Single, 15, 5);
        let diagnoser = Diagnoser::new(&fsim, &env.scan, mode, DiagnosisConfig::default());
        let mut total = 0usize;
        let mut acc = 0usize;
        for s in &samples {
            let r = diagnoser.diagnose(&s.log);
            total += r.resolution();
            acc += usize::from(r.is_accurate(&s.injected));
        }
        res[i] = total as f64 / samples.len() as f64;
        assert!(
            acc * 10 >= samples.len() * 8,
            "{mode:?} accuracy {acc}/{}",
            samples.len()
        );
    }
    assert!(
        res[1] >= res[0],
        "compaction must not improve resolution: {res:?}"
    );
}

#[test]
fn multifault_chips_still_get_tier_predictions() {
    let env = small_env();
    let (_train, fw) = trained(&env, 60);
    let fsim = env.fault_sim();
    let chips = generate_samples(
        &env,
        &fsim,
        ObsMode::Bypass,
        InjectionKind::MultiSameTier,
        15,
        31,
    );
    let with_subgraph = chips.iter().filter(|c| c.subgraph.is_some()).count();
    assert!(
        with_subgraph * 10 >= chips.len() * 8,
        "back-tracing fallback must produce sub-graphs for multi-fault \
         chips ({with_subgraph}/{})",
        chips.len()
    );
    let mut correct = 0usize;
    let mut graded = 0usize;
    for chip in &chips {
        let (Some(sg), Some(truth)) = (&chip.subgraph, chip.faulty_tier) else {
            continue;
        };
        graded += 1;
        let (tier, _) = fw.tier.predict(sg);
        correct += usize::from(tier == truth);
    }
    assert!(graded > 0);
    assert!(
        correct * 2 >= graded,
        "multi-fault tier localization beats chance: {correct}/{graded}"
    );
}

#[test]
fn transferred_framework_generalizes_across_configs() {
    let env = small_env();
    let (_train, fw) = trained(&env, 80);
    for config in [DesignConfig::Tpi, DesignConfig::Par] {
        let other = TestEnv::build(Benchmark::Aes, config, Some(400));
        let fsim = other.fault_sim();
        let test = generate_samples(&other, &fsim, ObsMode::Bypass, InjectionKind::Single, 20, 9);
        let refs: Vec<&DiagSample> = test.iter().collect();
        let acc = fw.tier.accuracy(&refs);
        assert!(
            acc >= 0.6,
            "{}: transferred tier accuracy {acc}",
            config.name()
        );
    }
}

#[test]
fn baseline_filter_composes_with_policy() {
    let env = small_env();
    let (_train, fw) = trained(&env, 50);
    let fsim = env.fault_sim();
    let test = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 10, 12);
    let diagnoser = Diagnoser::new(
        &fsim,
        &env.scan,
        ObsMode::Bypass,
        DiagnosisConfig::default(),
    );
    for chip in &test {
        let report = diagnoser.diagnose(&chip.log);
        let outcome = fw.enhance(&env.design, &report, chip);
        let combined = baseline_filter(&outcome.report);
        assert!(combined.resolution() <= outcome.report.resolution());
        assert!(combined.resolution() <= report.resolution());
    }
}
