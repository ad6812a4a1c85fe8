//! Table XI: diagnosis with the individual models of the framework
//! (Section VII-B) — ATPG only, Tier-predictor standalone, MIV-pinpointer
//! standalone, and both — on AES/Syn-1 with the test set augmented by 10%
//! MIV-fault-injected chips.
//!
//! Run: `cargo run --release -p m3d-bench --bin table11_ablation`

use m3d_bench::{mean_std_cell, pct, print_table, test_samples, train_transferred, Scale};
use m3d_dft::ObsMode;
use m3d_diagnosis::{
    miv_equivalent, Candidate, Diagnoser, DiagnosisConfig, DiagnosisReport, QualityAccumulator,
};
use m3d_fault_localization::{generate_samples, prune_and_reorder, InjectionKind};
use m3d_netlist::generate::Benchmark;
use m3d_part::{DesignConfig, M3dDesign};

/// MIV-pinpointer standalone: only move predicted-faulty-MIV-equivalent
/// candidates to the top; no pruning or tier reordering.
fn miv_only(
    design: &M3dDesign,
    report: &DiagnosisReport,
    predicted_mivs: &[u32],
) -> DiagnosisReport {
    let promoted: Vec<Candidate> = report
        .candidates()
        .iter()
        .filter(|c| {
            miv_equivalent(design, c.fault.site).is_some_and(|m| predicted_mivs.contains(&m))
        })
        .copied()
        .collect();
    let rest: Vec<Candidate> = report
        .candidates()
        .iter()
        .filter(|c| {
            !miv_equivalent(design, c.fault.site).is_some_and(|m| predicted_mivs.contains(&m))
        })
        .copied()
        .collect();
    let mut all = promoted;
    all.extend(rest);
    report.with_candidates(all)
}

fn main() {
    let scale = Scale::from_env();
    let mode = ObsMode::Bypass;
    let bench = Benchmark::Aes;

    let (_corpus, fw) = train_transferred(bench, mode, &scale);
    let (env, mut samples) = test_samples(bench, DesignConfig::Syn1, mode, &scale);
    // Augment the test set by 10% with MIV-fault-injected chips.
    let extra = {
        let fsim = env.fault_sim();
        generate_samples(
            &env,
            &fsim,
            mode,
            InjectionKind::MivOnly,
            (scale.test_n / 10).max(1),
            31415,
        )
    };
    samples.extend(extra);

    let fsim = env.fault_sim();
    let diagnoser = Diagnoser::new(&fsim, &env.scan, mode, DiagnosisConfig::default());

    let mut accs: [QualityAccumulator; 4] = Default::default();
    for s in &samples {
        let report = diagnoser.diagnose(&s.log);
        let gt = &s.injected;
        // (0) ATPG only.
        accs[0].add(&report, gt);
        match &s.subgraph {
            None => {
                for acc in accs.iter_mut().skip(1) {
                    acc.add(&report, gt);
                }
            }
            Some(sg) => {
                let tier_pred = fw.tier.predict(sg);
                let mivs = fw.miv.predict_faulty_mivs(sg).unwrap_or_default();
                let approves = fw.classifier.as_ref().is_some_and(|c| c.should_prune(sg));
                // (1) Tier-predictor standalone (no MIV protection).
                let t_only = prune_and_reorder(
                    &env.design,
                    &report,
                    tier_pred,
                    &[],
                    fw.tp_threshold,
                    approves,
                );
                accs[1].add(&t_only.report, gt);
                // (2) MIV-pinpointer standalone.
                accs[2].add(&miv_only(&env.design, &report, &mivs), gt);
                // (3) Both models.
                let both = prune_and_reorder(
                    &env.design,
                    &report,
                    tier_pred,
                    &mivs,
                    fw.tp_threshold,
                    approves,
                );
                accs[3].add(&both.report, gt);
            }
        }
    }

    let names = [
        "ATPG only",
        "Tier-predictor",
        "MIV-pinpointer",
        "Tier + MIV",
    ];
    let rows: Vec<Vec<String>> = names
        .iter()
        .zip(&accs)
        .map(|(name, acc)| {
            let q = acc.finish();
            vec![
                name.to_string(),
                pct(q.accuracy),
                mean_std_cell(q.mean_resolution, q.std_resolution),
                mean_std_cell(q.mean_fhi, q.std_fhi),
            ]
        })
        .collect();
    print_table(
        "Table XI: standalone-model ablation (AES Syn-1, +10% MIV-fault chips)",
        &["Method", "Accuracy", "Resolution μ(σ)", "FHI μ(σ)"],
        &rows,
    );
}
