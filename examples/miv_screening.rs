//! MIV defect screening: early characterization of defective inter-tier
//! vias.
//!
//! MIVs punch through the inter-tier dielectric and are prone to voids
//! that manifest as delay defects (paper Section I). This example plays a
//! silicon bring-up engineer: chips with suspected MIV delay faults arrive
//! from the tester; the MIV-pinpointer flags the faulty via directly, and
//! the policy moves MIV-equivalent candidates to the top of every
//! diagnosis report so PFA looks at the right via first.
//!
//! Run with: `cargo run --release --example miv_screening`

use m3d_fault_diagnosis::dft::ObsMode;
use m3d_fault_diagnosis::diagnosis::{miv_equivalent, Diagnoser, DiagnosisConfig};
use m3d_fault_diagnosis::fault_localization::{
    generate_samples, DiagSample, FaultLocalizer, FrameworkConfig, InjectionKind, TestEnv,
};
use m3d_fault_diagnosis::netlist::generate::Benchmark;
use m3d_fault_diagnosis::part::DesignConfig;

fn main() {
    let env = TestEnv::build(Benchmark::Tate, DesignConfig::Syn1, Some(1000));
    println!(
        "design has {} MIVs across {} nets",
        env.design.miv_count(),
        env.design.netlist().net_count()
    );

    // Train with a mixture rich in MIV faults so the pinpointer sees
    // positives.
    let fsim = env.fault_sim();
    let mut train = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 100, 3);
    train.extend(generate_samples(
        &env,
        &fsim,
        ObsMode::Bypass,
        InjectionKind::MivOnly,
        60,
        4,
    ));
    let refs: Vec<&DiagSample> = train.iter().collect();
    let framework = FaultLocalizer::train(&refs, &FrameworkConfig::default());

    // Screen a batch of suspected-MIV failing chips.
    let chips = generate_samples(
        &env,
        &fsim,
        ObsMode::Bypass,
        InjectionKind::MivOnly,
        12,
        0xABCD,
    );
    let diagnoser = Diagnoser::new(
        &fsim,
        &env.scan,
        ObsMode::Bypass,
        DiagnosisConfig::default(),
    );

    let mut hits = 0usize;
    let mut top_ranked = 0usize;
    println!("\nchip  injected MIV  predicted MIVs  rank of MIV candidate");
    for (i, chip) in chips.iter().enumerate() {
        let Some(sg) = &chip.subgraph else { continue };
        let predicted = framework.miv.predict_faulty_mivs(sg).unwrap_or_default();
        let truth = chip.miv_truth.first().copied();
        if truth.is_some_and(|t| predicted.contains(&t)) {
            hits += 1;
        }

        let report = diagnoser.diagnose(&chip.log);
        let outcome = framework.enhance(&env.design, &report, chip);
        // Where does the first MIV-equivalent candidate rank now?
        let rank = outcome
            .report
            .candidates()
            .iter()
            .position(|c| {
                miv_equivalent(&env.design, c.fault.site).is_some_and(|m| Some(m) == truth)
            })
            .map(|p| p + 1);
        if rank == Some(1) {
            top_ranked += 1;
        }
        println!(
            "  {:<3} {:<12?} {:<15?} {:?}",
            i + 1,
            truth,
            predicted,
            rank
        );
    }
    println!(
        "\npinpointer hit rate: {hits}/{} chips; MIV candidate ranked #1 on \
         {top_ranked} reports (policy prioritizes predicted MIVs)",
        chips.len()
    );
}
