//! Soundness of the static verdicts against actual simulation.
//!
//! The analyses may be as *incomplete* as they like (missing a constant
//! or an untestable fault only costs performance), but they must never be
//! *unsound*: a net proven constant must never toggle under any input or
//! scan state, and a fault proven untestable must never be detected by
//! the fault simulator. These properties are what lets `m3d-diag verify`
//! report the proofs as facts, so they are tested against exhaustive
//! (small designs) and randomized simulation over random builder-driven
//! DAGs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use m3d_dataflow::{ConstProp, StaticProofs, UntestableClass};
use m3d_netlist::{GateKind, NetId, Netlist, NetlistBuilder};
use m3d_part::{M3dDesign, PartitionAlgo};
use m3d_tdf::{eval_single_frame, full_fault_list, site_net, testable_sites, FaultSim, PatternSet};

/// Builds a random layered DAG biased toward reconvergence (few inputs,
/// operands drawn from all earlier nets, inverters in the mix) so that
/// constant nets actually appear.
fn build(plan: &[(u8, u16, u16, u16)], n_inputs: usize) -> Netlist {
    let mut b = NetlistBuilder::new("random");
    let mut nets: Vec<NetId> = (0..n_inputs)
        .map(|i| b.add_input(&format!("i{i}")))
        .collect();
    for &(kind, a, c, d) in plan {
        let pick = |k: u16| nets[k as usize % nets.len()];
        let net = match kind % 9 {
            0 => b.add_gate(GateKind::Inv, &[pick(a)]),
            1 => b.add_gate(GateKind::And, &[pick(a), pick(c)]),
            2 => b.add_gate(GateKind::Or, &[pick(a), pick(c)]),
            3 => b.add_gate(GateKind::Xor, &[pick(a), pick(c)]),
            4 => b.add_gate(GateKind::Xnor, &[pick(a), pick(c)]),
            5 => b.add_gate(GateKind::Mux2, &[pick(a), pick(c), pick(d)]),
            6 => b.add_gate(GateKind::Oai21, &[pick(a), pick(c), pick(d)]),
            7 => b.add_gate(GateKind::Nand, &[pick(a), pick(c), pick(d)]),
            _ => b.add_dff(pick(a)),
        };
        nets.push(net);
    }
    // Sweep danglers into one OR tree fed to a flop: everything stays
    // connected and at least one flop exists.
    let dangling = b.dangling_nets();
    let mut acc = dangling[0];
    for &n in &dangling[1..] {
        acc = b.add_gate(GateKind::Or, &[acc, n]);
    }
    let q = b.add_dff(acc);
    b.add_output("q", q);
    b.finish().expect("random DAG construction is always valid")
}

/// Every (pi, state) assignment to check constants against: exhaustive
/// when the boundary is small, randomized otherwise.
fn boundary_vectors(nl: &Netlist, seed: u64) -> Vec<(Vec<bool>, Vec<bool>)> {
    let n_pi = nl.inputs().len();
    let n_ff = nl.flops().len();
    let bits = n_pi + n_ff;
    if bits <= 8 {
        (0..1usize << bits)
            .map(|v| {
                let pi = (0..n_pi).map(|i| (v >> i) & 1 == 1).collect();
                let st = (0..n_ff).map(|i| (v >> (n_pi + i)) & 1 == 1).collect();
                (pi, st)
            })
            .collect()
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..48)
            .map(|_| {
                let pi = (0..n_pi).map(|_| rng.gen::<bool>()).collect();
                let st = (0..n_ff).map(|_| rng.gen::<bool>()).collect();
                (pi, st)
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No net proven constant ever evaluates to the other value, and
    /// every proven alias tracks its root net, for every boundary
    /// assignment (exhaustive on small designs).
    #[test]
    fn proven_constants_never_toggle(
        plan in prop::collection::vec((0u8..9, any::<u16>(), any::<u16>(), any::<u16>()), 3..100),
        n_inputs in 1usize..4,
        seed in any::<u64>(),
    ) {
        let nl = build(&plan, n_inputs);
        let cp = ConstProp::compute(&nl);
        for (pi, state) in boundary_vectors(&nl, seed) {
            let values = eval_single_frame(&nl, &pi, &state);
            for (net, expect) in cp.constant_nets() {
                prop_assert_eq!(
                    values[net.index()], expect,
                    "net {} proven constant {} but evaluated otherwise", net, expect
                );
            }
            for i in 0..nl.net_count() {
                let net = NetId::new(i);
                if let Some((root, inv)) = cp.alias(net) {
                    prop_assert_eq!(values[i], values[root.index()] ^ inv);
                }
            }
        }
    }

    /// No fault proven untestable is ever detected by the fault
    /// simulator, for random pattern sets over random designs.
    #[test]
    fn proven_untestable_faults_are_never_detected(
        plan in prop::collection::vec((0u8..9, any::<u16>(), any::<u16>(), any::<u16>()), 3..80),
        n_inputs in 1usize..4,
        pat_seed in any::<u64>(),
    ) {
        let nl = build(&plan, n_inputs);
        let design = {
            let part = PartitionAlgo::MinCut.partition(&nl, 1);
            M3dDesign::new(nl, part)
        };
        let cp = ConstProp::compute(design.netlist());
        let proofs = StaticProofs::compute(&design, &cp);
        let patterns = PatternSet::random(design.netlist(), 128, pat_seed);
        let sim = FaultSim::new(&design, &patterns);
        let mut det = sim.detector();
        let skip = proofs.prunable_faults();
        for (fault, &pruned) in full_fault_list(&design).iter().zip(&skip) {
            if pruned {
                prop_assert!(
                    sim.detections(&mut det, std::slice::from_ref(fault)).is_empty(),
                    "fault {:?} proven untestable ({:?}) but detected",
                    fault,
                    proofs.class(fault.site)
                );
            }
        }
    }
}

/// The generators themselves exercise the random DAGs; this anchors the
/// same soundness claims on a real archetype with the full ATPG pattern
/// set (Aes at this size has six reconvergent constant nets).
#[test]
fn archetype_untestable_faults_survive_full_atpg_patterns() {
    use m3d_part::DesignConfig;
    let d = DesignConfig::Syn1.build_sized(m3d_netlist::generate::Benchmark::Aes, Some(300));
    let cp = ConstProp::compute(d.netlist());
    let proofs = StaticProofs::compute(&d, &cp);
    // The proofs go beyond the structural filter ATPG already applies:
    // constant sites are structurally testable but frozen.
    let structural = testable_sites(&d);
    let beyond = d
        .sites()
        .iter()
        .filter(|&(s, _)| proofs.class(s).is_some() && structural[s.index()])
        .count();
    assert!(
        beyond > 0,
        "constant proofs reach beyond the structural set"
    );
    let ts = m3d_tdf::generate_patterns(&d, &m3d_tdf::AtpgConfig::new(1, 256));
    let sim = FaultSim::new(&d, &ts.patterns);
    let mut det = sim.detector();
    let skip = proofs.prunable_faults();
    let mut checked = 0;
    for (fault, &pruned) in full_fault_list(&d).iter().zip(&skip) {
        if pruned {
            assert!(
                sim.detections(&mut det, std::slice::from_ref(fault))
                    .is_empty(),
                "{fault:?} proven untestable but detected by ATPG patterns"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 400,
        "the proof set is non-trivial ({checked} faults)"
    );
}

/// `And(q, !q)` is constant-0 but fully connected and structurally
/// launch/capture-capable: only the constant proof marks it.
#[test]
fn constant_reconvergence_is_proven_beyond_the_structural_filter() {
    let mut b = NetlistBuilder::new("const-core");
    let a = b.add_input("a");
    let c = b.add_input("c");
    let q = b.add_dff(a);
    let r = b.add_dff(c);
    let nq = b.add_gate(GateKind::Inv, &[q]);
    let z = b.add_gate(GateKind::And, &[q, nq]);
    let x = b.add_gate(GateKind::Or, &[z, r]);
    let f = b.add_dff(x);
    b.add_output("f", f);
    let nl = b.finish().expect("valid");
    let part = PartitionAlgo::MinCut.partition(&nl, 1);
    let d = M3dDesign::new(nl, part);

    let cp = ConstProp::compute(d.netlist());
    let proofs = StaticProofs::compute(&d, &cp);
    assert_eq!(cp.constant(z), Some(false));

    // Every site whose net is z carries the constant proof.
    let mut constant_sites = 0;
    for (site, _) in d.sites().iter() {
        if site_net(&d, site) == z {
            assert_eq!(proofs.class(site), Some(UntestableClass::ConstantSite));
            constant_sites += 1;
        }
    }
    assert!(constant_sites > 0, "z has sites");

    // The structural filter alone keeps the AND output.
    let and_gate = d.netlist().net(z).driver();
    let and_out_site = d.sites().output_site(d.netlist(), and_gate).expect("site");
    assert!(
        testable_sites(&d)[and_out_site.index()],
        "structurally testable"
    );
}
