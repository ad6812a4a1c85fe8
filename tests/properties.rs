//! Property-based tests over randomly generated designs: structural
//! invariants that must hold for *every* netlist, partition, pattern set,
//! and fault, not just the benchmark circuits.

use proptest::prelude::*;

use m3d_fault_diagnosis::dft::{ObsMode, ScanChains, ScanConfig};
use m3d_fault_diagnosis::gnn::{GcnGraph, Matrix};
use m3d_fault_diagnosis::hetgraph::{back_trace, HetGraph};
use m3d_fault_diagnosis::netlist::generate::{Benchmark, GenParams};
use m3d_fault_diagnosis::netlist::{FlopId, GateKind, Netlist, NetlistBuilder};
use m3d_fault_diagnosis::part::{M3dDesign, PartitionAlgo};
use m3d_fault_diagnosis::tdf::{
    eval_single_frame, FailureLog, Fault, FaultSim, PatternSet, Polarity, Simulator,
};

/// A random small-but-valid netlist: a seeded benchmark at a random size.
fn arb_design() -> impl Strategy<Value = M3dDesign> {
    (0u8..4, 1u64..50, 250usize..450, 0u8..3).prop_map(|(bench, seed, target, algo)| {
        let bench = Benchmark::ALL[bench as usize];
        let nl = bench.generate(&GenParams::new(seed).with_target(target));
        let algo = [
            PartitionAlgo::MinCut,
            PartitionAlgo::LevelBanded,
            PartitionAlgo::Random,
        ][algo as usize];
        let part = algo.partition(&nl, seed);
        M3dDesign::new(nl, part)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn topological_order_is_always_valid(design in arb_design()) {
        let nl = design.netlist();
        let mut seen = vec![false; nl.gate_count()];
        for &g in nl.topo_order() {
            for p in nl.fanin_gates(g) {
                if nl.gate(p).kind().is_combinational() {
                    prop_assert!(seen[p.index()], "{p} used before defined");
                }
            }
            seen[g.index()] = true;
        }
    }

    #[test]
    fn partitions_are_area_balanced(design in arb_design()) {
        prop_assert!(design.partition().imbalance(design.netlist()) < 0.3);
        // Every MIV sits on a genuinely cut net.
        for (i, m) in design.mivs().iter().enumerate() {
            prop_assert!(!design.far_sinks(i as u32).is_empty());
            let net = design.netlist().net(m.net);
            prop_assert_eq!(
                design.tier_of_gate(net.driver()), m.driver_tier
            );
        }
    }

    #[test]
    fn parallel_sim_matches_scalar_reference(design in arb_design(), lane in 0u8..32) {
        let nl = design.netlist();
        let pats = PatternSet::random(nl, 32, 99);
        let sim = Simulator::new(nl);
        let block = &pats.blocks()[0];
        let good = sim.run_block(block);
        let bit = |w: u64| (w >> lane) & 1 == 1;
        let pi: Vec<bool> = block.pi.iter().map(|&w| bit(w)).collect();
        let st: Vec<bool> = block.scan.iter().map(|&w| bit(w)).collect();
        let frame1 = eval_single_frame(nl, &pi, &st);
        // Frame 2 starts from frame 1's D values (the launch capture).
        let launch: Vec<bool> = nl
            .flops()
            .iter()
            .map(|&f| frame1[nl.gate(f).inputs()[0].index()])
            .collect();
        let frame2 = eval_single_frame(nl, &pi, &launch);
        for (i, (&v1, &v2)) in frame1.iter().zip(&frame2).enumerate() {
            prop_assert_eq!(bit(good.f2(i)[0]), v2);
            prop_assert_eq!(bit(good.transitions(i)[0]), v1 ^ v2);
        }
    }

    #[test]
    fn compactor_is_linear_in_gf2(design in arb_design(), split in 1usize..8) {
        // XOR compaction is linear: observe(A) xor observe(B) ==
        // observe(A symmetric-difference B), expressed via parity of
        // overlapping fail sets.
        let nl = design.netlist();
        let scan = ScanChains::new(nl, ScanConfig::for_flop_count(nl.flops().len()));
        let n = nl.flops().len();
        let a: Vec<FlopId> = (0..split.min(n)).map(FlopId::new).collect();
        let b: Vec<FlopId> = (split.min(n)..n.min(split + 5)).map(FlopId::new).collect();
        let mut both = a.clone();
        both.extend(&b);
        let oa = scan.observe(&a, ObsMode::Compacted);
        let ob = scan.observe(&b, ObsMode::Compacted);
        let oboth = scan.observe(&both, ObsMode::Compacted);
        // Disjoint fail sets: symmetric difference of observations.
        let mut sym: Vec<_> = oa
            .iter()
            .filter(|o| !ob.contains(o))
            .chain(ob.iter().filter(|o| !oa.contains(o)))
            .copied()
            .collect();
        sym.sort();
        prop_assert_eq!(sym, oboth);
    }

    #[test]
    fn back_tracing_is_sound_for_single_faults(design in arb_design(), pick in 0usize..1000) {
        let nl = design.netlist();
        let pats = PatternSet::random(nl, 128, 7);
        let fsim = FaultSim::new(&design, &pats);
        let scan = ScanChains::new(nl, ScanConfig::for_flop_count(nl.flops().len()));
        let het = HetGraph::new(&design);
        let site = m3d_fault_diagnosis::netlist::SiteId::new(
            pick % design.sites().len(),
        );
        let mut det = fsim.detector();
        for pol in Polarity::ALL {
            let fault = Fault::new(site, pol);
            let dets = fsim.detections(&mut det, &[fault]);
            for mode in ObsMode::ALL {
                let log = FailureLog::from_detections(&dets, &scan, mode);
                if log.is_empty() {
                    continue;
                }
                let sg = back_trace(&het, &fsim, &scan, &log);
                let sg = sg.expect("single-fault logs always back-trace");
                prop_assert!(
                    sg.node_of(site).is_some(),
                    "{mode:?}: injected site must be in the sub-graph"
                );
            }
        }
    }

    #[test]
    fn gcn_aggregation_preserves_constant_vectors(nodes in 2usize..20, extra in 0usize..30) {
        // Mean aggregation must fix the constant vector regardless of the
        // topology (rows of D^-1 A sum to 1).
        let mut edges = Vec::new();
        for v in 1..nodes {
            edges.push((v - 1, v));
        }
        for k in 0..extra {
            edges.push((k % nodes, (k * 7 + 3) % nodes));
        }
        let g = GcnGraph::from_edges(nodes, &edges);
        let ones = Matrix::from_vec(nodes, 1, vec![1.0; nodes]);
        let agg = g.aggregate(&ones);
        for i in 0..nodes {
            prop_assert!((agg[(i, 0)] - 1.0).abs() < 1e-5);
        }
    }
}

/// Hand-rolled netlists (not from the generators) must survive the whole
/// flow too.
#[test]
fn handmade_netlist_flows_end_to_end() {
    let mut b = NetlistBuilder::new("handmade");
    let inputs: Vec<_> = (0..6).map(|i| b.add_input(&format!("i{i}"))).collect();
    let mut regs = Vec::new();
    for chunk in inputs.chunks(2) {
        let x = b.add_gate(GateKind::Xor, &[chunk[0], chunk[1]]);
        regs.push(b.add_dff(x));
    }
    let a1 = b.add_gate(GateKind::Nand, &[regs[0], regs[1]]);
    let a2 = b.add_gate(GateKind::Nor, &[regs[1], regs[2]]);
    let m = b.add_gate(GateKind::Mux2, &[regs[0], a1, a2]);
    let q = b.add_dff(m);
    let q2 = b.add_dff(a2);
    b.add_output("q", q);
    b.add_output("q2", q2);
    let nl: Netlist = b.finish().expect("valid handmade netlist");

    let part = PartitionAlgo::MinCut.partition(&nl, 3);
    let design = M3dDesign::new(nl, part);
    let pats = PatternSet::random(design.netlist(), 64, 1);
    let fsim = FaultSim::new(&design, &pats);
    let faults = m3d_fault_diagnosis::tdf::full_fault_list(&design);
    let mut det = fsim.detector();
    let detected = faults
        .iter()
        .filter(|f| !fsim.detections(&mut det, &[**f]).is_empty())
        .count();
    assert!(detected > 0, "some fault must be detectable");
}
