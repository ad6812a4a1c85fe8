//! Mutation suite: every implemented `L0xxx` code must be reachable.
//!
//! Each scenario takes a known-good artifact (or builds a minimal one
//! through the unchecked `raw` escape hatches), applies one targeted
//! corruption, and asserts the expected code fires. The final test unions
//! every scenario and checks the whole [`LintCode`] catalogue is covered,
//! so adding a code without a reaching mutation fails CI.

use std::sync::OnceLock;

use m3d_dft::{ObsMode, ScanChains};
use m3d_fault_localization::{generate_samples, DiagSample, InjectionKind, TestEnv};
use m3d_gnn::{GcnGraph, GraphData, Matrix};
use m3d_hetgraph::FEATURE_DIM;
use m3d_lint::passes::{dft, m3d, netlist, tensor};
use m3d_lint::{Diagnostic, LintCode};
use m3d_netlist::generate::{Benchmark, GenParams};
use m3d_netlist::{
    raw, FlopId, GateId, GateKind, NetId, Netlist, NetlistBuilder, SitePos, SiteTable,
};
use m3d_part::{DesignConfig, M3dDesign, Miv, Partition, PartitionAlgo, Tier};

fn has(diags: &[Diagnostic], code: LintCode) -> bool {
    diags.iter().any(|d| d.code == code)
}

/// A small valid netlist: `a -> INV -> DFF -> q`.
fn valid() -> Netlist {
    let mut b = NetlistBuilder::new("t");
    let a = b.add_input("a");
    let x = b.add_gate(GateKind::Inv, &[a]);
    let q = b.add_dff(x);
    b.add_output("q", q);
    b.finish().unwrap()
}

/// A partitioned benchmark design shared by the M3D scenarios.
fn aes_design() -> &'static M3dDesign {
    static DESIGN: OnceLock<M3dDesign> = OnceLock::new();
    DESIGN.get_or_init(|| {
        let nl = Benchmark::Aes.generate(&GenParams::small(1));
        let part = PartitionAlgo::MinCut.partition(&nl, 1);
        M3dDesign::new(nl, part)
    })
}

/// A full test environment with real diagnosis samples (tensor scenarios).
fn env_with_samples() -> &'static (TestEnv, Vec<DiagSample>) {
    static ENV: OnceLock<(TestEnv, Vec<DiagSample>)> = OnceLock::new();
    ENV.get_or_init(|| {
        let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(300));
        let fsim = env.fault_sim();
        let samples = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 8, 11);
        (env, samples)
    })
}

fn sample_with_subgraph() -> (&'static M3dDesign, DiagSample) {
    let (env, samples) = env_with_samples();
    let s = samples
        .iter()
        .find(|s| s.subgraph.is_some())
        .expect("bypass sampling back-traces at least one sub-graph")
        .clone();
    (&env.design, s)
}

// ---------------------------------------------------------------- L00xx --

fn combinational_loop() -> Vec<Diagnostic> {
    let gates = vec![
        raw::gate(GateKind::Buf, &[NetId::new(1)], Some(NetId::new(0))),
        raw::gate(GateKind::Buf, &[NetId::new(0)], Some(NetId::new(1))),
    ];
    let nets = vec![
        raw::net(GateId::new(0), &[(GateId::new(1), 0)]),
        raw::net(GateId::new(1), &[(GateId::new(0), 0)]),
    ];
    netlist::check_parts(&gates, &nets)
}

#[test]
fn l0001_combinational_loop() {
    assert!(has(&combinational_loop(), LintCode::CombinationalLoop));
}

fn cut_driver() -> Vec<Diagnostic> {
    let (_, gates, mut nets) = raw::parts_of(valid());
    let driver = nets[1].driver();
    nets[1] = raw::net(driver, &[]); // INV output no longer reaches the DFF
    netlist::check_parts(&gates, &nets)
}

#[test]
fn l0002_dangling_net() {
    assert!(has(&cut_driver(), LintCode::DanglingNet));
}

fn unknown_net_ref() -> Vec<Diagnostic> {
    let (_, mut gates, nets) = raw::parts_of(valid());
    gates[1] = raw::gate(GateKind::Inv, &[NetId::new(99)], gates[1].output());
    netlist::check_parts(&gates, &nets)
}

#[test]
fn l0003_unknown_ref() {
    assert!(has(&unknown_net_ref(), LintCode::UnknownRef));
}

fn bad_arity() -> Vec<Diagnostic> {
    let (_, mut gates, nets) = raw::parts_of(valid());
    let out = gates[1].output();
    gates[1] = raw::gate(GateKind::Inv, &[NetId::new(0), NetId::new(0)], out);
    netlist::check_parts(&gates, &nets)
}

#[test]
fn l0004_arity_violation() {
    assert!(has(&bad_arity(), LintCode::ArityViolation));
}

fn missing_output_pin() -> Vec<Diagnostic> {
    let (_, mut gates, nets) = raw::parts_of(valid());
    gates[1] = raw::gate(GateKind::Inv, &[NetId::new(0)], None);
    netlist::check_parts(&gates, &nets)
}

#[test]
fn l0005_output_pin_violation() {
    assert!(has(&missing_output_pin(), LintCode::OutputPinViolation));
}

fn crossref_mismatch() -> Vec<Diagnostic> {
    let (_, gates, mut nets) = raw::parts_of(valid());
    // Net n0 claims the OUTPUT gate (g3) as a sink, but g3's pin 0 is n2.
    let sinks: Vec<(GateId, u8)> = nets[0]
        .sinks()
        .iter()
        .copied()
        .chain([(GateId::new(3), 0)])
        .collect();
    nets[0] = raw::net(nets[0].driver(), &sinks);
    netlist::check_parts(&gates, &nets)
}

#[test]
fn l0006_crossref_mismatch() {
    assert!(has(&crossref_mismatch(), LintCode::CrossRefMismatch));
}

fn duplicate_sink() -> Vec<Diagnostic> {
    let (_, gates, mut nets) = raw::parts_of(valid());
    let first = nets[0].sinks()[0];
    let sinks: Vec<(GateId, u8)> = nets[0].sinks().iter().copied().chain([first]).collect();
    nets[0] = raw::net(nets[0].driver(), &sinks);
    netlist::check_parts(&gates, &nets)
}

#[test]
fn l0007_duplicate_sink() {
    assert!(has(&duplicate_sink(), LintCode::DuplicateSink));
}

fn flopless() -> Vec<Diagnostic> {
    let gates = vec![
        raw::gate(GateKind::Input, &[], Some(NetId::new(0))),
        raw::gate(GateKind::Inv, &[NetId::new(0)], Some(NetId::new(1))),
        raw::gate(GateKind::Output, &[NetId::new(1)], None),
    ];
    let nets = vec![
        raw::net(GateId::new(0), &[(GateId::new(1), 0)]),
        raw::net(GateId::new(1), &[(GateId::new(2), 0)]),
    ];
    netlist::check_parts(&gates, &nets)
}

#[test]
fn l0008_no_flops() {
    assert!(has(&flopless(), LintCode::NoFlops));
}

fn dead_cone() -> Vec<Diagnostic> {
    // a -> INV -> INV -> (nothing): both inverters are unobservable.
    let gates = vec![
        raw::gate(GateKind::Input, &[], Some(NetId::new(0))),
        raw::gate(GateKind::Inv, &[NetId::new(0)], Some(NetId::new(1))),
        raw::gate(GateKind::Inv, &[NetId::new(1)], Some(NetId::new(2))),
        raw::gate(GateKind::Dff, &[NetId::new(0)], Some(NetId::new(3))),
        raw::gate(GateKind::Output, &[NetId::new(3)], None),
    ];
    let nets = vec![
        raw::net(GateId::new(0), &[(GateId::new(1), 0), (GateId::new(3), 0)]),
        raw::net(GateId::new(1), &[(GateId::new(2), 0)]),
        raw::net(GateId::new(2), &[]),
        raw::net(GateId::new(3), &[(GateId::new(4), 0)]),
    ];
    netlist::check_parts(&gates, &nets)
}

#[test]
fn l0009_unobservable_gate() {
    assert!(has(&dead_cone(), LintCode::UnobservableGate));
}

fn inputless() -> Vec<Diagnostic> {
    // A self-clocked DFF loop with an output: structurally sound, but no
    // primary input anywhere.
    let gates = vec![
        raw::gate(GateKind::Dff, &[NetId::new(0)], Some(NetId::new(0))),
        raw::gate(GateKind::Output, &[NetId::new(0)], None),
    ];
    let nets = vec![raw::net(
        GateId::new(0),
        &[(GateId::new(0), 0), (GateId::new(1), 0)],
    )];
    netlist::check_parts(&gates, &nets)
}

#[test]
fn l0010_no_primary_inputs() {
    assert!(has(&inputless(), LintCode::NoPrimaryInputs));
}

fn outputless() -> Vec<Diagnostic> {
    let gates = vec![
        raw::gate(GateKind::Input, &[], Some(NetId::new(0))),
        raw::gate(GateKind::Dff, &[NetId::new(0)], Some(NetId::new(1))),
    ];
    let nets = vec![
        raw::net(GateId::new(0), &[(GateId::new(1), 0)]),
        raw::net(GateId::new(1), &[]),
    ];
    netlist::check_parts(&gates, &nets)
}

#[test]
fn l0011_no_primary_outputs() {
    assert!(has(&outputless(), LintCode::NoPrimaryOutputs));
}

// ---------------------------------------------------------------- L01xx --

fn dropped_miv() -> Vec<Diagnostic> {
    let d = aes_design();
    let mut mivs = d.mivs().to_vec();
    mivs.remove(0);
    m3d::check_miv_table(d.netlist(), d.partition(), &mivs)
}

#[test]
fn l0101_missing_miv() {
    assert!(has(&dropped_miv(), LintCode::MissingMiv));
}

fn miv_on_uncut_net() -> Vec<Diagnostic> {
    let d = aes_design();
    let uncut = (0..d.netlist().net_count())
        .map(NetId::new)
        .find(|&n| d.miv_on_net(n).is_none() && !d.netlist().net(n).sinks().is_empty())
        .expect("most nets are uncut");
    let mut mivs = d.mivs().to_vec();
    mivs.push(Miv {
        net: uncut,
        driver_tier: d.tier_of_gate(d.netlist().net(uncut).driver()),
    });
    m3d::check_miv_table(d.netlist(), d.partition(), &mivs)
}

#[test]
fn l0102_spurious_miv() {
    assert!(has(&miv_on_uncut_net(), LintCode::SpuriousMiv));
}

fn miv_on_sinkless_net() -> Vec<Diagnostic> {
    // Build (unchecked) a netlist whose n1 has no sinks, then claim an MIV
    // crosses it: there is no far-tier sink for the MIV to reach.
    let gates = vec![
        raw::gate(GateKind::Input, &[], Some(NetId::new(0))),
        raw::gate(GateKind::Dff, &[NetId::new(0)], Some(NetId::new(1))),
    ];
    let nets = vec![
        raw::net(GateId::new(0), &[(GateId::new(1), 0)]),
        raw::net(GateId::new(1), &[]),
    ];
    let nl = raw::netlist("sinkless", gates, nets);
    let part = Partition::from_tiers(&nl, vec![Tier::Bottom, Tier::Bottom]);
    let mivs = vec![Miv {
        net: NetId::new(1),
        driver_tier: Tier::Bottom,
    }];
    m3d::check_miv_table(&nl, &part, &mivs)
}

#[test]
fn l0103_miv_without_far_sinks() {
    assert!(has(&miv_on_sinkless_net(), LintCode::MivWithoutFarSinks));
}

fn stale_site_table() -> Vec<Diagnostic> {
    let d = aes_design();
    // Three phantom MIV sites appended beyond the real MIV count.
    let sites = SiteTable::from_netlist(d.netlist()).with_mivs(d.miv_count() + 3);
    let doctored = M3dDesign::from_raw_parts(
        d.netlist().clone(),
        d.partition().clone(),
        d.mivs().to_vec(),
        sites,
    );
    m3d::check_site_table(&doctored)
}

#[test]
fn l0104_site_table_mismatch() {
    assert!(has(&stale_site_table(), LintCode::SiteTableMismatch));
}

fn lopsided_partition() -> Vec<Diagnostic> {
    let d = aes_design();
    let nl = d.netlist();
    let everything_bottom = Partition::from_tiers(nl, vec![Tier::Bottom; nl.gate_count()]);
    m3d::check_partition(nl, &everything_bottom)
}

#[test]
fn l0105_tier_imbalance() {
    assert!(has(&lopsided_partition(), LintCode::TierImbalance));
}

fn foreign_partition() -> Vec<Diagnostic> {
    let d = aes_design();
    let other = Benchmark::Tate.generate(&GenParams::small(1));
    m3d::check_partition(&other, d.partition())
}

#[test]
fn l0106_partition_size_mismatch() {
    assert!(has(&foreign_partition(), LintCode::PartitionSizeMismatch));
}

fn hoisted_pseudo_cell() -> Vec<Diagnostic> {
    let d = aes_design();
    let nl = d.netlist();
    let mut tiers = d.partition().tiers().to_vec();
    let pseudo = nl
        .gates()
        .iter()
        .position(|g| g.kind() == GateKind::Input)
        .expect("benchmarks have primary inputs");
    tiers[pseudo] = Tier::Top;
    m3d::check_partition(nl, &Partition::from_tiers(nl, tiers))
}

#[test]
fn l0107_pseudo_cell_tier() {
    assert!(has(&hoisted_pseudo_cell(), LintCode::PseudoCellTier));
}

// ---------------------------------------------------------------- L02xx --

fn scan_netlist() -> &'static Netlist {
    static NL: OnceLock<Netlist> = OnceLock::new();
    NL.get_or_init(|| Benchmark::Netcard.generate(&GenParams::small(1)))
}

fn dropped_flop_scan() -> Vec<Diagnostic> {
    let nl = scan_netlist();
    let n = nl.flops().len();
    let chains = vec![(1..n).map(FlopId::new).collect::<Vec<_>>()];
    dft::check_scan(nl, &ScanChains::from_raw_chains(chains, 20))
}

#[test]
fn l0201_unscanned_flop() {
    assert!(has(&dropped_flop_scan(), LintCode::UnscannedFlop));
}

fn double_stitched_scan() -> Vec<Diagnostic> {
    let nl = scan_netlist();
    let n = nl.flops().len();
    let mut all: Vec<FlopId> = (0..n).map(FlopId::new).collect();
    all.push(FlopId::new(0)); // flop 0 stitched twice
    dft::check_scan(nl, &ScanChains::from_raw_chains(vec![all], 20))
}

#[test]
fn l0202_duplicate_scan_flop() {
    assert!(has(&double_stitched_scan(), LintCode::DuplicateScanFlop));
}

fn phantom_flop_scan() -> Vec<Diagnostic> {
    let nl = scan_netlist();
    let n = nl.flops().len();
    let mut all: Vec<FlopId> = (0..n).map(FlopId::new).collect();
    all.push(FlopId::new(n + 5));
    dft::check_scan(nl, &ScanChains::from_raw_chains(vec![all], 20))
}

#[test]
fn l0203_unknown_scan_flop() {
    assert!(has(&phantom_flop_scan(), LintCode::UnknownScanFlop));
}

fn unbalanced_scan() -> Vec<Diagnostic> {
    let nl = scan_netlist();
    let n = nl.flops().len();
    assert!(n >= 4, "netcard has plenty of flops");
    let chains = vec![
        (0..n - 1).map(FlopId::new).collect::<Vec<_>>(),
        vec![FlopId::new(n - 1)],
    ];
    dft::check_scan(nl, &ScanChains::from_raw_chains(chains, 20))
}

#[test]
fn l0204_chain_imbalance() {
    assert!(has(&unbalanced_scan(), LintCode::ChainImbalance));
}

fn weak_tap() -> Vec<Diagnostic> {
    // The observation flop taps net `a` directly at the primary input:
    // already controllable, so the point buys no observability.
    let mut b = NetlistBuilder::new("weak-tpi");
    let a = b.add_input("a");
    let x = b.add_gate(GateKind::Inv, &[a]);
    let q = b.add_dff(x);
    b.add_output("q", q);
    let obs = b.add_dff(a);
    b.add_output("obs", obs);
    dft::check_tpi(&b.finish().unwrap())
}

#[test]
fn l0205_weak_observation_point() {
    assert!(has(&weak_tap(), LintCode::WeakObservationPoint));
}

// ---------------------------------------------------------------- L03xx --

fn clean_data(n: usize) -> GraphData {
    let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    GraphData::new(
        GcnGraph::from_edges(n, &edges),
        Matrix::zeros(n, FEATURE_DIM),
    )
}

fn nan_poison() -> Vec<Diagnostic> {
    let mut d = clean_data(4);
    d.features.row_mut(2)[7] = f32::NAN;
    tensor::check_graph_data(&d)
}

#[test]
fn l0301_non_finite_feature() {
    assert!(has(&nan_poison(), LintCode::NonFiniteFeature));
}

fn truncated_features() -> Vec<Diagnostic> {
    // Feature rows for only half the nodes (bypassing `GraphData::new`'s
    // assert, exactly what a buggy transform would produce).
    let d = GraphData {
        graph: GcnGraph::from_edges(4, &[(0, 1), (2, 3)]),
        features: Matrix::zeros(2, FEATURE_DIM),
    };
    tensor::check_graph_data(&d)
}

#[test]
fn l0302_feature_shape() {
    assert!(has(&truncated_features(), LintCode::FeatureShape));
}

fn out_of_range_feature() -> Vec<Diagnostic> {
    let mut d = clean_data(3);
    d.features.row_mut(0)[3] = 7.5; // tier column lives in [0, 1]
    tensor::check_graph_data(&d)
}

#[test]
fn l0303_feature_range() {
    assert!(has(&out_of_range_feature(), LintCode::FeatureRange));
}

fn shuffled_sites() -> Vec<Diagnostic> {
    let (design, mut sample) = sample_with_subgraph();
    let sg = sample.subgraph.as_mut().unwrap();
    assert!(sg.sites.len() >= 2, "back-traced cones have many sites");
    sg.sites.swap(0, 1);
    tensor::check_subgraph(design, sg)
}

#[test]
fn l0304_unsorted_sites() {
    assert!(has(&shuffled_sites(), LintCode::UnsortedSites));
}

fn phantom_miv_node() -> Vec<Diagnostic> {
    let (design, mut sample) = sample_with_subgraph();
    let sg = sample.subgraph.as_mut().unwrap();
    let pin_node = sg
        .sites
        .iter()
        .position(|&s| !matches!(design.sites().pos(s), SitePos::Miv(_)))
        .expect("cones contain gate-pin sites");
    sg.miv_nodes.push((pin_node, u32::MAX));
    tensor::check_subgraph(design, sg)
}

#[test]
fn l0305_bad_miv_node() {
    assert!(has(&phantom_miv_node(), LintCode::BadMivNode));
}

fn corrupted_truth() -> Vec<Diagnostic> {
    let (design, mut sample) = sample_with_subgraph();
    sample.miv_truth.push(u32::MAX); // an MIV nobody injected
    tensor::check_sample(design, &sample)
}

#[test]
fn l0306_label_mismatch() {
    assert!(has(&corrupted_truth(), LintCode::LabelMismatch));
}

// ---------------------------------------------------------- completeness --

/// Every code in the catalogue is fired by at least one scenario above;
/// adding a `LintCode` without a reaching mutation fails here.
#[test]
fn every_code_is_reachable() {
    let all: Vec<Vec<Diagnostic>> = vec![
        combinational_loop(),
        cut_driver(),
        unknown_net_ref(),
        bad_arity(),
        missing_output_pin(),
        crossref_mismatch(),
        duplicate_sink(),
        flopless(),
        dead_cone(),
        inputless(),
        outputless(),
        dropped_miv(),
        miv_on_uncut_net(),
        miv_on_sinkless_net(),
        stale_site_table(),
        lopsided_partition(),
        foreign_partition(),
        hoisted_pseudo_cell(),
        dropped_flop_scan(),
        double_stitched_scan(),
        phantom_flop_scan(),
        unbalanced_scan(),
        weak_tap(),
        nan_poison(),
        truncated_features(),
        out_of_range_feature(),
        shuffled_sites(),
        phantom_miv_node(),
        corrupted_truth(),
    ];
    let missing: Vec<&str> = LintCode::ALL
        .iter()
        .filter(|&&code| !all.iter().any(|diags| has(diags, code)))
        .map(|c| c.code())
        .collect();
    assert!(
        missing.is_empty(),
        "codes with no reaching mutation: {missing:?}"
    );
}
