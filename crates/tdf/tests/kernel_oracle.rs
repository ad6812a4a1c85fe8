//! Oracles for the two word-parallel kernels diagnosis runs on:
//!
//! - [`FaultSim::active_site_counts`] must equal the per-entry loop it
//!   replaced — one set of transition-active cone sites per log entry,
//!   then one count per site — on bypass and compacted logs from 1–5
//!   injected faults, with out-of-range entries mixed in. A compacted
//!   entry observes several scan cells; every compacted log also fails at
//!   observations whose cells' cones overlap, where a shared site must
//!   count once per entry.
//! - [`FaultSim::detections_both`] must equal two single-fault
//!   [`FaultSim::detections`] calls, on output-pin, input-branch and MIV
//!   sites.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use m3d_dft::{ObsMode, ObsPoint, ScanChains, ScanConfig};
use m3d_netlist::generate::Benchmark;
use m3d_netlist::{FlopId, SiteId, SitePos};
use m3d_part::{DesignConfig, M3dDesign};
use m3d_tdf::{
    full_fault_list, generate_patterns, AtpgConfig, FailEntry, FailureLog, Fault, FaultSim,
    Polarity, TestSet,
};

struct Env {
    design: M3dDesign,
    ts: TestSet,
    /// Eight chains, four per output channel: each compacted observation
    /// maps to up to four scan cells.
    scan: ScanChains,
    /// Per flop: the fault sites of its fan-in cone.
    cones: Vec<Vec<SiteId>>,
    detected: Vec<Fault>,
    /// Compacted observation points two of whose cells share cone sites.
    shared_obs: Vec<ObsPoint>,
    /// Sites by kind: output pins, input branches, MIVs.
    sites_by_kind: [Vec<SiteId>; 3],
}

fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let ts = generate_patterns(&design, &AtpgConfig::new(1, 256));
        let scan = ScanChains::new(
            design.netlist(),
            ScanConfig {
                num_chains: 8,
                chains_per_channel: 4,
            },
        );
        let cones: Vec<Vec<SiteId>> = (0..design.netlist().flops().len())
            .map(|f| fan_in_cone(&design, FlopId::new(f)))
            .collect();
        let detected = full_fault_list(&design)
            .into_iter()
            .zip(&ts.detected)
            .filter(|&(_, &d)| d)
            .map(|(f, _)| f)
            .collect();
        let mut sites_by_kind = [Vec::new(), Vec::new(), Vec::new()];
        for (site, pos) in design.sites().iter() {
            let kind = match pos {
                SitePos::Output(_) => 0,
                SitePos::Input(..) => 1,
                SitePos::Miv(_) => 2,
            };
            sites_by_kind[kind].push(site);
        }
        assert!(
            sites_by_kind.iter().all(|s| !s.is_empty()),
            "the design has every site kind"
        );
        let shared_obs: Vec<ObsPoint> = (0..scan.channel_count() as u16)
            .flat_map(|channel| {
                (0..scan.max_chain_length() as u16)
                    .map(move |cycle| ObsPoint::ChannelCycle { channel, cycle })
            })
            .filter(|&obs| cones_overlap(&scan, &cones, obs))
            .collect();
        assert!(
            !shared_obs.is_empty(),
            "some channel's cells share cone sites"
        );
        Env {
            design,
            ts,
            scan,
            cones,
            detected,
            shared_obs,
            sites_by_kind,
        }
    })
}

/// The fault sites in a flop's structural fan-in cone: its D pin, every
/// gate output, input pin and MIV behind it, up to the sequential
/// boundary.
fn fan_in_cone(design: &M3dDesign, flop: FlopId) -> Vec<SiteId> {
    let nl = design.netlist();
    let fg = nl.flops()[flop.index()];
    let mut sites = vec![design.sites().input_site(fg, 0)];
    let mut seen_nets = HashSet::new();
    let mut seen_gates = HashSet::new();
    let mut stack = vec![nl.gate(fg).inputs()[0]];
    while let Some(net) = stack.pop() {
        if !seen_nets.insert(net) {
            continue;
        }
        if let Some(m) = design.miv_on_net(net) {
            sites.push(design.miv_site(m as usize));
        }
        let driver = nl.net(net).driver();
        if !seen_gates.insert(driver) {
            continue;
        }
        sites.extend(design.sites().output_site(nl, driver));
        if nl.gate(driver).kind().is_combinational() {
            for (pin, &inp) in nl.gate(driver).inputs().iter().enumerate() {
                sites.push(design.sites().input_site(driver, pin as u8));
                stack.push(inp);
            }
        }
    }
    sites
}

/// The per-entry loop the kernel replaced, kept as its oracle: entries
/// outside the pattern set or the scan cells are skipped; every other
/// entry contributes the set of its cells' cone sites that transition
/// under its pattern. Returns the per-site counts and the entries counted.
fn reference_counts(
    sim: &FaultSim<'_>,
    log: &FailureLog,
    scan: &ScanChains,
    cones: &[Vec<SiteId>],
) -> (HashMap<SiteId, u32>, u32) {
    let mut counts = HashMap::new();
    let mut entries = 0;
    for entry in log.entries() {
        let Some((blk, bit)) = sim.patterns().checked_locate(entry.pattern) else {
            continue;
        };
        let cells = scan.candidate_flops(entry.obs);
        if cells.iter().any(|f| f.index() >= cones.len()) {
            continue;
        }
        entries += 1;
        let mut active = HashSet::new();
        for flop in cells {
            for &site in &cones[flop.index()] {
                if sim.transition_mask(site, blk) & (1u64 << bit) != 0 {
                    active.insert(site);
                }
            }
        }
        for site in active {
            *counts.entry(site).or_insert(0) += 1;
        }
    }
    (counts, entries)
}

/// Whether two of an observation's scan cells share a cone site.
fn cones_overlap(scan: &ScanChains, cones: &[Vec<SiteId>], obs: ObsPoint) -> bool {
    let mut owner: HashMap<SiteId, FlopId> = HashMap::new();
    scan.candidate_flops(obs).into_iter().any(|f| {
        cones[f.index()]
            .iter()
            .any(|&s| *owner.entry(s).or_insert(f) != f)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn active_site_counts_equal_the_per_entry_reference(
        seed in any::<u64>(),
        k in 1usize..6,
        compacted in any::<bool>(),
        junk in 0usize..4,
    ) {
        let e = env();
        let sim = FaultSim::new(&e.design, &e.ts.patterns);
        let mut det = sim.detector();
        let mut rng = StdRng::seed_from_u64(seed);
        let picks: Vec<Fault> = (0..k)
            .map(|_| e.detected[rng.gen_range(0..e.detected.len())])
            .collect();
        let mode = if compacted { ObsMode::Compacted } else { ObsMode::Bypass };
        let dets = sim.detections(&mut det, &picks);
        let mut entries = FailureLog::from_detections(&dets, &e.scan, mode).entries().to_vec();
        if compacted {
            // Failures at observations whose cells share cone sites, so
            // every compacted case exercises the once-per-entry rule.
            for _ in 0..3 {
                entries.push(FailEntry {
                    pattern: rng.gen_range(0..e.ts.patterns.len() as u32),
                    obs: e.shared_obs[rng.gen_range(0..e.shared_obs.len())],
                });
            }
        }
        let clean: FailureLog = entries.into_iter().collect();
        let flops = e.design.netlist().flops().len();
        let junk_entries = [
            FailEntry { pattern: u32::MAX, obs: ObsPoint::Flop(FlopId::new(u32::MAX as usize)) },
            FailEntry { pattern: 3, obs: ObsPoint::Flop(FlopId::new(flops)) },
            FailEntry { pattern: e.ts.patterns.len() as u32, obs: ObsPoint::Flop(FlopId::new(0)) },
        ];
        let log: FailureLog = clean.entries().iter().copied().chain(junk_entries.into_iter().take(junk)).collect();

        let got = sim.active_site_counts(&log, &e.scan, |f| e.cones[f.index()].iter().copied());
        let (want, entries) = reference_counts(&sim, &log, &e.scan, &e.cones);
        prop_assert_eq!(got.entries, entries);
        prop_assert_eq!(got.entries as usize, clean.len());
        let distinct: HashSet<ObsPoint> = clean.entries().iter().map(|x| x.obs).collect();
        prop_assert_eq!(got.obs_points as usize, distinct.len());
        let got_map: HashMap<SiteId, u32> = got.sites.iter().copied().collect();
        prop_assert_eq!(got_map.len(), got.sites.len(), "each site listed once");
        prop_assert_eq!(got_map, want);
    }

    #[test]
    fn fused_polarities_equal_two_single_fault_runs(kind in 0usize..3, pick in any::<usize>()) {
        let e = env();
        let sim = FaultSim::new(&e.design, &e.ts.patterns);
        let mut det = sim.detector();
        let sites = &e.sites_by_kind[kind];
        let site = sites[pick % sites.len()];
        let both = sim.detections_both(&mut det, site);
        for (pol, fused) in Polarity::ALL.into_iter().zip(both) {
            prop_assert_eq!(fused, sim.detections(&mut det, &[Fault::new(site, pol)]));
        }
    }
}
