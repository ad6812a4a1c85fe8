//! The oracle for [`back_trace`]: it must build the same sub-graph as the
//! counting back-trace it replaced, which stays here as the reference —
//! every Topedge site's supporting failures counted with
//! [`FaultSim::active_site_counts`], the sites whose count reaches
//! `min(c_max, entries)` kept, and the sub-graph extracted over them.
//!
//! The logs are bypass and compacted logs of 1–5 detected faults on
//! AES-300 with eight chains, four per output channel. Some compacted logs
//! also fail at observations two of whose cells share Topedge sites, and
//! up to four out-of-range entries are mixed in. Each case also checks the
//! log of its first fault alone. Single-fault logs reach the
//! intersection; nine in ten fail at one scan cell on this design, so half
//! the cases draw their first fault from those failing at several, whose
//! intersection filters through several observation points. Logs whose
//! failures no one site explains reach the fallback count.

use std::collections::HashMap;
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use m3d_dft::{ObsMode, ObsPoint, ScanChains, ScanConfig};
use m3d_hetgraph::{back_trace, extract, HetGraph, SubGraph};
use m3d_netlist::generate::Benchmark;
use m3d_netlist::{FlopId, SiteId};
use m3d_part::{DesignConfig, M3dDesign};
use m3d_tdf::{
    full_fault_list, generate_patterns, AtpgConfig, FailEntry, FailureLog, Fault, FaultSim,
    Signature, TestSet,
};

struct Env {
    design: M3dDesign,
    ts: TestSet,
    scan: ScanChains,
    het: HetGraph,
    detected: Vec<Fault>,
    /// The detected faults whose bypass log fails at two or more cells.
    spread: Vec<Fault>,
    /// Compacted observation points two of whose cells share Topedge
    /// sites.
    shared_obs: Vec<ObsPoint>,
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
        let het = HetGraph::new(&design);
        let detected: Vec<Fault> = full_fault_list(&design)
            .into_iter()
            .zip(&ts.detected)
            .filter(|&(_, &d)| d)
            .map(|(f, _)| f)
            .collect();
        let fsim = FaultSim::new(&design, &ts.patterns);
        let mut det = fsim.detector();
        let spread: Vec<Fault> = detected
            .iter()
            .copied()
            .filter(|&f| {
                let dets = fsim.detections(&mut det, &[f]);
                dets.iter().any(|d| d.flop != dets[0].flop)
            })
            .collect();
        assert!(!spread.is_empty(), "some fault fails at several cells");
        let shared_obs: Vec<ObsPoint> = (0..scan.channel_count() as u16)
            .flat_map(|channel| {
                (0..scan.max_chain_length() as u16)
                    .map(move |cycle| ObsPoint::ChannelCycle { channel, cycle })
            })
            .filter(|&obs| {
                let mut owner: HashMap<SiteId, FlopId> = HashMap::new();
                scan.candidate_flops(obs).into_iter().any(|f| {
                    het.topedges(f)
                        .iter()
                        .any(|te| *owner.entry(te.site).or_insert(f) != f)
                })
            })
            .collect();
        assert!(
            !shared_obs.is_empty(),
            "some channel's cells share Topedge sites"
        );
        Env {
            design,
            ts,
            scan,
            het,
            detected,
            spread,
            shared_obs,
        }
    })
}

/// The counting back-trace, kept as the reference.
fn counting_back_trace(
    het: &HetGraph,
    fsim: &FaultSim<'_>,
    scan: &ScanChains,
    log: &FailureLog,
) -> Option<SubGraph> {
    let failures = Signature::from_log(log, fsim.patterns());
    let counts = fsim.active_site_counts(&failures, scan, |flop| {
        het.topedges(flop).iter().map(|te| te.site)
    });
    let c_max = counts.sites.iter().map(|&(_, c)| c).max()?;
    let threshold = c_max.min(counts.entries);
    let mut sites: Vec<SiteId> = counts
        .sites
        .into_iter()
        .filter(|&(_, c)| c >= threshold)
        .map(|(s, _)| s)
        .collect();
    sites.sort_unstable();
    Some(extract(het, fsim, sites))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn back_trace_equals_the_counting_reference(
        seed in any::<u64>(),
        k in 1usize..6,
        spread in any::<bool>(),
        compacted in any::<bool>(),
        shared in 0usize..4,
        junk in 0usize..5,
    ) {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let mut det = fsim.detector();
        let mut rng = StdRng::seed_from_u64(seed);
        let first = if spread { &e.spread } else { &e.detected };
        let picks: Vec<Fault> = std::iter::once(first[rng.gen_range(0..first.len())])
            .chain((1..k).map(|_| e.detected[rng.gen_range(0..e.detected.len())]))
            .collect();
        let mode = if compacted { ObsMode::Compacted } else { ObsMode::Bypass };
        let mut extra = Vec::new();
        if compacted {
            for _ in 0..shared {
                extra.push(FailEntry {
                    pattern: rng.gen_range(0..e.ts.patterns.len() as u32),
                    obs: e.shared_obs[rng.gen_range(0..e.shared_obs.len())],
                });
            }
        }
        let flops = e.design.netlist().flops().len();
        let junk_entries = [
            FailEntry { pattern: u32::MAX, obs: ObsPoint::Flop(FlopId::new(u32::MAX as usize)) },
            FailEntry { pattern: 3, obs: ObsPoint::Flop(FlopId::new(flops)) },
            FailEntry { pattern: e.ts.patterns.len() as u32, obs: ObsPoint::Flop(FlopId::new(0)) },
            FailEntry { pattern: 3, obs: ObsPoint::ChannelCycle { channel: 9999, cycle: 0 } },
        ];
        extra.extend(junk_entries.into_iter().take(junk));
        for faults in [&picks[..1], &picks[..]] {
            let dets = fsim.detections(&mut det, faults);
            let clean = FailureLog::from_detections(&dets, &e.scan, mode);
            let log: FailureLog = clean.entries().iter().chain(&extra).copied().collect();
            prop_assert_eq!(
                back_trace(&e.het, &fsim, &e.scan, &log),
                counting_back_trace(&e.het, &fsim, &e.scan, &log),
                "faults {:?}, {:?}",
                faults,
                mode
            );
        }
    }
}
