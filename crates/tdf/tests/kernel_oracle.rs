//! Oracles for the fault-simulation kernels diagnosis runs on:
//!
//! - [`FaultSim::active_site_counts`] over the design's cone index
//!   ([`M3dDesign::fanin_cones`]) must equal the per-entry loop it
//!   replaced — one set of transition-active cone sites per log entry,
//!   then one count per site — on bypass and compacted logs from 1–5
//!   injected faults, with out-of-range entries (one a compacted
//!   observation that names no scan cell) mixed in. A compacted
//!   entry observes several scan cells; every compacted log also fails at
//!   observations whose cells' cones overlap, where a shared site must
//!   count once per entry.
//! - [`FaultSim::detections`] must equal a brute-force faulty machine that
//!   re-evaluates every frame-2 gate in topological order with the
//!   injected flips applied and compares every flop capture, for
//!   output-pin, input-branch, MIV and 2–5-fault injections, and for a
//!   stem fault and an input-branch fault of one gate active in the same
//!   lane.
//! - [`FaultSim::signatures`] must equal, for both polarities of every
//!   site, the log `FailureLog::from_detections` builds from the
//!   brute-force machine's single-fault detections, regrouped into
//!   `(block, observation, lanes)` words, in bypass and compacted modes.
//!   A second environment runs 200 random patterns, so its last block
//!   has 8 valid lanes, and holds sites activated in only some blocks:
//!   there signatures, multi-fault detections and the stem/branch pairs
//!   must match the brute-force machine too.
//! - [`FaultSim::activation_support`] must bound every polarity's
//!   explained failures from above: for every site and both polarities,
//!   `signatures(site)[p].overlap(log) <= activation_support(site, log)[p]`
//!   on bypass and compacted logs of 1–5 faults with out-of-range entries
//!   mixed in. On a fault's own single-fault log the two are equal, to the
//!   log's failure count, and the other polarity's support is zero.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use m3d_dft::{ObsMode, ObsPoint, ScanChains, ScanConfig};
use m3d_netlist::generate::Benchmark;
use m3d_netlist::{FlopId, GateId, NetId, SiteId, SitePos};
use m3d_part::{DesignConfig, FaninCones, M3dDesign};
use m3d_tdf::{
    full_fault_list, generate_patterns, injection_scope, site_net, AtpgConfig, Detection,
    FailEntry, FailureLog, Fault, FaultSim, InjectionScope, PatternSet, Polarity, Signature,
    TestSet,
};

struct Env {
    design: M3dDesign,
    ts: TestSet,
    /// Eight chains, four per output channel: each compacted observation
    /// maps to up to four scan cells.
    scan: ScanChains,
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
            .filter(|&obs| cones_overlap(&scan, design.fanin_cones(), obs))
            .collect();
        assert!(
            !shared_obs.is_empty(),
            "some channel's cells share cone sites"
        );
        Env {
            design,
            ts,
            scan,
            detected,
            shared_obs,
            sites_by_kind,
        }
    })
}

/// The per-entry loop the kernel replaced, kept as its oracle: entries
/// outside the pattern set or the scan cells, or naming no scan cell at
/// all, are skipped; every other entry contributes the set of its cells'
/// cone sites that transition under its pattern. Returns the per-site
/// counts and the entries counted.
fn reference_counts(
    sim: &FaultSim<'_>,
    log: &FailureLog,
    scan: &ScanChains,
    cones: &FaninCones,
) -> (HashMap<SiteId, u32>, u32) {
    let flops = sim.design().netlist().flops().len();
    let mut counts = HashMap::new();
    let mut entries = 0;
    for entry in log.entries() {
        let Some((blk, bit)) = sim.patterns().checked_locate(entry.pattern) else {
            continue;
        };
        let cells = scan.candidate_flops(entry.obs);
        if cells.is_empty() || cells.iter().any(|f| f.index() >= flops) {
            continue;
        }
        entries += 1;
        let mut active = HashSet::new();
        for flop in cells {
            for site in cones.sites(flop) {
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

/// The faulty machine by brute force: per block, every distinct fault's
/// activation lanes (its site's fault-free transition word and frame-2
/// value, [`Polarity::activation`]) become flips — on an output
/// pin's net, an input pin, or an MIV's far-tier pins, ORed where faults
/// share one — then every frame-2 gate is re-evaluated in topological
/// order and every flop's capture is compared with the fault-free one.
///
/// Input-pin flips apply on every evaluation. An output-pin (stem) flip
/// is the kernel's seeded value: it holds while the stem's driver is
/// undisturbed, and once the driver has a flipped input pin or an input
/// net that carries a stem flip or differs from the fault-free value, the
/// re-evaluated output replaces it.
fn brute_force_detections(sim: &FaultSim<'_>, faults: &[Fault]) -> Vec<Detection> {
    let design = sim.design();
    let nl = design.netlist();
    let good = sim.good();
    let mut distinct = faults.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut out = Vec::new();
    for block in 0..good.block_count() {
        let f2: Vec<u64> = (0..nl.net_count()).map(|n| good.f2(n)[block]).collect();
        let mut net_flips: HashMap<NetId, u64> = HashMap::new();
        let mut pin_flips: HashMap<(GateId, usize), u64> = HashMap::new();
        for fault in &distinct {
            let net = site_net(design, fault.site).index();
            let act = fault
                .polarity
                .activation(sim.transition_mask(fault.site, block), f2[net]);
            match injection_scope(design, fault.site) {
                InjectionScope::Net(n) => *net_flips.entry(n).or_default() |= act,
                InjectionScope::Branch(g, pin) => {
                    *pin_flips.entry((g, usize::from(pin))).or_default() |= act;
                }
                InjectionScope::MivBranches(branches) => {
                    for (g, pin) in branches {
                        *pin_flips.entry((g, usize::from(pin))).or_default() |= act;
                    }
                }
            }
        }
        let net_flip = |n: NetId| net_flips.get(&n).copied().unwrap_or(0);
        let pin_flip = |g: GateId, pin: usize| pin_flips.get(&(g, pin)).copied().unwrap_or(0);
        let mut values = f2.clone();
        for (&n, &flip) in &net_flips {
            values[n.index()] ^= flip;
        }
        for &g in nl.topo_order() {
            let gate = nl.gate(g);
            let disturbed = gate.inputs().iter().enumerate().any(|(pin, &n)| {
                pin_flip(g, pin) != 0 || net_flip(n) != 0 || values[n.index()] != f2[n.index()]
            });
            if !disturbed {
                continue;
            }
            let ins: Vec<u64> = gate
                .inputs()
                .iter()
                .enumerate()
                .map(|(pin, n)| values[n.index()] ^ pin_flip(g, pin))
                .collect();
            let out_net = gate.output().expect("combinational gates drive nets");
            values[out_net.index()] = gate.kind().eval(&ins);
        }
        for (fi, &g) in nl.flops().iter().enumerate() {
            let d = nl.gate(g).inputs()[0].index();
            let capture = good.capture(fi)[block];
            let mut diff = ((values[d] ^ pin_flip(g, 0)) ^ capture) & good.lanes()[block];
            while diff != 0 {
                out.push(Detection {
                    pattern: sim.patterns().id_at(block, diff.trailing_zeros() as u8),
                    flop: FlopId::new(fi),
                });
                diff &= diff - 1;
            }
        }
    }
    out.sort_unstable();
    out
}

/// A stem fault and an input-branch fault of one gate, active in a common
/// lane: the branch flip re-evaluates the gate, and its output replaces
/// the stem's seeded value, as [`brute_force_detections`] states. On the
/// 200 random patterns the two faults are also active apart in other
/// blocks, where the stem's value must hold.
#[test]
fn stem_and_branch_faults_of_one_gate_match_the_brute_force_machine() {
    let e = env();
    check_stem_branch_pairs(&FaultSim::new(&e.design, &e.ts.patterns));
    let random = PatternSet::random(e.design.netlist(), 200, 5);
    check_stem_branch_pairs(&FaultSim::new(&e.design, &random));
}

/// Checks 200 stem/branch fault pairs that share an activation lane
/// against the brute-force machine.
fn check_stem_branch_pairs(sim: &FaultSim<'_>) {
    let design = sim.design();
    let nl = design.netlist();
    let activation = |f: Fault, block: usize| {
        let f2 = sim.good().f2(site_net(design, f.site).index())[block];
        f.polarity
            .activation(sim.transition_mask(f.site, block), f2)
    };
    let mut det = sim.detector();
    let pairs = nl.topo_order().iter().flat_map(|&g| {
        let stem = design.sites().output_site(nl, g);
        (0..nl.gate(g).inputs().len() as u8)
            .flat_map(move |pin| stem.map(|s| (s, design.sites().input_site(g, pin))))
    });
    let mut checked = 0;
    for (stem, branch) in pairs {
        for sp in Polarity::ALL {
            for bp in Polarity::ALL {
                let faults = [Fault::new(stem, sp), Fault::new(branch, bp)];
                let shared = (0..sim.good().block_count())
                    .any(|b| activation(faults[0], b) & activation(faults[1], b) != 0);
                if !shared {
                    continue;
                }
                assert_eq!(
                    sim.detections(&mut det, &faults),
                    brute_force_detections(sim, &faults),
                    "faults {faults:?}"
                );
                checked += 1;
            }
        }
        if checked >= 200 {
            return;
        }
    }
    panic!("only {checked} stem/branch pairs share an activation lane");
}

/// Checks every site's signatures, in both modes, against the brute-force
/// machine's single-fault logs regrouped into words, and returns every
/// site's signatures per mode of [`ObsMode::ALL`].
fn check_signatures(sim: &FaultSim<'_>, scan: &ScanChains) -> SiteSignatures {
    let mut det = sim.detector();
    let mut sigs: SiteSignatures = [Vec::new(), Vec::new()];
    for (site, _) in sim.design().sites().iter() {
        let dets = Polarity::ALL.map(|p| brute_force_detections(sim, &[Fault::new(site, p)]));
        for (mode, per_mode) in ObsMode::ALL.into_iter().zip(&mut sigs) {
            let got = sim.signatures(&mut det, site, scan, mode);
            for ((pol, sig), dets) in Polarity::ALL.into_iter().zip(&got).zip(&dets) {
                let log = FailureLog::from_detections(dets, scan, mode);
                let words: Vec<(u32, ObsPoint, u64)> = sig
                    .words()
                    .iter()
                    .map(|w| (w.block, w.obs, w.lanes))
                    .collect();
                assert_eq!(words, log_words(&log), "{pol:?} at {site:?}, {mode:?}");
                assert_eq!(sig.failures() as usize, log.len());
                assert_eq!(*sig, Signature::from_log(&log, sim.patterns()));
            }
            per_mode.push((site, got));
        }
    }
    sigs
}

#[test]
fn signatures_equal_the_brute_force_logs_at_every_site() {
    let e = env();
    let sim = FaultSim::new(&e.design, &e.ts.patterns);
    let sigs = check_signatures(&sim, &e.scan);
    for per_mode in &sigs {
        assert!(per_mode
            .iter()
            .any(|(_, s)| !s[0].is_empty() && !s[1].is_empty()));
    }
}

/// 200 random patterns: three full blocks and one of 8 lanes.
#[test]
fn a_partial_last_block_keeps_the_kernels_exact() {
    let e = env();
    let patterns = PatternSet::random(e.design.netlist(), 200, 5);
    let sim = FaultSim::new(&e.design, &patterns);
    let good = sim.good();
    assert_eq!(good.lanes(), [!0, !0, !0, 0xff]);
    let sigs = check_signatures(&sim, &e.scan);
    // Sites that fail in some blocks and are not activated in others, and
    // failures in the partial block: the lane masks and the mapping from
    // block to word both matter here.
    let last = good.block_count() as u32 - 1;
    for per_mode in &sigs {
        let mut some_blocks = 0;
        let mut in_last = 0;
        for (site, sig) in per_mode {
            let row = sim.good().transitions(site_net(&e.design, *site).index());
            let idle = row.contains(&0);
            for sig in sig {
                some_blocks += usize::from(idle && !sig.is_empty());
                in_last += sig.words().iter().filter(|w| w.block == last).count();
            }
        }
        assert!(some_blocks > 0, "a failing site is idle in some block");
        assert!(in_last > 0, "some signature fails in the partial block");
    }
    let mut det = sim.detector();
    let mut rng = StdRng::seed_from_u64(7);
    for k in [1, 2, 3, 4, 5].repeat(8) {
        let picks: Vec<Fault> = (0..k)
            .map(|_| e.detected[rng.gen_range(0..e.detected.len())])
            .collect();
        let dets = sim.detections(&mut det, &picks);
        assert_eq!(
            dets,
            brute_force_detections(&sim, &picks),
            "faults {picks:?}"
        );
        let par = m3d_par::with_threads(2, || sim.detections_par(&picks));
        assert_eq!(par, dets, "faults {picks:?}");
    }
}

/// Every site with its signatures, per mode of [`ObsMode::ALL`].
type SiteSignatures = [Vec<(SiteId, [Signature; 2])>; 2];

/// Every site's signatures, in each mode of [`ObsMode::ALL`], computed
/// once for the support bound's cases.
fn all_signatures() -> &'static SiteSignatures {
    static SIGS: OnceLock<SiteSignatures> = OnceLock::new();
    SIGS.get_or_init(|| {
        let e = env();
        let sim = FaultSim::new(&e.design, &e.ts.patterns);
        let mut det = sim.detector();
        ObsMode::ALL.map(|mode| {
            e.design
                .sites()
                .iter()
                .map(|(site, _)| (site, sim.signatures(&mut det, site, &e.scan, mode)))
                .collect()
        })
    })
}

/// On a fault's own single-fault log every failure is activated by its
/// polarity and explained by its signature, so the support bound is met
/// exactly; the other polarity activates none of those patterns.
#[test]
fn activation_support_is_tight_on_a_fault_s_own_log() {
    let e = env();
    let sim = FaultSim::new(&e.design, &e.ts.patterns);
    let mut det = sim.detector();
    let mut failing = 0;
    for (mode, sigs) in ObsMode::ALL.into_iter().zip(all_signatures()) {
        for (site, sig) in sigs {
            for (p, pol) in Polarity::ALL.into_iter().enumerate() {
                let dets = sim.detections(&mut det, &[Fault::new(*site, pol)]);
                let log = FailureLog::from_detections(&dets, &e.scan, mode);
                let own = Signature::from_log(&log, &e.ts.patterns);
                let support = sim.activation_support(*site, &own);
                assert_eq!(support[p], own.failures(), "{pol:?} at {site:?}, {mode:?}");
                assert_eq!(
                    sig[p].overlap(&own),
                    support[p],
                    "{pol:?} at {site:?}, {mode:?}"
                );
                assert_eq!(support[1 - p], 0, "{pol:?} at {site:?}, {mode:?}");
                failing += usize::from(!own.is_empty());
            }
        }
    }
    assert!(failing > 0, "some single-fault log fails");
}

/// A failure log regrouped into `(block, observation, lanes)` words, one
/// per `(block, observation)` with a failure, in key order.
fn log_words(log: &FailureLog) -> Vec<(u32, ObsPoint, u64)> {
    let mut words: BTreeMap<(u32, ObsPoint), u64> = BTreeMap::new();
    for e in log.entries() {
        *words.entry((e.pattern / 64, e.obs)).or_default() |= 1u64 << (e.pattern % 64);
    }
    words
        .into_iter()
        .map(|((b, obs), lanes)| (b, obs, lanes))
        .collect()
}

/// Entries naming no pattern or scan cell of the environment: a pattern
/// and a cell past every index, a cell one past the last, a pattern one
/// past the last, and a compacted observation on a channel that does not
/// exist.
fn junk_entries(e: &Env) -> [FailEntry; 4] {
    let flops = e.design.netlist().flops().len();
    [
        FailEntry {
            pattern: u32::MAX,
            obs: ObsPoint::Flop(FlopId::new(u32::MAX as usize)),
        },
        FailEntry {
            pattern: 3,
            obs: ObsPoint::Flop(FlopId::new(flops)),
        },
        FailEntry {
            pattern: e.ts.patterns.len() as u32,
            obs: ObsPoint::Flop(FlopId::new(0)),
        },
        FailEntry {
            pattern: 3,
            obs: ObsPoint::ChannelCycle {
                channel: 9999,
                cycle: 0,
            },
        },
    ]
}

/// Whether two of an observation's scan cells share a cone site.
fn cones_overlap(scan: &ScanChains, cones: &FaninCones, obs: ObsPoint) -> bool {
    let mut owner: HashMap<SiteId, FlopId> = HashMap::new();
    scan.candidate_flops(obs)
        .into_iter()
        .any(|f| cones.sites(f).any(|s| *owner.entry(s).or_insert(f) != f))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn active_site_counts_equal_the_per_entry_reference(
        seed in any::<u64>(),
        k in 1usize..6,
        compacted in any::<bool>(),
        junk in 0usize..5,
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
        let out_of_range = junk_entries(e).into_iter().take(junk);
        let log: FailureLog = clean.entries().iter().copied().chain(out_of_range).collect();

        let words = Signature::from_log(&log, &e.ts.patterns);
        let cones = e.design.fanin_cones();
        let got = sim.active_site_counts(&words, &e.scan, |f| cones.sites(f));
        let (want, entries) = reference_counts(&sim, &log, &e.scan, cones);
        prop_assert_eq!(got.entries, entries);
        prop_assert_eq!(got.entries as usize, clean.len());
        let distinct: HashSet<ObsPoint> = clean.entries().iter().map(|x| x.obs).collect();
        prop_assert_eq!(got.obs_points as usize, distinct.len());
        let got_map: HashMap<SiteId, u32> = got.sites.iter().copied().collect();
        prop_assert_eq!(got_map.len(), got.sites.len(), "each site listed once");
        prop_assert_eq!(got_map, want);
    }

    #[test]
    fn detections_equal_the_brute_force_faulty_machine(
        kind in 0usize..4,
        k in 2usize..6,
        seed in any::<u64>(),
    ) {
        let e = env();
        let sim = FaultSim::new(&e.design, &e.ts.patterns);
        let mut rng = StdRng::seed_from_u64(seed);
        // Kinds 0–2: one site of that kind, both polarities in turn.
        // Kind 3: 2–5 detected faults at once.
        let injections: Vec<Vec<Fault>> = if kind < 3 {
            let sites = &e.sites_by_kind[kind];
            let site = sites[rng.gen_range(0..sites.len())];
            Polarity::ALL.map(|p| vec![Fault::new(site, p)]).to_vec()
        } else {
            vec![(0..k).map(|_| e.detected[rng.gen_range(0..e.detected.len())]).collect()]
        };
        let mut det = sim.detector();
        for faults in injections {
            prop_assert_eq!(
                sim.detections(&mut det, &faults),
                brute_force_detections(&sim, &faults),
                "faults {:?}",
                faults
            );
        }
    }

    #[test]
    fn activation_support_bounds_every_signature_overlap(
        seed in any::<u64>(),
        k in 1usize..6,
        compacted in any::<bool>(),
        junk in 0usize..5,
    ) {
        let e = env();
        let sim = FaultSim::new(&e.design, &e.ts.patterns);
        let mut rng = StdRng::seed_from_u64(seed);
        let picks: Vec<Fault> = (0..k)
            .map(|_| e.detected[rng.gen_range(0..e.detected.len())])
            .collect();
        let mode = ObsMode::ALL[usize::from(compacted)];
        let dets = sim.detections(&mut sim.detector(), &picks);
        let log: FailureLog = FailureLog::from_detections(&dets, &e.scan, mode)
            .entries()
            .iter()
            .copied()
            .chain(junk_entries(e).into_iter().take(junk))
            .collect();
        let words = Signature::from_log(&log, &e.ts.patterns);
        for (site, sig) in &all_signatures()[usize::from(compacted)] {
            let support = sim.activation_support(*site, &words);
            for (p, pol) in Polarity::ALL.into_iter().enumerate() {
                prop_assert!(
                    sig[p].overlap(&words) <= support[p],
                    "{:?} at {:?}: overlap {} > support {}",
                    pol,
                    site,
                    sig[p].overlap(&words),
                    support[p]
                );
            }
        }
    }
}
