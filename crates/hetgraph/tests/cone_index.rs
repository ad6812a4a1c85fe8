//! The oracle for the per-design fan-in cone index
//! ([`m3d_part::FaninCones`]), on AES-300 and on the four archetypes at
//! their default size. For every flop's row:
//!
//! - its path entries, which are the flop's Topedges, equal as
//!   `(site, dist, mivs)` a BFS over the reverse of
//!   [`HetGraph::successors`] from the D pin, sorted by site; the D pin is
//!   the one entry at distance 0;
//! - its whole row equals, as a set, the structural cone a per-net DFS
//!   collects: the D pin, and every gate output, input pin and MIV behind
//!   it up to the sequential boundary;
//! - every entry after the path entries is an MIV site, both parts of the
//!   row are sorted by site, and no site repeats.
//!
//! Across the graph, each site's `fan_in` feature equals the number of
//! sites that list it as a successor.

use std::collections::{HashSet, VecDeque};

use m3d_hetgraph::{HetGraph, TopEdge};
use m3d_netlist::generate::Benchmark;
use m3d_netlist::{FlopId, SiteId, SitePos};
use m3d_part::{DesignConfig, M3dDesign};

/// The Topedges of a flop by BFS from its D pin over `preds`, stopping at
/// the outputs of non-combinational gates, in discovery order; a site's
/// MIV count is the one on the first shortest path found.
fn reference_topedges(design: &M3dDesign, preds: &[Vec<u32>], flop: FlopId) -> Vec<TopEdge> {
    let nl = design.netlist();
    let root = design.sites().input_site(nl.flops()[flop.index()], 0);
    let mut dist = vec![u32::MAX; preds.len()];
    let mut mivs = vec![0u16; preds.len()];
    let mut out = Vec::new();
    let mut queue = VecDeque::from([root.0]);
    dist[root.index()] = 0;
    while let Some(v) = queue.pop_front() {
        let vi = v as usize;
        out.push(TopEdge {
            site: SiteId(v),
            dist: dist[vi],
            mivs: mivs[vi],
        });
        if let SitePos::Output(g) = design.sites().pos(SiteId(v)) {
            if !nl.gate(g).kind().is_combinational() {
                continue;
            }
        }
        for &u in &preds[vi] {
            let ui = u as usize;
            if dist[ui] != u32::MAX {
                continue;
            }
            dist[ui] = dist[vi] + 1;
            let is_miv = matches!(design.sites().pos(SiteId(u)), SitePos::Miv(_));
            mivs[ui] = mivs[vi] + u16::from(is_miv);
            queue.push_back(u);
        }
    }
    out
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

/// Checks every row of the design's index against the references and
/// returns the number of MIV-only entries seen.
fn check(design: &M3dDesign) -> usize {
    let het = HetGraph::new(design);
    let n = het.node_count();
    // Predecessors in ascending site order, which is the pin order of a
    // gate's input sites.
    let mut preds = vec![Vec::new(); n];
    for v in 0..n {
        for &s in het.successors(SiteId::new(v)) {
            preds[s as usize].push(v as u32);
        }
    }
    for (site, p) in preds.iter().enumerate() {
        let fan_in = het.site_features(SiteId::new(site)).fan_in;
        assert_eq!(usize::from(fan_in), p.len(), "fan-in of site {site}");
    }

    let nl = design.netlist();
    let cones = design.fanin_cones();
    let mut miv_only = 0;
    for (f, &fg) in nl.flops().iter().enumerate() {
        let flop = FlopId::new(f);
        let paths = het.topedges(flop);
        assert_eq!(paths, cones.paths(flop));
        let mut want = reference_topedges(design, &preds, flop);
        want.sort_unstable_by_key(|te| te.site);
        assert_eq!(paths, want.as_slice(), "flop {f}: Topedges");
        let roots: Vec<TopEdge> = paths.iter().filter(|te| te.dist == 0).copied().collect();
        let d_pin = TopEdge {
            site: design.sites().input_site(fg, 0),
            dist: 0,
            mivs: 0,
        };
        assert_eq!(roots, [d_pin], "flop {f}: the D pin is the one root");

        let row: Vec<SiteId> = cones.sites(flop).collect();
        let (path_sites, miv_sites) = row.split_at(paths.len());
        for part in [path_sites, miv_sites] {
            assert!(
                part.windows(2).all(|w| w[0] < w[1]),
                "flop {f}: a row part is not sorted by site"
            );
        }
        for &site in miv_sites {
            assert!(
                matches!(design.sites().pos(site), SitePos::Miv(_)),
                "flop {f}: MIV-only entry {site:?} is not an MIV"
            );
        }
        miv_only += miv_sites.len();
        let set: HashSet<SiteId> = row.iter().copied().collect();
        assert_eq!(set.len(), row.len(), "flop {f}: a site repeats");
        let want: HashSet<SiteId> = fan_in_cone(design, flop).into_iter().collect();
        assert_eq!(set, want, "flop {f}: row against the structural cone");
    }
    miv_only
}

#[test]
fn aes_300_cone_index_matches_its_references() {
    check(&DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300)));
}

#[test]
fn archetype_cone_indexes_match_their_references() {
    let miv_only: usize = Benchmark::ALL
        .into_iter()
        .map(|bench| check(&DesignConfig::Syn1.build(bench)))
        .sum();
    assert!(miv_only > 0, "some row has MIV-only entries");
}
