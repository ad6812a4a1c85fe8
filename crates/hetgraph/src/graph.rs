//! The heterogeneous graph of Section III-A.
//!
//! *Circuit level*: every fault site (gate pin) is a node, plus one node
//! per MIV; edges are input-pin→output-pin connections inside gates and
//! net-stem→branch connections (routed through the MIV node for far-tier
//! branches of cut nets).
//!
//! *Top level*: one Topnode per observation point (scan-flop D input),
//! connected by a Topedge to every circuit-level node in its fan-in cone.
//! The Topedges, with their shortest-path lengths and MIV counts, are the
//! path entries of the design's cone index ([`M3dDesign::fanin_cones`]),
//! built once per design in `O(|V| + |E|)` per Topnode.

use m3d_netlist::{FlopId, SiteId, SitePos};
use m3d_part::{FaninCones, M3dDesign, Tier, TopEdge};

/// Per-site static features (Table I, circuit-level rows).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SiteFeatures {
    /// Fan-in edge count in the circuit-level graph (`N_fi`).
    pub fan_in: u16,
    /// Fan-out edge count (`N_fo`).
    pub fan_out: u16,
    /// Number of Topedges connected (`N_top`).
    pub top_edges: u32,
    /// Tier encoding: 0 = top, 1 = bottom, 0.5 = MIV (no tier).
    pub tier: f32,
    /// Topological level of the value at this site (`Lvl`).
    pub level: u32,
    /// Whether the site is a gate output pin (`Out`).
    pub is_output: bool,
    /// Whether the site connects to an MIV (`MIV`).
    pub touches_miv: bool,
    /// Mean shortest-path length over connected Topedges.
    pub mean_dist: f32,
    /// Standard deviation of those lengths.
    pub std_dist: f32,
    /// Mean MIV count over connected Topedges.
    pub mean_mivs: f32,
    /// Standard deviation of those MIV counts.
    pub std_mivs: f32,
}

/// The heterogeneous graph of one M3D design under one scan architecture.
///
/// # Examples
///
/// ```
/// use m3d_netlist::generate::Benchmark;
/// use m3d_part::DesignConfig;
/// use m3d_hetgraph::HetGraph;
///
/// let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
/// let graph = HetGraph::new(&design);
/// assert_eq!(graph.node_count(), design.sites().len());
/// ```
#[derive(Clone, Debug)]
pub struct HetGraph {
    /// Directed circuit-level edges in CSR (successor) form.
    out_offsets: Vec<u32>,
    out_edges: Vec<u32>,
    /// The design's cone index; its path entries are the Topedges.
    cones: std::sync::Arc<FaninCones>,
    /// Per-site static features.
    features: Vec<SiteFeatures>,
    /// Design-level normalizers for feature scaling.
    max_level: f32,
    max_dist: f32,
    flop_count: usize,
}

impl HetGraph {
    /// Builds the heterogeneous graph for a design (and its cone index).
    pub fn new(design: &M3dDesign) -> Self {
        let nl = design.netlist();
        let sites = design.sites();
        let n = sites.len();

        // --- Circuit-level directed edges ---
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (gi, gate) in nl.gates().iter().enumerate() {
            let g = m3d_netlist::GateId::new(gi);
            // input pins -> output pin (inside the gate)
            if let Some(out_site) = sites.output_site(nl, g) {
                for pin in 0..gate.inputs().len() {
                    edges.push((sites.input_site(g, pin as u8).0, out_site.0));
                }
            }
        }
        // Per net: the stem to its MIV, then each branch from its driving
        // site (the MIV for far-tier branches of a cut net).
        for (ni, net) in nl.nets().iter().enumerate() {
            let miv = design.miv_on_net(m3d_netlist::NetId::new(ni));
            let miv = miv.map(|m| design.miv_site(m as usize));
            let branches = net.sinks().iter().map(|&(g, pin)| sites.input_site(g, pin));
            for site in miv.into_iter().chain(branches) {
                edges.push((design.driving_site(site).0, site.0));
            }
        }
        let (out_offsets, out_edges) = to_csr(n, &edges);

        // --- Site levels: a pin or MIV carries its stem's value ---
        let level_of = |mut site: SiteId| loop {
            match sites.pos(site) {
                SitePos::Output(g) => break nl.level(g),
                _ => site = design.driving_site(site),
            }
        };

        // --- Per-site features ---
        let mut features: Vec<SiteFeatures> = (0..n)
            .map(|i| {
                let site = SiteId::new(i);
                let pos = sites.pos(site);
                SiteFeatures {
                    fan_out: (out_offsets[i + 1] - out_offsets[i]) as u16,
                    tier: match design.tier_of_site(site) {
                        Some(Tier::Top) => 0.0,
                        Some(Tier::Bottom) => 1.0,
                        None => 0.5,
                    },
                    level: level_of(site),
                    is_output: matches!(pos, SitePos::Output(_)),
                    touches_miv: design.site_touches_miv(site),
                    ..SiteFeatures::default()
                }
            })
            .collect();
        for &(_, b) in &edges {
            features[b as usize].fan_in += 1;
        }
        // Topedge aggregates per site.
        let cones = design.fanin_cones().clone();
        let mut sum_d = vec![0.0f64; n];
        let mut sum_d2 = vec![0.0f64; n];
        let mut sum_m = vec![0.0f64; n];
        let mut sum_m2 = vec![0.0f64; n];
        let mut max_dist = 1.0f32;
        for flop in 0..nl.flops().len() {
            for te in cones.paths(FlopId::new(flop)) {
                let i = te.site.index();
                features[i].top_edges += 1;
                sum_d[i] += f64::from(te.dist);
                sum_d2[i] += f64::from(te.dist) * f64::from(te.dist);
                sum_m[i] += f64::from(te.mivs);
                sum_m2[i] += f64::from(te.mivs) * f64::from(te.mivs);
                max_dist = max_dist.max(te.dist as f32);
            }
        }
        for (i, f) in features.iter_mut().enumerate() {
            let c = f64::from(f.top_edges);
            if c > 0.0 {
                let md = sum_d[i] / c;
                let mm = sum_m[i] / c;
                f.mean_dist = md as f32;
                f.std_dist = ((sum_d2[i] / c - md * md).max(0.0)).sqrt() as f32;
                f.mean_mivs = mm as f32;
                f.std_mivs = ((sum_m2[i] / c - mm * mm).max(0.0)).sqrt() as f32;
            }
        }

        let max_level = nl.stats().depth.max(1) as f32;
        HetGraph {
            out_offsets,
            out_edges,
            cones,
            features,
            max_level,
            max_dist,
            flop_count: nl.flops().len(),
        }
    }

    /// Number of circuit-level nodes (pin sites + MIV sites).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Successor sites of `site` in the circuit-level graph.
    #[inline]
    pub fn successors(&self, site: SiteId) -> &[u32] {
        let i = site.index();
        &self.out_edges[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    /// The Topedges of a Topnode (one per fan-in cone member), sorted by
    /// site.
    #[inline]
    pub fn topedges(&self, flop: FlopId) -> &[TopEdge] {
        self.cones.paths(flop)
    }

    /// Static features of a site.
    #[inline]
    pub fn site_features(&self, site: SiteId) -> &SiteFeatures {
        &self.features[site.index()]
    }

    /// Design-level normalizers: `(max level, max Topedge distance, flops)`.
    pub fn normalizers(&self) -> (f32, f32, usize) {
        (self.max_level, self.max_dist, self.flop_count)
    }

    /// Total circuit-level edge count.
    pub fn edge_count(&self) -> usize {
        self.out_edges.len()
    }
}

/// The successor CSR of a directed edge list: offsets per source plus a
/// tail, and targets grouped by source in edge-list order.
fn to_csr(n: usize, edges: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut counts = vec![0u32; n + 1];
    for &(a, _) in edges {
        counts[a as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let mut out = vec![0u32; edges.len()];
    let mut cursor = counts.clone();
    for &(a, b) in edges {
        out[cursor[a as usize] as usize] = b;
        cursor[a as usize] += 1;
    }
    (counts, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::generate::Benchmark;
    use m3d_netlist::GateKind;
    use m3d_part::DesignConfig;

    fn graph() -> (M3dDesign, HetGraph) {
        let d = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let g = HetGraph::new(&d);
        (d, g)
    }

    #[test]
    fn every_site_is_a_node() {
        let (d, g) = graph();
        assert_eq!(g.node_count(), d.sites().len());
        assert!(g.edge_count() > g.node_count());
    }

    #[test]
    fn miv_nodes_sit_between_stem_and_far_branches() {
        let (d, g) = graph();
        let nl = d.netlist();
        assert!(d.miv_count() > 0);
        for (m, miv) in d.mivs().iter().enumerate() {
            let site = d.miv_site(m);
            let stem = d.sites().output_site(nl, nl.net(miv.net).driver()).unwrap();
            assert!(g.successors(stem).contains(&site.0), "stem feeds its MIV");
            assert_eq!(
                g.site_features(site).fan_in,
                1,
                "the stem is its only fan-in"
            );
            let mut far: Vec<u32> = d
                .far_sinks(m as u32)
                .into_iter()
                .map(|(gate, pin)| d.sites().input_site(gate, pin).0)
                .collect();
            far.sort_unstable();
            let mut succ = g.successors(site).to_vec();
            succ.sort_unstable();
            assert_eq!(succ, far, "MIV {m} feeds exactly its far branches");
        }
    }

    #[test]
    fn topedges_start_at_zero_distance_and_count_mivs() {
        let (d, g) = graph();
        let nl = d.netlist();
        for (fi, &fg) in nl.flops().iter().enumerate() {
            let cone = g.topedges(FlopId::new(fi));
            let roots: Vec<SiteId> = cone
                .iter()
                .filter(|te| te.dist == 0)
                .map(|te| te.site)
                .collect();
            assert_eq!(
                roots,
                [d.sites().input_site(fg, 0)],
                "only the root observes itself at distance 0"
            );
            for te in cone {
                assert!(u32::from(te.mivs) <= te.dist);
            }
        }
    }

    #[test]
    fn cone_stops_behind_flops() {
        let (d, g) = graph();
        let nl = d.netlist();
        // No cone may contain an input pin of another flop beyond depth 0
        // unless it *is* the root (cones stop at Q pins).
        for (fi, _) in nl.flops().iter().enumerate() {
            for te in g.topedges(FlopId::new(fi)) {
                if te.dist == 0 {
                    continue;
                }
                if let SitePos::Input(gate, _) = d.sites().pos(te.site) {
                    assert!(
                        nl.gate(gate).kind() != GateKind::Dff,
                        "cone crossed a sequential boundary"
                    );
                }
            }
        }
    }

    #[test]
    fn features_are_populated() {
        let (d, g) = graph();
        let mut any_top = false;
        let mut any_miv = false;
        for (site, _) in d.sites().iter() {
            let f = g.site_features(site);
            if f.top_edges > 0 {
                any_top = true;
                assert!(f.mean_dist >= 0.0);
            }
            if f.touches_miv {
                any_miv = true;
            }
            assert!(f.tier == 0.0 || f.tier == 1.0 || f.tier == 0.5);
        }
        assert!(any_top && any_miv);
    }
}
