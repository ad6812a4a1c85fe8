//! The heterogeneous graph of Section III-A.
//!
//! *Circuit level*: every fault site (gate pin) is a node, plus one node
//! per MIV; edges are input-pin→output-pin connections inside gates and
//! net-stem→branch connections (routed through the MIV node for far-tier
//! branches of cut nets).
//!
//! *Top level*: one Topnode per observation point (scan-flop D input),
//! connected by a Topedge to every circuit-level node in its fan-in cone.
//! Topedge features — shortest-path length and MIVs passed through — are
//! computed during the same BFS that collects the cone, so construction is
//! `O(|V| + |E|)` per Topnode, built once and reused for every failure log.

use m3d_netlist::{FlopId, GateKind, SiteId, SitePos};
use m3d_part::{M3dDesign, Tier};

/// One Topedge: a cone member of some Topnode with its path features.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopEdge {
    /// The circuit-level node the Topnode connects to.
    pub site: SiteId,
    /// Shortest-path length from the site to the observation point.
    pub dist: u32,
    /// Number of MIV nodes on that shortest path.
    pub mivs: u16,
}

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
    node_count: usize,
    /// Directed circuit-level edges in CSR (successor) form.
    out_offsets: Vec<u32>,
    out_edges: Vec<u32>,
    /// Directed predecessor CSR.
    in_offsets: Vec<u32>,
    in_edges: Vec<u32>,
    /// Topedge CSR offsets, one per Topnode (flop) plus a tail: the
    /// Topedges of flop `f` are `topedges[top_offsets[f]..top_offsets[f+1]]`.
    top_offsets: Vec<u32>,
    /// Flat Topedge storage (cone + path features), grouped by flop.
    topedges: Vec<TopEdge>,
    /// Per-site static features.
    features: Vec<SiteFeatures>,
    /// Design-level normalizers for feature scaling.
    max_level: f32,
    max_dist: f32,
    flop_count: usize,
}

impl HetGraph {
    /// Builds the heterogeneous graph for a design.
    pub fn new(design: &M3dDesign) -> Self {
        let nl = design.netlist();
        let sites = design.sites();
        let n = sites.len();

        // --- Circuit-level directed edges ---
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut push = |a: SiteId, b: SiteId| {
            edges.push((a.0, b.0));
        };
        for (gi, gate) in nl.gates().iter().enumerate() {
            let g = m3d_netlist::GateId::new(gi);
            // input pins -> output pin (inside the gate)
            if let Some(out_site) = sites.output_site(nl, g) {
                for pin in 0..gate.inputs().len() {
                    push(sites.input_site(g, pin as u8), out_site);
                }
            }
        }
        for (ni, net) in nl.nets().iter().enumerate() {
            let net_id = m3d_netlist::NetId::new(ni);
            let stem = sites
                .output_site(nl, net.driver())
                .expect("net drivers have output sites");
            let miv = design.miv_on_net(net_id);
            let driver_tier = design.tier_of_gate(net.driver());
            if let Some(m) = miv {
                push(stem, design.miv_site(m as usize));
            }
            for &(sink, pin) in net.sinks() {
                let branch = sites.input_site(sink, pin);
                match miv {
                    Some(m) if design.tier_of_gate(sink) != driver_tier => {
                        push(design.miv_site(m as usize), branch);
                    }
                    _ => push(stem, branch),
                }
            }
        }
        let (out_offsets, out_edges) = to_csr(n, &edges, false);
        let (in_offsets, in_edges) = to_csr(n, &edges, true);

        // --- Site levels ---
        let level_of = |site: SiteId| -> u32 {
            match sites.pos(site) {
                SitePos::Output(g) => nl.level(g),
                SitePos::Input(g, pin) => {
                    let net = nl.gate(g).inputs()[pin as usize];
                    nl.level(nl.net(net).driver())
                }
                SitePos::Miv(m) => nl.level(nl.net(design.mivs()[m as usize].net).driver()),
            }
        };

        // --- Topnodes: backward BFS per flop over predecessor edges ---
        // Cones are appended to one flat CSR-style store (offsets + flat
        // storage) instead of one `Vec` per flop.
        let mut top_offsets: Vec<u32> = Vec::with_capacity(nl.flops().len() + 1);
        top_offsets.push(0);
        let mut topedges: Vec<TopEdge> = Vec::new();
        let mut dist = vec![u32::MAX; n];
        let mut mivs = vec![0u16; n];
        let mut touched: Vec<u32> = Vec::new();
        for &fg in nl.flops() {
            let root = sites.input_site(fg, 0);
            let mut queue = std::collections::VecDeque::new();
            dist[root.index()] = 0;
            mivs[root.index()] = 0;
            touched.push(root.0);
            queue.push_back(root.0);
            while let Some(v) = queue.pop_front() {
                let vi = v as usize;
                topedges.push(TopEdge {
                    site: SiteId(v),
                    dist: dist[vi],
                    mivs: mivs[vi],
                });
                // Stop traversal at sequential boundaries: a flop's Q pin
                // is in the cone, but nothing behind the flop is.
                if let SitePos::Output(g) = sites.pos(SiteId(v)) {
                    if !nl.gate(g).kind().is_combinational() {
                        continue;
                    }
                }
                for &u in csr_row(&in_offsets, &in_edges, vi) {
                    let ui = u as usize;
                    if dist[ui] != u32::MAX {
                        continue;
                    }
                    dist[ui] = dist[vi] + 1;
                    let is_miv = matches!(sites.pos(SiteId(u)), SitePos::Miv(_));
                    mivs[ui] = mivs[vi] + u16::from(is_miv);
                    touched.push(u);
                    queue.push_back(u);
                }
            }
            for &t in &touched {
                dist[t as usize] = u32::MAX;
                mivs[t as usize] = 0;
            }
            touched.clear();
            top_offsets.push(topedges.len() as u32);
        }

        // --- Per-site features ---
        let mut features: Vec<SiteFeatures> = (0..n)
            .map(|i| {
                let site = SiteId::new(i);
                let pos = sites.pos(site);
                SiteFeatures {
                    fan_in: (in_offsets[i + 1] - in_offsets[i]) as u16,
                    fan_out: (out_offsets[i + 1] - out_offsets[i]) as u16,
                    top_edges: 0,
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
        // Topedge aggregates per site.
        let mut sum_d = vec![0.0f64; n];
        let mut sum_d2 = vec![0.0f64; n];
        let mut sum_m = vec![0.0f64; n];
        let mut sum_m2 = vec![0.0f64; n];
        let mut max_dist = 1.0f32;
        for te in &topedges {
            let i = te.site.index();
            features[i].top_edges += 1;
            sum_d[i] += f64::from(te.dist);
            sum_d2[i] += f64::from(te.dist) * f64::from(te.dist);
            sum_m[i] += f64::from(te.mivs);
            sum_m2[i] += f64::from(te.mivs) * f64::from(te.mivs);
            max_dist = max_dist.max(te.dist as f32);
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
            node_count: n,
            out_offsets,
            out_edges,
            in_offsets,
            in_edges,
            top_offsets,
            topedges,
            features,
            max_level,
            max_dist,
            flop_count: nl.flops().len(),
        }
    }

    /// Number of circuit-level nodes (pin sites + MIV sites).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Successor sites of `site` in the circuit-level graph.
    #[inline]
    pub fn successors(&self, site: SiteId) -> &[u32] {
        csr_row(&self.out_offsets, &self.out_edges, site.index())
    }

    /// Predecessor sites of `site`.
    #[inline]
    pub fn predecessors(&self, site: SiteId) -> &[u32] {
        csr_row(&self.in_offsets, &self.in_edges, site.index())
    }

    /// The Topedges of a Topnode (one per fan-in cone member).
    #[inline]
    pub fn topedges(&self, flop: FlopId) -> &[TopEdge] {
        let f = flop.index();
        &self.topedges[self.top_offsets[f] as usize..self.top_offsets[f + 1] as usize]
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

fn to_csr(n: usize, edges: &[(u32, u32)], reverse: bool) -> (Vec<u32>, Vec<u32>) {
    let mut counts = vec![0u32; n + 1];
    for &(a, b) in edges {
        let src = if reverse { b } else { a };
        counts[src as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let mut out = vec![0u32; edges.len()];
    let mut cursor = counts.clone();
    for &(a, b) in edges {
        let (src, dst) = if reverse { (b, a) } else { (a, b) };
        out[cursor[src as usize] as usize] = dst;
        cursor[src as usize] += 1;
    }
    (counts, out)
}

#[inline]
fn csr_row<'a>(offsets: &[u32], edges: &'a [u32], i: usize) -> &'a [u32] {
    &edges[offsets[i] as usize..offsets[i + 1] as usize]
}

// GateKind used via is_combinational in cone construction.
const _: fn(GateKind) -> bool = GateKind::is_combinational;

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::generate::Benchmark;
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
    fn csr_directions_are_inverse() {
        let (_, g) = graph();
        for v in 0..g.node_count() {
            for &s in g.successors(SiteId::new(v)) {
                assert!(
                    g.predecessors(SiteId::new(s as usize))
                        .contains(&(v as u32)),
                    "edge {v}->{s} missing reverse"
                );
            }
        }
    }

    #[test]
    fn miv_nodes_sit_between_stem_and_far_branches() {
        let (d, g) = graph();
        assert!(d.miv_count() > 0);
        for m in 0..d.miv_count() {
            let site = d.miv_site(m);
            assert!(
                !g.predecessors(site).is_empty(),
                "MIV has a stem predecessor"
            );
            assert!(!g.successors(site).is_empty(), "MIV feeds far branches");
        }
    }

    #[test]
    fn topedges_start_at_zero_distance_and_count_mivs() {
        let (d, g) = graph();
        let nl = d.netlist();
        for (fi, _) in nl.flops().iter().enumerate() {
            let cone = g.topedges(FlopId::new(fi));
            assert!(!cone.is_empty());
            assert_eq!(cone[0].dist, 0, "root observes itself at distance 0");
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
