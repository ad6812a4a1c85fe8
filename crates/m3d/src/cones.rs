//! Per-flop fan-in cones: the top level of the heterogeneous graph
//! (Section III-A), built once per design and read by both diagnosis and
//! back-tracing (Fig. 3).

use m3d_netlist::{FlopId, SiteId, SitePos};

use crate::design::M3dDesign;

/// One Topedge: a member of an observation point's fan-in cone, with the
/// features of the first shortest path the cone walk found to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopEdge {
    /// The circuit-level node the Topnode connects to.
    pub site: SiteId,
    /// Shortest-path length from the site to the observation point.
    pub dist: u32,
    /// Number of MIV nodes on that shortest path.
    pub mivs: u16,
}

/// The fan-in cone of every scan flop, one row per flop, in CSR form.
///
/// A row holds the flop's *path entries* first: one [`TopEdge`] per site
/// with a path to the flop's D pin in the heterogeneous graph, the D pin
/// included at distance 0. Its *MIV-only entries* follow: the MIV site of
/// every cut net whose stem is a path entry, when none of the net's
/// far-tier branches is. No path leads from such an MIV to the flop, but
/// its net is in the flop's structural cone, so diagnosis lists it as a
/// suspect. Both parts are sorted by site, and no site repeats in a row.
///
/// [`M3dDesign::fanin_cones`] builds the index and caches it.
#[derive(Debug)]
pub struct FaninCones {
    /// Flop `f`'s row is `entries[bounds[2f]..bounds[2f + 2]]` and its
    /// path entries `entries[bounds[2f]..bounds[2f + 1]]`. MIV-only
    /// entries have no path, so their `dist` and `mivs` are unused.
    bounds: Vec<u32>,
    entries: Vec<TopEdge>,
}

impl FaninCones {
    /// Walks every flop's cone: one BFS per flop from its D pin, backward
    /// over the heterogeneous graph's edges. A combinational gate's output
    /// pin steps to its input pins in pin order, and an input pin or MIV
    /// site to its [`M3dDesign::driving_site`]. The walk stops at the
    /// outputs of flops and primary inputs.
    ///
    /// A site's [`TopEdge::mivs`] counts the MIVs on the first shortest
    /// path this order finds, so the order is part of the result; each row
    /// is sorted by site after its walk.
    pub fn new(design: &M3dDesign) -> Self {
        let nl = design.netlist();
        let sites = design.sites();
        let mut bounds = vec![0];
        let mut entries: Vec<TopEdge> = Vec::new();
        // Per site, the last flop whose walk reached it.
        let mut reached = vec![u32::MAX; sites.len()];
        for (f, &fg) in (0u32..).zip(nl.flops()) {
            let start = entries.len();
            let root = sites.input_site(fg, 0);
            reached[root.index()] = f;
            entries.push(TopEdge {
                site: root,
                dist: 0,
                mivs: 0,
            });
            // The row doubles as the BFS queue.
            let mut head = start;
            while let Some(&from) = entries.get(head) {
                head += 1;
                let mut step = |site: SiteId| {
                    if std::mem::replace(&mut reached[site.index()], f) != f {
                        let miv = matches!(sites.pos(site), SitePos::Miv(_));
                        entries.push(TopEdge {
                            site,
                            dist: from.dist + 1,
                            mivs: from.mivs + u16::from(miv),
                        });
                    }
                };
                match sites.pos(from.site) {
                    SitePos::Output(g) => {
                        if nl.gate(g).kind().is_combinational() {
                            for pin in 0..nl.gate(g).inputs().len() {
                                step(sites.input_site(g, pin as u8));
                            }
                        }
                    }
                    _ => step(design.driving_site(from.site)),
                }
            }
            let path_end = entries.len();
            for i in start..path_end {
                let SitePos::Output(g) = sites.pos(entries[i].site) else {
                    continue;
                };
                let cut = nl.gate(g).output().and_then(|n| design.miv_on_net(n));
                if let Some(site) = cut.map(|m| design.miv_site(m as usize)) {
                    if reached[site.index()] != f {
                        entries.push(TopEdge { site, ..entries[i] });
                    }
                }
            }
            // Site order keeps the per-log walks over a row close to
            // sequential in their per-site arrays.
            entries[start..path_end].sort_unstable_by_key(|te| te.site);
            entries[path_end..].sort_unstable_by_key(|te| te.site);
            bounds.extend([path_end as u32, entries.len() as u32]);
        }
        FaninCones { bounds, entries }
    }

    /// The path entries of a flop's row: its Topedges, sorted by site.
    #[inline]
    pub fn paths(&self, flop: FlopId) -> &[TopEdge] {
        let f = 2 * flop.index();
        &self.entries[self.bounds[f] as usize..self.bounds[f + 1] as usize]
    }

    /// Every site in a flop's row: its path entries, then its MIV-only
    /// entries.
    pub fn sites(&self, flop: FlopId) -> impl Iterator<Item = SiteId> + '_ {
        let f = 2 * flop.index();
        let row = &self.entries[self.bounds[f] as usize..self.bounds[f + 2] as usize];
        row.iter().map(|te| te.site)
    }
}
