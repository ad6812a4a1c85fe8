//! Back-tracing (Fig. 3) and sub-graph extraction with Table II features.

use std::collections::HashMap;

use m3d_dft::ScanChains;
use m3d_gnn::{GcnGraph, GraphData, Matrix};
use m3d_netlist::{SiteId, SitePos};
use m3d_tdf::{FailureLog, FaultSim, Signature};

use crate::graph::HetGraph;

/// Number of node features (the 13 rows of the paper's Table II).
pub const FEATURE_DIM: usize = 13;

/// Human-readable names of the Table II features, in column order.
pub const FEATURE_NAMES: [&str; FEATURE_DIM] = [
    "fan-in edges (circuit)",
    "fan-out edges (circuit)",
    "topedges connected",
    "tier-level location",
    "level in topological order",
    "is gate output",
    "connects to MIV",
    "fan-in edges (sub-graph)",
    "fan-out edges (sub-graph)",
    "mean topedge length",
    "std topedge length",
    "mean topedge MIV count",
    "std topedge MIV count",
];

/// A homogeneous sub-graph extracted by back-tracing, ready for the GNN
/// models: node list, induced topology, and the Table II feature matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct SubGraph {
    /// The fault sites retained by back-tracing, ascending.
    pub sites: Vec<SiteId>,
    /// Node features + induced topology for the GCN.
    pub data: GraphData,
    /// MIV nodes within the sub-graph: `(node index, MIV index)`.
    pub miv_nodes: Vec<(usize, u32)>,
}

impl SubGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.sites.len()
    }

    /// The node index of a site, if present.
    pub fn node_of(&self, site: SiteId) -> Option<usize> {
        self.sites.binary_search(&site).ok()
    }

    /// Synthesizes a minority-class sample by appending a dummy buffer at
    /// the output of `node` (the paper's graph oversampling: the circuit
    /// function is unchanged, the topology is perturbed).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn with_dummy_buffer(&self, node: usize) -> SubGraph {
        assert!(node < self.node_count(), "node {node} out of range");
        let n = self.node_count();
        let g = &self.data.graph;
        // New node takes over `node`'s outgoing neighbourhood.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for v in 0..n {
            for &u in g.neighbors(v) {
                let u = u as usize;
                if u <= v {
                    continue; // undirected: visit each pair once
                }
                edges.push((v, u));
            }
        }
        edges.push((node, n)); // buffer hangs off the node
        let mut feats = Matrix::zeros(n + 1, self.data.features.cols());
        for r in 0..n {
            feats.row_mut(r).copy_from_slice(self.data.features.row(r));
        }
        // The buffer inherits locality from its driver but is a fresh
        // single-input single-output gate output.
        let src: Vec<f32> = self.data.features.row(node).to_vec();
        let buf = feats.row_mut(n);
        buf.copy_from_slice(&src);
        buf[0] = 1.0 / 4.0; // one fan-in edge (normalized like extract())
        buf[5] = 1.0; // is a gate output
        SubGraph {
            sites: self.sites.clone(),
            data: GraphData::new(GcnGraph::from_edges(n + 1, &edges), feats),
            miv_nodes: self.miv_nodes.clone(),
        }
    }
}

/// The back-tracing algorithm of Fig. 3: intersects, over every erroneous
/// response, the transition-active fan-in cones of the response's
/// Topnodes; extracts the induced circuit-level sub-graph.
///
/// Log entries naming a pattern or scan cell that does not exist are
/// skipped. The rest pick the sub-graph's sites by one of two paths:
///
/// - **Intersection** (Fig. 3, line 11), always tried first:
///   [`FaultSim::active_site_intersection`] over the Topedges, the sites in
///   a cone of every failing observation point that transition in every
///   failing lane. When it is not empty, it is the site set. Every
///   single-fault log takes this path, since its fault site is in it.
/// - **Count**, only when the intersection is empty — no single site
///   explains every response, as on most multi-fault chips:
///   [`FaultSim::active_site_counts`] over the same Topedges, keeping the
///   sites whose count reaches `min(c_max, entries)`, the highest count.
///
/// Both paths select the same sites as the count alone would: no count
/// exceeds `entries`, and a site's count equals `entries` exactly when the
/// site is in the intersection. Returns `None` only when no site
/// transitions in any failing lane of a remaining entry, which includes a
/// log with no entry left.
///
/// Records a `back_trace` span with counters `obs_points`, `entries`,
/// `sites` and `counted` (1 when the intersection was empty and the count
/// ran), and the counter `hetgraph.back_trace.fallbacks` once per count.
///
/// # Examples
///
/// See the crate-level example in [`crate`].
pub fn back_trace(
    het: &HetGraph,
    fsim: &FaultSim<'_>,
    scan: &ScanChains,
    log: &FailureLog,
) -> Option<SubGraph> {
    let mut span = m3d_obs::span("back_trace");
    let failures = Signature::from_log(log, fsim.patterns());
    let mut counts = fsim.active_site_intersection(&failures, scan, |flop| het.topedges(flop));
    let counted = counts.sites.is_empty();
    if counted {
        // Multi-fault chips whose responses come from different faults
        // can intersect to nothing; the best-supported sites keep the GNN
        // models fed (the paper's framework keeps predicting tiers for
        // multi-fault chips — Section VII-A).
        counts = fsim.active_site_counts(&failures, scan, |flop| {
            het.topedges(flop).iter().map(|te| te.site)
        });
        m3d_obs::counter("hetgraph.back_trace.fallbacks", 1);
    }
    span.add("obs_points", u64::from(counts.obs_points));
    span.add("entries", u64::from(counts.entries));
    span.add("counted", u64::from(counted));
    // From the intersection, every site's count is `entries`.
    let c_max = counts.sites.iter().map(|&(_, c)| c).max().unwrap_or(0);
    let threshold = c_max.min(counts.entries);
    let mut sites: Vec<SiteId> = counts
        .sites
        .into_iter()
        .filter(|&(_, c)| c >= threshold)
        .map(|(s, _)| s)
        .collect();
    sites.sort_unstable();
    span.add("sites", sites.len() as u64);
    (!sites.is_empty()).then(|| extract(het, fsim, sites))
}

/// Builds the sub-graph induced on `sites` with Table II features.
pub fn extract(het: &HetGraph, fsim: &FaultSim<'_>, sites: Vec<SiteId>) -> SubGraph {
    let design = fsim.design();
    let n = sites.len();
    let index: HashMap<u32, usize> = sites.iter().enumerate().map(|(i, s)| (s.0, i)).collect();

    // Induced edges + per-node sub-graph degrees.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut sub_in = vec![0u32; n];
    let mut sub_out = vec![0u32; n];
    for (i, &site) in sites.iter().enumerate() {
        for &succ in het.successors(site) {
            if let Some(&j) = index.get(&succ) {
                edges.push((i, j));
                sub_out[i] += 1;
                sub_in[j] += 1;
            }
        }
    }

    let (max_level, max_dist, flops) = het.normalizers();
    let mut feats = Matrix::zeros(n, FEATURE_DIM);
    let mut miv_nodes = Vec::new();
    for (i, &site) in sites.iter().enumerate() {
        let f = het.site_features(site);
        let row = feats.row_mut(i);
        row[0] = f32::from(f.fan_in) / 4.0;
        row[1] = (f32::from(f.fan_out) / 8.0).min(2.0);
        row[2] = f.top_edges as f32 / flops.max(1) as f32;
        row[3] = f.tier;
        row[4] = f.level as f32 / max_level;
        row[5] = f32::from(u8::from(f.is_output));
        row[6] = f32::from(u8::from(f.touches_miv));
        row[7] = sub_in[i] as f32 / 4.0;
        row[8] = (sub_out[i] as f32 / 8.0).min(2.0);
        row[9] = f.mean_dist / max_dist;
        row[10] = f.std_dist / max_dist;
        row[11] = (f.mean_mivs / 4.0).min(2.0);
        row[12] = (f.std_mivs / 4.0).min(2.0);
        if let SitePos::Miv(m) = design.sites().pos(site) {
            miv_nodes.push((i, m));
        }
    }

    SubGraph {
        sites,
        data: GraphData::new(GcnGraph::from_edges(n, &edges), feats),
        miv_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_dft::{ObsMode, ObsPoint, ScanConfig};
    use m3d_netlist::{generate::Benchmark, FlopId};
    use m3d_part::DesignConfig;
    use m3d_tdf::{generate_patterns, AtpgConfig, FailEntry, Fault, FaultSim, Polarity};

    struct Env {
        design: m3d_part::M3dDesign,
        ts: m3d_tdf::TestSet,
        scan: ScanChains,
        het: HetGraph,
    }

    fn env() -> Env {
        let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let ts = generate_patterns(&design, &AtpgConfig::new(1, 256));
        let scan = ScanChains::new(
            design.netlist(),
            ScanConfig::for_flop_count(design.netlist().flops().len()),
        );
        let het = HetGraph::new(&design);
        Env {
            design,
            ts,
            scan,
            het,
        }
    }

    fn some_detected_fault(e: &Env, skip: usize) -> Fault {
        m3d_tdf::full_fault_list(&e.design)
            .into_iter()
            .zip(&e.ts.detected)
            .filter(|&(_, &d)| d)
            .map(|(f, _)| f)
            .nth(skip)
            .expect("detected fault exists")
    }

    /// The bypass-mode log of a chip with `faults` injected.
    fn bypass_log(e: &Env, fsim: &FaultSim<'_>, faults: &[Fault]) -> FailureLog {
        let dets = fsim.detections(&mut fsim.detector(), faults);
        FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass)
    }

    /// What `fail pattern 4294967295 flop 4294967295` parses to, a
    /// nonexistent pattern at a real cell, and a real pattern at a cell
    /// past the last one.
    fn junk_entries(e: &Env) -> [FailEntry; 3] {
        let past_last = e.design.netlist().flops().len() + 7;
        [(u32::MAX, u32::MAX as usize), (u32::MAX, 0), (0, past_last)].map(|(pattern, flop)| {
            FailEntry {
                pattern,
                obs: ObsPoint::Flop(FlopId::new(flop)),
            }
        })
    }

    #[test]
    fn back_tracing_keeps_the_injected_site() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        for skip in [0, 33, 77, 150] {
            let fault = some_detected_fault(&e, skip);
            let mut det = fsim.detector();
            let dets = fsim.detections(&mut det, &[fault]);
            for mode in ObsMode::ALL {
                let log = FailureLog::from_detections(&dets, &e.scan, mode);
                if log.is_empty() {
                    continue;
                }
                let sg =
                    back_trace(&e.het, &fsim, &e.scan, &log).expect("single-fault logs back-trace");
                assert!(
                    sg.node_of(fault.site).is_some(),
                    "{mode:?}: injected site must survive back-tracing"
                );
            }
        }
    }

    #[test]
    fn subgraph_features_have_table2_shape() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let log = bypass_log(&e, &fsim, &[some_detected_fault(&e, 5)]);
        let sg = back_trace(&e.het, &fsim, &e.scan, &log).unwrap();
        assert_eq!(sg.data.features.cols(), FEATURE_DIM);
        assert_eq!(sg.data.features.rows(), sg.node_count());
        assert_eq!(FEATURE_NAMES.len(), FEATURE_DIM);
        // Sub-graph is smaller than the whole circuit.
        assert!(sg.node_count() < e.het.node_count());
        assert!(sg.node_count() > 0);
    }

    #[test]
    fn compacted_subgraphs_are_no_smaller_than_bypass() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let mut total = [0usize; 2];
        for skip in [3, 9, 27] {
            let fault = some_detected_fault(&e, skip);
            let mut det = fsim.detector();
            let dets = fsim.detections(&mut det, &[fault]);
            for (k, mode) in ObsMode::ALL.into_iter().enumerate() {
                let log = FailureLog::from_detections(&dets, &e.scan, mode);
                if let Some(sg) = back_trace(&e.het, &fsim, &e.scan, &log) {
                    total[k] += sg.node_count();
                }
            }
        }
        assert!(
            total[1] >= total[0],
            "compaction widens the suspect space: {total:?}"
        );
    }

    /// Compacted observations that name no scan cell: a channel past the
    /// last one, and a cycle past every chain of a real channel.
    fn compacted_junk(e: &Env) -> Vec<FailEntry> {
        let past_chains = e.scan.max_chain_length() as u16;
        (0..30)
            .map(|pattern| FailEntry {
                pattern,
                obs: ObsPoint::ChannelCycle {
                    channel: 9999,
                    cycle: 1,
                },
            })
            .chain(std::iter::once(FailEntry {
                pattern: 0,
                obs: ObsPoint::ChannelCycle {
                    channel: 0,
                    cycle: past_chains,
                },
            }))
            .collect()
    }

    #[test]
    fn out_of_range_entries_are_skipped() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let fault = some_detected_fault(&e, 5);
        let dets = fsim.detections(&mut fsim.detector(), &[fault]);
        for (mode, junk) in [
            (ObsMode::Bypass, junk_entries(&e).to_vec()),
            (ObsMode::Compacted, compacted_junk(&e)),
        ] {
            let clean = FailureLog::from_detections(&dets, &e.scan, mode);
            let poisoned: FailureLog = clean.entries().iter().copied().chain(junk).collect();
            let want = back_trace(&e.het, &fsim, &e.scan, &clean).expect("clean log back-traces");
            let got = back_trace(&e.het, &fsim, &e.scan, &poisoned).expect("junk is skipped");
            assert_eq!(got, want, "{mode:?}");
        }
    }

    #[test]
    fn empty_log_yields_no_subgraph() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        assert!(back_trace(&e.het, &fsim, &e.scan, &FailureLog::default()).is_none());
        // So does a log whose every entry names a nonexistent pattern or cell.
        let junk: FailureLog = junk_entries(&e).into_iter().collect();
        assert!(back_trace(&e.het, &fsim, &e.scan, &junk).is_none());
    }

    #[test]
    fn dummy_buffer_adds_one_node() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let log = bypass_log(&e, &fsim, &[some_detected_fault(&e, 11)]);
        let sg = back_trace(&e.het, &fsim, &e.scan, &log).unwrap();
        let aug = sg.with_dummy_buffer(0);
        assert_eq!(aug.data.graph.node_count(), sg.node_count() + 1);
        assert_eq!(aug.data.features.rows(), sg.node_count() + 1);
        // The buffer is attached to node 0.
        assert!(aug.data.graph.neighbors(sg.node_count()).contains(&0));
    }

    #[test]
    fn miv_fault_subgraph_contains_its_miv_node() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        // Find a detected MIV fault.
        let (fault, log) = (0..e.design.miv_count())
            .flat_map(|m| Polarity::ALL.map(|p| Fault::new(e.design.miv_site(m), p)))
            .map(|f| (f, bypass_log(&e, &fsim, &[f])))
            .find(|(_, log)| !log.is_empty())
            .expect("expected at least one detectable MIV fault");
        let sg = back_trace(&e.het, &fsim, &e.scan, &log).unwrap();
        let node = sg.node_of(fault.site).expect("MIV site retained");
        assert!(sg.miv_nodes.iter().any(|&(n, _)| n == node));
    }
}
