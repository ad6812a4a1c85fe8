//! Graph-tensor checks: the `L03xx` family.
//!
//! These run over the data actually fed to the GNN models: the adjacency
//! of a [`GcnGraph`](m3d_gnn::GcnGraph), the Table II feature matrix, the
//! back-traced [`SubGraph`]s, and the labels of a [`DiagSample`]. A single
//! NaN here silently poisons every downstream gradient, so the checks are
//! strict about finiteness and shape and advisory about value ranges.

use m3d_fault_localization::DiagSample;
use m3d_gnn::GraphData;
use m3d_hetgraph::{SubGraph, FEATURE_DIM};
use m3d_netlist::SitePos;
use m3d_part::M3dDesign;

use crate::diag::{Diagnostic, LintCode, Span};

/// Expected `[lo, hi]` per Table II feature column, from the normalization
/// in `m3d_hetgraph::extract`: columns 1, 8, 11, 12 are capped at 2 by the
/// extractor; the rest are ratios of design-level maxima.
pub const FEATURE_BOUNDS: [(f32, f32); FEATURE_DIM] = [
    (0.0, 1.0), // fan-in edges / 4 (max arity 4)
    (0.0, 2.0), // fan-out edges / 8, capped
    (0.0, 1.0), // topedges / flop count
    (0.0, 1.0), // tier: 0 top, 1 bottom, 0.5 MIV
    (0.0, 1.0), // level / max level
    (0.0, 1.0), // is gate output
    (0.0, 1.0), // connects to MIV
    (0.0, 1.0), // sub-graph fan-in / 4
    (0.0, 2.0), // sub-graph fan-out / 8, capped
    (0.0, 1.0), // mean topedge length / max
    (0.0, 1.0), // std topedge length / max
    (0.0, 2.0), // mean topedge MIVs / 4, capped
    (0.0, 2.0), // std topedge MIVs / 4, capped
];

/// Slack on the range check: normalized ratios may graze their bound.
const RANGE_EPS: f32 = 1e-4;

/// Checks a GNN input: edge indices in bounds, features finite, matrix in
/// Table II shape, and every value within its column's expected range.
pub fn check_graph_data(data: &GraphData) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n = data.graph.node_count();
    if data.features.rows() != n {
        diags.push(Diagnostic::new(
            LintCode::FeatureShape,
            Span::Design,
            format!(
                "feature matrix has {} rows for a {n}-node graph",
                data.features.rows()
            ),
        ));
    }
    let ranged = data.features.cols() == FEATURE_DIM;
    if !ranged {
        diags.push(Diagnostic::new(
            LintCode::FeatureShape,
            Span::Design,
            format!(
                "feature matrix has {} columns; Table II defines {FEATURE_DIM}",
                data.features.cols()
            ),
        ));
    }
    for v in 0..n {
        for &u in data.graph.neighbors(v) {
            if u as usize >= n {
                diags.push(Diagnostic::new(
                    LintCode::UnknownRef,
                    Span::Node(v),
                    format!("node {v} has an edge to nonexistent node {u}"),
                ));
            }
        }
    }
    for r in 0..data.features.rows() {
        for (c, &x) in data.features.row(r).iter().enumerate() {
            if !x.is_finite() {
                diags.push(Diagnostic::new(
                    LintCode::NonFiniteFeature,
                    Span::Feature { node: r, col: c },
                    format!("feature value {x} is not finite"),
                ));
            } else if ranged {
                let (lo, hi) = FEATURE_BOUNDS[c];
                if x < lo - RANGE_EPS || x > hi + RANGE_EPS {
                    diags.push(Diagnostic::new(
                        LintCode::FeatureRange,
                        Span::Feature { node: r, col: c },
                        format!("feature value {x} outside expected [{lo}, {hi}]"),
                    ));
                }
            }
        }
    }
    diags
}

/// Checks a back-traced sub-graph against its design: sorted unique site
/// list, sites in range, node/feature counts agreeing, and the MIV node
/// list matching the MIV sites actually present.
pub fn check_subgraph(design: &M3dDesign, sg: &SubGraph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let total_sites = design.sites().len();
    for w in sg.sites.windows(2) {
        if w[0] >= w[1] {
            diags.push(Diagnostic::new(
                LintCode::UnsortedSites,
                Span::Site(w[1]),
                format!("site list not strictly ascending at {} -> {}", w[0], w[1]),
            ));
        }
    }
    for &site in &sg.sites {
        if site.index() >= total_sites {
            diags.push(Diagnostic::new(
                LintCode::UnknownRef,
                Span::Site(site),
                format!("sub-graph names site {site} but the design has {total_sites}"),
            ));
        }
    }
    if sg.data.graph.node_count() != sg.sites.len() {
        diags.push(Diagnostic::new(
            LintCode::FeatureShape,
            Span::Design,
            format!(
                "sub-graph has {} sites but a {}-node tensor",
                sg.sites.len(),
                sg.data.graph.node_count()
            ),
        ));
    }
    for &(node, miv) in &sg.miv_nodes {
        let Some(&site) = sg.sites.get(node) else {
            diags.push(Diagnostic::new(
                LintCode::BadMivNode,
                Span::Node(node),
                format!("MIV node {node} is out of range"),
            ));
            continue;
        };
        if site.index() >= total_sites || design.sites().pos(site) != SitePos::Miv(miv) {
            diags.push(Diagnostic::new(
                LintCode::BadMivNode,
                Span::Node(node),
                format!("node {node} (site {site}) is not MIV {miv}"),
            ));
        }
    }
    // Every MIV site retained by back-tracing must be declared.
    for (node, &site) in sg.sites.iter().enumerate() {
        if site.index() < total_sites {
            if let SitePos::Miv(m) = design.sites().pos(site) {
                if !sg.miv_nodes.contains(&(node, m)) {
                    diags.push(Diagnostic::new(
                        LintCode::BadMivNode,
                        Span::Node(node),
                        format!("MIV site {site} missing from the MIV node list"),
                    ));
                }
            }
        }
    }
    diags.extend(check_graph_data(&sg.data));
    diags
}

/// Checks a diagnosis sample's ground-truth labels against its design: MIV
/// indices in range and matching the injected MIV faults, the tier label
/// consistent with the injected sites, and sub-graph tensors sound.
pub fn check_sample(design: &M3dDesign, sample: &DiagSample) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let total_sites = design.sites().len();
    for fault in &sample.injected {
        if fault.site.index() >= total_sites {
            diags.push(Diagnostic::new(
                LintCode::LabelMismatch,
                Span::Site(fault.site),
                format!("injected fault at nonexistent site {}", fault.site),
            ));
        }
    }
    if sample.injected.is_empty() {
        diags.push(Diagnostic::new(
            LintCode::LabelMismatch,
            Span::Design,
            "sample with no injected fault".to_owned(),
        ));
        return diags;
    }
    if sample
        .injected
        .iter()
        .any(|f| f.site.index() >= total_sites)
    {
        return diags; // label recomputation below would be meaningless
    }
    // Recompute the MIV ground truth from the injected sites.
    let mut expected_mivs: Vec<u32> = sample
        .injected
        .iter()
        .filter_map(|f| match design.sites().pos(f.site) {
            SitePos::Miv(m) => Some(m),
            _ => None,
        })
        .collect();
    expected_mivs.sort_unstable();
    expected_mivs.dedup();
    let mut got = sample.miv_truth.clone();
    got.sort_unstable();
    got.dedup();
    if got != expected_mivs {
        diags.push(Diagnostic::new(
            LintCode::LabelMismatch,
            Span::Design,
            format!("MIV truth {got:?} disagrees with injected MIV sites {expected_mivs:?}"),
        ));
    }
    // Recompute the tier label: the shared tier of all injected sites, or
    // none if any fault is an MIV or the tiers differ.
    let mut expected_tier = None;
    let mut tierless = false;
    for f in &sample.injected {
        match design.tier_of_site(f.site) {
            None => tierless = true,
            Some(t) => match expected_tier {
                None => expected_tier = Some(t),
                Some(prev) if prev != t => tierless = true,
                _ => {}
            },
        }
    }
    let expected_tier = if tierless { None } else { expected_tier };
    if sample.faulty_tier != expected_tier {
        diags.push(Diagnostic::new(
            LintCode::LabelMismatch,
            Span::Design,
            format!(
                "tier label {:?} disagrees with injected sites ({expected_tier:?})",
                sample.faulty_tier
            ),
        ));
    }
    if let Some(sg) = &sample.subgraph {
        diags.extend(check_subgraph(design, sg));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_gnn::{GcnGraph, Matrix};

    fn clean_data(n: usize) -> GraphData {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        GraphData::new(
            GcnGraph::from_edges(n, &edges),
            Matrix::zeros(n, FEATURE_DIM),
        )
    }

    #[test]
    fn zeroed_features_are_clean() {
        assert!(check_graph_data(&clean_data(5)).is_empty());
    }

    #[test]
    fn nan_poison_is_located() {
        let mut d = clean_data(4);
        d.features.row_mut(2)[7] = f32::NAN;
        let diags = check_graph_data(&d);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::NonFiniteFeature);
        assert_eq!(diags[0].span, Span::Feature { node: 2, col: 7 });
    }

    #[test]
    fn out_of_range_feature_is_a_warning() {
        let mut d = clean_data(3);
        d.features.row_mut(0)[3] = 7.5; // tier must be within [0, 1]
        let diags = check_graph_data(&d);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::FeatureRange);
        assert_eq!(diags[0].severity, crate::Severity::Warn);
    }

    #[test]
    fn wider_matrix_is_one_shape_error_and_unranged() {
        let n = 3;
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let mut d = GraphData::new(
            GcnGraph::from_edges(n, &edges),
            Matrix::zeros(n, FEATURE_DIM + 3),
        );
        // Out of range in a Table II column and in an extra column: a
        // matrix of the wrong width is not range-checked at all.
        d.features.row_mut(1)[3] = 7.5;
        d.features.row_mut(1)[FEATURE_DIM + 2] = 1.5;
        let diags = check_graph_data(&d);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, LintCode::FeatureShape);
    }

    #[test]
    fn wrong_column_count_is_a_shape_error() {
        let d = GraphData::new(
            GcnGraph::from_edges(2, &[(0, 1)]),
            Matrix::zeros(2, FEATURE_DIM - 1),
        );
        let diags = check_graph_data(&d);
        assert!(diags.iter().any(|g| g.code == LintCode::FeatureShape));
    }
}
