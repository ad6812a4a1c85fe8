//! The [`LintRunner`] API: bundle what you have into a [`LintTarget`],
//! pick the pass families, get back one [`LintReport`].

use m3d_dft::ScanChains;
use m3d_fault_localization::DiagSample;
use m3d_gnn::GraphData;
use m3d_hetgraph::SubGraph;
use m3d_netlist::Netlist;
use m3d_part::M3dDesign;

use crate::passes;
use crate::report::LintReport;

/// One pass family of checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Netlist DRC (`L00xx`).
    Netlist,
    /// Partition/MIV/site-table checks (`L01xx`).
    M3d,
    /// Scan and test-point checks (`L02xx`).
    Dft,
    /// Graph-tensor and label checks (`L03xx`).
    Tensor,
}

impl Pass {
    /// Every pass family, in code order.
    pub const ALL: [Pass; 4] = [Pass::Netlist, Pass::M3d, Pass::Dft, Pass::Tensor];
}

/// Everything lintable about one design, all optional: passes silently
/// skip what the target does not carry.
///
/// # Examples
///
/// ```
/// use m3d_netlist::generate::{Benchmark, GenParams};
/// use m3d_lint::{LintRunner, LintTarget};
///
/// let nl = Benchmark::Aes.generate(&GenParams::small(1));
/// let report = LintRunner::new().run(&LintTarget::new("aes").netlist(&nl));
/// assert!(report.is_clean());
/// ```
#[derive(Clone, Debug, Default)]
pub struct LintTarget<'a> {
    name: String,
    netlist: Option<&'a Netlist>,
    design: Option<&'a M3dDesign>,
    scan: Option<&'a ScanChains>,
    graphs: Vec<&'a GraphData>,
    subgraphs: Vec<&'a SubGraph>,
    samples: Vec<&'a DiagSample>,
}

impl<'a> LintTarget<'a> {
    /// An empty target with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        LintTarget {
            name: name.into(),
            ..LintTarget::default()
        }
    }

    /// Attaches a bare netlist (unnecessary when a design is attached).
    pub fn netlist(mut self, netlist: &'a Netlist) -> Self {
        self.netlist = Some(netlist);
        self
    }

    /// Attaches a partitioned design (also provides the netlist).
    pub fn design(mut self, design: &'a M3dDesign) -> Self {
        self.design = Some(design);
        self
    }

    /// Attaches a scan architecture.
    pub fn scan(mut self, scan: &'a ScanChains) -> Self {
        self.scan = Some(scan);
        self
    }

    /// Attaches one GNN input tensor.
    pub fn graph(mut self, data: &'a GraphData) -> Self {
        self.graphs.push(data);
        self
    }

    /// Attaches one back-traced sub-graph.
    pub fn subgraph(mut self, sg: &'a SubGraph) -> Self {
        self.subgraphs.push(sg);
        self
    }

    /// Attaches labelled diagnosis samples.
    pub fn samples(mut self, samples: impl IntoIterator<Item = &'a DiagSample>) -> Self {
        self.samples.extend(samples);
        self
    }

    fn effective_netlist(&self) -> Option<&'a Netlist> {
        self.netlist.or_else(|| self.design.map(M3dDesign::netlist))
    }
}

/// Runs a configurable set of pass families over a [`LintTarget`].
#[derive(Clone, Debug)]
pub struct LintRunner {
    passes: Vec<Pass>,
}

impl LintRunner {
    /// A runner with every pass family enabled.
    pub fn new() -> Self {
        LintRunner {
            passes: Pass::ALL.to_vec(),
        }
    }

    /// A runner restricted to the given pass families.
    pub fn with_passes(passes: &[Pass]) -> Self {
        LintRunner {
            passes: passes.to_vec(),
        }
    }

    /// Lints the target, returning a severity-sorted report.
    pub fn run(&self, target: &LintTarget<'_>) -> LintReport {
        let mut report = LintReport::new(target.name.clone());
        let nl = target.effective_netlist();
        for &pass in &self.passes {
            match pass {
                Pass::Netlist => {
                    if let Some(nl) = nl {
                        for d in passes::netlist::check_netlist(nl) {
                            report.push(d);
                        }
                    }
                }
                Pass::M3d => {
                    if let Some(design) = target.design {
                        for d in passes::m3d::check_design(design) {
                            report.push(d);
                        }
                    }
                }
                Pass::Dft => {
                    if let (Some(nl), Some(scan)) = (nl, target.scan) {
                        for d in passes::dft::check_scan(nl, scan) {
                            report.push(d);
                        }
                    }
                    // TPI netlists are recognised by the `-tpi` suffix
                    // `insert_test_points` appends.
                    if let Some(nl) = nl.filter(|nl| nl.name().ends_with("-tpi")) {
                        for d in passes::dft::check_tpi(nl) {
                            report.push(d);
                        }
                    }
                }
                Pass::Tensor => {
                    for &data in &target.graphs {
                        for d in passes::tensor::check_graph_data(data) {
                            report.push(d);
                        }
                    }
                    for &sg in &target.subgraphs {
                        match target.design {
                            Some(design) => {
                                for d in passes::tensor::check_subgraph(design, sg) {
                                    report.push(d);
                                }
                            }
                            None => {
                                for d in passes::tensor::check_graph_data(&sg.data) {
                                    report.push(d);
                                }
                            }
                        }
                    }
                    if let Some(design) = target.design {
                        for &s in &target.samples {
                            for d in passes::tensor::check_sample(design, s) {
                                report.push(d);
                            }
                        }
                    }
                }
            }
        }
        report.sorted()
    }
}

impl Default for LintRunner {
    fn default() -> Self {
        LintRunner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_dft::ScanConfig;
    use m3d_netlist::generate::{Benchmark, GenParams};
    use m3d_part::PartitionAlgo;

    #[test]
    fn full_run_over_a_real_design_is_clean() {
        let nl = Benchmark::Aes.generate(&GenParams::small(1));
        let scan = ScanChains::new(&nl, ScanConfig::for_flop_count(nl.flops().len()));
        let part = PartitionAlgo::MinCut.partition(&nl, 1);
        let design = M3dDesign::new(nl, part);
        let target = LintTarget::new("aes").design(&design).scan(&scan);
        let report = LintRunner::new().run(&target);
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(report.diagnostics().len(), 0);
    }

    #[test]
    fn empty_target_produces_an_empty_report() {
        let report = LintRunner::new().run(&LintTarget::new("empty"));
        assert!(report.is_clean());
        assert_eq!(report.target(), "empty");
    }

    #[test]
    fn pass_selection_limits_the_checks() {
        let nl = Benchmark::Aes.generate(&GenParams::small(1));
        // A scan for a different netlist: the DFT pass would complain.
        let other = Benchmark::Tate.generate(&GenParams::small(1));
        let scan = ScanChains::new(&other, ScanConfig::for_flop_count(other.flops().len()));
        let target = LintTarget::new("t").netlist(&nl).scan(&scan);
        let with_dft = LintRunner::new().run(&target);
        let without = LintRunner::with_passes(&[Pass::Netlist]).run(&target);
        assert!(!with_dft.is_clean());
        assert!(without.is_clean());
    }
}
