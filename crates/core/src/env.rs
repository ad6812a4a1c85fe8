//! A fully-prepared test environment: design, scan, patterns, graph.

use m3d_dft::{ScanChains, ScanConfig};
use m3d_hetgraph::HetGraph;
use m3d_netlist::generate::Benchmark;
use m3d_part::{augmented_design, DesignConfig, M3dDesign};
use m3d_tdf::{full_fault_list, generate_patterns, AtpgConfig, Fault, FaultSim, TestSet};

/// Everything needed to test and diagnose one M3D design: the partitioned
/// netlist, the stitched scan architecture, the ATPG pattern set, and the
/// heterogeneous graph (built once, reused for every failure log).
///
/// # Examples
///
/// ```
/// use m3d_fault_localization::TestEnv;
/// use m3d_netlist::generate::Benchmark;
/// use m3d_part::DesignConfig;
///
/// let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(300));
/// assert!(env.test_set.fault_coverage > 0.9);
/// ```
#[derive(Debug)]
pub struct TestEnv {
    /// The partitioned design.
    pub design: M3dDesign,
    /// Scan chains and compactor mapping.
    pub scan: ScanChains,
    /// TDF patterns with coverage bookkeeping.
    pub test_set: TestSet,
    /// The heterogeneous graph (Section III-A).
    pub het: HetGraph,
}

impl TestEnv {
    /// Builds the environment for a benchmark under a design configuration.
    ///
    /// `target` overrides the gate-count target (`None` = benchmark
    /// default). ATPG runs to 95% testable-fault coverage.
    pub fn build(benchmark: Benchmark, config: DesignConfig, target: Option<usize>) -> Self {
        Self::from_design(config.build_sized(benchmark, target))
    }

    /// Builds the environment for a randomly-partitioned augmentation
    /// design (`k` selects the partition).
    pub fn build_augmented(benchmark: Benchmark, k: u64, target: Option<usize>) -> Self {
        Self::from_design(augmented_design(benchmark, k, target))
    }

    /// Wraps an already-partitioned design.
    pub fn from_design(design: M3dDesign) -> Self {
        let scan = ScanChains::new(
            design.netlist(),
            ScanConfig::for_flop_count(design.netlist().flops().len()),
        );
        let max_patterns = (design.netlist().gate_count() / 2).clamp(256, 4096);
        let test_set = generate_patterns(&design, &AtpgConfig::new(1, max_patterns));
        let het = HetGraph::new(&design);
        TestEnv {
            design,
            scan,
            test_set,
            het,
        }
    }

    /// A fault simulator over this environment's patterns.
    pub fn fault_sim(&self) -> FaultSim<'_> {
        FaultSim::new(&self.design, &self.test_set.patterns)
    }

    /// The faults the pattern set detects (the injectable universe for
    /// dataset generation — an undetected fault produces an empty log).
    pub fn detected_faults(&self) -> Vec<Fault> {
        full_fault_list(&self.design)
            .into_iter()
            .zip(&self.test_set.detected)
            .filter(|&(_, &d)| d)
            .map(|(f, _)| f)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_builds_consistently() {
        let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(300));
        assert!(env.test_set.fault_coverage > 0.9);
        assert_eq!(env.het.node_count(), env.design.sites().len());
        assert!(!env.detected_faults().is_empty());
        let chains: usize = env.scan.chains().iter().map(Vec::len).sum();
        assert_eq!(chains, env.design.netlist().flops().len());
    }
}
