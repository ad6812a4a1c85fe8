//! Transition-delay ATPG: random-fill pattern generation with fault
//! dropping.
//!
//! The paper's TDF patterns come from a commercial compressing ATPG; the
//! published design matrix only constrains the *artefacts* — a pattern set
//! with known fault coverage (97–99%). This generator reproduces those
//! artefacts with the textbook flow: emit random-fill pattern blocks,
//! fault-simulate the undetected faults against each block, keep blocks
//! that detect new faults, and stop at the coverage target.

use rand::rngs::StdRng;
use rand::SeedableRng;

use m3d_part::M3dDesign;

use crate::fault::{full_fault_list, site_net, testable_sites, Fault};
use crate::fsim::BlockDetector;
use crate::pattern::PatternSet;
use crate::sim::Simulator;

/// ATPG stopping criteria.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AtpgConfig {
    /// Stop once this fraction of the fault universe is detected.
    pub target_coverage: f64,
    /// Hard cap on emitted patterns.
    pub max_patterns: usize,
    /// Pattern-fill seed.
    pub seed: u64,
}

impl AtpgConfig {
    /// A configuration suited to the scaled benchmarks: 95% coverage,
    /// at most `max_patterns` patterns.
    pub fn new(seed: u64, max_patterns: usize) -> Self {
        AtpgConfig {
            target_coverage: 0.95,
            max_patterns,
            seed,
        }
    }
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig::new(1, 1024)
    }
}

/// The output of ATPG: the kept patterns plus coverage bookkeeping.
#[derive(Clone, Debug)]
pub struct TestSet {
    /// The generated pattern set.
    pub patterns: PatternSet,
    /// Achieved coverage over the *testable* TDF faults (the FC a
    /// commercial tool reports; structurally untestable faults excluded).
    pub fault_coverage: f64,
    /// Per-fault detection flags, aligned with
    /// [`full_fault_list`](crate::full_fault_list).
    pub detected: Vec<bool>,
    /// Per-fault structural testability, aligned with `detected`.
    pub testable: Vec<bool>,
}

impl TestSet {
    /// Number of patterns kept.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }
}

/// Generates a TDF test set for `design`.
///
/// # Examples
///
/// ```
/// use m3d_netlist::generate::Benchmark;
/// use m3d_part::DesignConfig;
/// use m3d_tdf::{generate_patterns, AtpgConfig};
///
/// let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
/// let ts = generate_patterns(&design, &AtpgConfig::new(1, 256));
/// assert!(ts.fault_coverage > 0.5);
/// ```
pub fn generate_patterns(design: &M3dDesign, config: &AtpgConfig) -> TestSet {
    let mut span = m3d_obs::span("atpg");
    let faults = full_fault_list(design);
    let site_ok = testable_sites(design);
    let testable: Vec<bool> = faults.iter().map(|f| site_ok[f.site.index()]).collect();
    let testable_n = testable.iter().filter(|&&t| t).count().max(1);
    let mut detected = vec![false; faults.len()];
    let mut detected_n = 0usize;

    let sim = Simulator::new(design.netlist());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut patterns = PatternSet::new();
    let mut misses = 0u32;

    while patterns.len() < config.max_patterns
        && (detected_n as f64) < config.target_coverage * testable_n as f64
    {
        let count = 64.min(config.max_patterns - patterns.len()) as u8;
        let block = PatternSet::random_block(design.netlist(), &mut rng, count);
        let good = sim.run_block(&block);
        // The sweep dominates ATPG runtime. Faults are grouped by site:
        // the two polarities have disjoint activation lanes and the
        // bit-parallel propagation is lane-wise independent, so one
        // propagation of the union mask answers both — each remaining
        // site pays for its fanout cone once per block. Sites are
        // independent against the fixed baseline and fan across the pool
        // with one propagation scratch per worker.
        let undetected_sites: Vec<(u32, [bool; 2])> = (0..design.sites().len() as u32)
            .map(|s| {
                let i = 2 * s as usize;
                let want = [
                    !detected[i] && testable[i],
                    !detected[i + 1] && testable[i + 1],
                ];
                (s, want)
            })
            .filter(|(_, want)| want[0] || want[1])
            .collect();
        let faults_swept: u64 = undetected_sites
            .iter()
            .map(|(_, want)| u64::from(want[0]) + u64::from(want[1]))
            .sum();
        let sweep_start = std::time::Instant::now();
        let hits = m3d_par::par_map_init(
            &undetected_sites,
            || BlockDetector::new(design, &sim),
            |det, &(s, want)| {
                let (i0, i1) = (2 * s as usize, 2 * s as usize + 1);
                debug_assert_eq!(faults[i0].site.index(), s as usize);
                let net = site_net(design, faults[i0].site).index();
                let (t, f2) = (good.transitions(net)[0], good.f2(net)[0]);
                let act = [
                    faults[i0].polarity.activation(t, f2),
                    faults[i1].polarity.activation(t, f2),
                ];
                let lanes = (if want[0] { act[0] } else { 0 }) | (if want[1] { act[1] } else { 0 });
                let diff = det.propagate_site_mask(&good, 0, faults[i0].site, lanes);
                [want[0] && diff & act[0] != 0, want[1] && diff & act[1] != 0]
            },
        );
        m3d_obs::observe(
            "tdf.atpg.block_sweep_us",
            sweep_start.elapsed().as_micros() as f64,
        );
        span.add("blocks_tried", 1);
        span.add("faults_swept", faults_swept);
        span.add("sites_swept", undetected_sites.len() as u64);
        let mut new_hits = 0usize;
        for (&(s, _), hit) in undetected_sites.iter().zip(hits) {
            for (p, &h) in hit.iter().enumerate() {
                if h {
                    detected[2 * s as usize + p] = true;
                    detected_n += 1;
                    new_hits += 1;
                }
            }
        }
        // Fault dropping: keep only blocks that paid for themselves; give
        // up after a few consecutive useless blocks (random-resistant tail).
        if new_hits > 0 {
            misses = 0;
            span.add("blocks_kept", 1);
            patterns.push_block(block);
        } else {
            misses += 1;
            if misses >= 3 {
                break;
            }
        }
    }

    let fault_coverage = detected_n as f64 / testable_n as f64;
    span.add("patterns", patterns.len() as u64);
    m3d_obs::counter("tdf.atpg.patterns", patterns.len() as u64);
    m3d_obs::gauge("tdf.atpg.fault_coverage", fault_coverage);
    TestSet {
        patterns,
        fault_coverage,
        detected,
        testable,
    }
}

/// The faults a test set leaves undetected (useful for coverage reports).
pub fn undetected_faults(design: &M3dDesign, test_set: &TestSet) -> Vec<Fault> {
    full_fault_list(design)
        .into_iter()
        .zip(&test_set.detected)
        .filter(|&(_, &d)| !d)
        .map(|(f, _)| f)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::generate::Benchmark;
    use m3d_part::DesignConfig;

    #[test]
    fn atpg_reaches_useful_coverage() {
        let d = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let ts = generate_patterns(&d, &AtpgConfig::new(1, 512));
        assert!(
            ts.fault_coverage > 0.85,
            "coverage {} too low",
            ts.fault_coverage
        );
        assert!(ts.pattern_count() > 0);
        let testable_n = ts.testable.iter().filter(|&&t| t).count();
        assert_eq!(
            ts.detected.iter().filter(|&&d| d).count(),
            (ts.fault_coverage * testable_n as f64).round() as usize
        );
    }

    #[test]
    fn atpg_is_deterministic() {
        let d = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let a = generate_patterns(&d, &AtpgConfig::new(7, 256));
        let b = generate_patterns(&d, &AtpgConfig::new(7, 256));
        assert_eq!(a.pattern_count(), b.pattern_count());
        assert_eq!(a.detected, b.detected);
    }

    #[test]
    fn pattern_cap_is_respected() {
        let d = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let ts = generate_patterns(&d, &AtpgConfig::new(1, 64));
        assert!(ts.pattern_count() <= 64);
    }

    #[test]
    fn undetected_list_matches_coverage() {
        let d = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let ts = generate_patterns(&d, &AtpgConfig::new(1, 256));
        let undet = undetected_faults(&d, &ts);
        assert_eq!(undet.len(), ts.detected.iter().filter(|&&x| !x).count());
    }
}
