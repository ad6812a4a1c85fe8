//! Region-level fault localization for 2D designs (Section III-C).
//!
//! The paper notes its models are not restricted to M3D: *"If 2D circuits
//! are partitioned into distinct regions, Tier-predictor can be utilized
//! to perform region-level fault localization"*, with no change to feature
//! extraction or model construction (the graph-representation vector simply
//! grows to the region count). This module provides that capability:
//!
//! * [`RegionMap`] — a k-way spatial partition of a netlist built by
//!   recursive min-cut bisection,
//! * [`RegionPredictor`] — a k-class GCN graph classifier over the same
//!   Table II sub-graph features, with the tier-location column replaced
//!   by the normalized region index.

use m3d_gnn::{GcnClassifier, GraphData, Trainable};
use m3d_hetgraph::{SubGraph, FEATURE_DIM};
use m3d_netlist::{GateId, Netlist, SitePos};
use m3d_part::{M3dDesign, PartitionAlgo, Tier};

use crate::models::ModelConfig;
use crate::sample::DiagSample;

/// Index of the location feature inside the Table II feature vector
/// (tier for M3D, region for 2D designs).
const LOCATION_FEATURE: usize = 3;

/// A k-way region assignment over the gates of a netlist.
///
/// Built by recursive min-cut bisection, so regions are balanced and
/// connectivity-coherent — the 2D analogue of tier partitioning.
///
/// # Examples
///
/// ```
/// use m3d_fault_localization::RegionMap;
/// use m3d_netlist::generate::{Benchmark, GenParams};
///
/// let nl = Benchmark::Aes.generate(&GenParams::small(1));
/// let regions = RegionMap::build(&nl, 4, 1);
/// assert_eq!(regions.region_count(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct RegionMap {
    region: Vec<u8>,
    k: usize,
}

impl RegionMap {
    /// Partitions `netlist` into `k` regions (`k` rounded up to a power of
    /// two internally; the reported count is the requested `k`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 64`.
    pub fn build(netlist: &Netlist, k: usize, seed: u64) -> Self {
        assert!(k > 0 && k <= 64, "1..=64 regions supported");
        let mut region = vec![0u8; netlist.gate_count()];
        // Recursive bisection: each level splits every current region in
        // two with the min-cut partitioner until k regions exist.
        let levels = (usize::BITS - (k - 1).leading_zeros()) as usize;
        for level in 0..levels {
            let part = PartitionAlgo::MinCut.partition(netlist, seed ^ (level as u64) << 8);
            for (i, r) in region.iter_mut().enumerate() {
                let half = match part.tier(GateId::new(i)) {
                    Tier::Top => 0u8,
                    Tier::Bottom => 1u8,
                };
                *r = (*r << 1) | half;
            }
        }
        // Fold any excess power-of-two regions back into range.
        for r in &mut region {
            *r %= k as u8;
        }
        RegionMap { region, k }
    }

    /// Number of regions.
    #[inline]
    pub fn region_count(&self) -> usize {
        self.k
    }

    /// The region of a gate.
    #[inline]
    pub fn region_of(&self, gate: GateId) -> u8 {
        self.region[gate.index()]
    }

    /// The region of a fault site (MIV sites take their driver's region —
    /// a 2D design has no true MIVs, but partitioned netlists may).
    pub fn region_of_site(&self, design: &M3dDesign, site: m3d_netlist::SiteId) -> u8 {
        match design.sites().pos(site) {
            SitePos::Output(g) | SitePos::Input(g, _) => self.region_of(g),
            SitePos::Miv(m) => {
                let net = design.mivs()[m as usize].net;
                self.region_of(design.netlist().net(net).driver())
            }
        }
    }

    /// Rewrites a sub-graph's location feature column from tier to the
    /// normalized region index, producing the input the region model sees.
    pub fn relabel(&self, design: &M3dDesign, subgraph: &SubGraph) -> GraphData {
        let mut feats = subgraph.data.features.clone();
        for (node, &site) in subgraph.sites.iter().enumerate() {
            let r = self.region_of_site(design, site);
            feats[(node, LOCATION_FEATURE)] = f32::from(r) / self.k.max(1) as f32;
        }
        GraphData::new(subgraph.data.graph.clone(), feats)
    }

    /// Per-region gate counts (balance check).
    pub fn histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.k];
        for &r in &self.region {
            h[r as usize] += 1;
        }
        h
    }
}

/// A k-class region classifier: the Tier-predictor architecture with the
/// output dimension extended to the region count.
#[derive(Clone, Debug)]
pub struct RegionPredictor {
    model: GcnClassifier,
    regions: usize,
}

impl RegionPredictor {
    /// Trains on diagnosis samples labelled by the ground-truth fault's
    /// region. Samples without a sub-graph are skipped.
    pub fn train(
        design: &M3dDesign,
        map: &RegionMap,
        samples: &[&DiagSample],
        cfg: &ModelConfig,
    ) -> Self {
        let data: Vec<(GraphData, usize)> = samples
            .iter()
            .filter_map(|s| {
                let sg = s.subgraph.as_ref()?;
                let fault = s.injected.first()?;
                let label = map.region_of_site(design, fault.site) as usize;
                Some((map.relabel(design, sg), label))
            })
            .collect();
        let refs: Vec<(&GraphData, usize)> = data.iter().map(|(d, l)| (d, *l)).collect();
        let mut model = GcnClassifier::new(
            FEATURE_DIM,
            cfg.hidden,
            cfg.layers,
            map.region_count(),
            cfg.seed.wrapping_add(4000),
        );
        model.fit(&refs, &cfg.train);
        RegionPredictor {
            model,
            regions: map.region_count(),
        }
    }

    /// Number of output regions.
    pub fn region_count(&self) -> usize {
        self.regions
    }

    /// Per-region probabilities for a (relabelled) sub-graph.
    pub fn predict_proba(
        &self,
        design: &M3dDesign,
        map: &RegionMap,
        subgraph: &SubGraph,
    ) -> Vec<f32> {
        self.model.predict_proba(&map.relabel(design, subgraph))
    }

    /// The most probable faulty region.
    pub fn predict(&self, design: &M3dDesign, map: &RegionMap, subgraph: &SubGraph) -> u8 {
        self.model.predict(&map.relabel(design, subgraph)) as u8
    }

    /// Region-localization accuracy over labelled samples.
    pub fn accuracy(&self, design: &M3dDesign, map: &RegionMap, samples: &[&DiagSample]) -> f64 {
        let mut total = 0usize;
        let mut hits = 0usize;
        for s in samples {
            let (Some(sg), Some(fault)) = (&s.subgraph, s.injected.first()) else {
                continue;
            };
            total += 1;
            let truth = map.region_of_site(design, fault.site);
            if self.predict(design, map, sg) == truth {
                hits += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::TestEnv;
    use crate::sample::{generate_samples, InjectionKind};
    use m3d_dft::ObsMode;
    use m3d_gnn::TrainConfig;
    use m3d_netlist::generate::Benchmark;
    use m3d_part::DesignConfig;

    #[test]
    fn region_map_is_balanced_and_total() {
        let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(400));
        for k in [2usize, 3, 4, 8] {
            let map = RegionMap::build(env.design.netlist(), k, 7);
            let hist = map.histogram();
            assert_eq!(hist.len(), k);
            assert_eq!(
                hist.iter().sum::<usize>(),
                env.design.netlist().gate_count()
            );
            assert!(
                hist.iter().all(|&c| c > 0),
                "k={k}: every region populated, got {hist:?}"
            );
        }
    }

    #[test]
    fn region_predictor_beats_chance_on_four_regions() {
        let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(400));
        let map = RegionMap::build(env.design.netlist(), 4, 3);
        let fsim = env.fault_sim();
        let samples = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 120, 5);
        let refs: Vec<&DiagSample> = samples.iter().collect();
        let (train, test) = refs.split_at(90);
        let cfg = ModelConfig {
            train: TrainConfig {
                epochs: 40,
                ..TrainConfig::default()
            },
            ..ModelConfig::default()
        };
        let model = RegionPredictor::train(&env.design, &map, train, &cfg);
        assert_eq!(model.region_count(), 4);
        let acc = model.accuracy(&env.design, &map, test);
        assert!(
            acc > 0.45,
            "4-region accuracy {acc} must beat 0.25 chance clearly"
        );
        // Probabilities are a distribution over regions.
        let sg = samples
            .iter()
            .find_map(|s| s.subgraph.as_ref())
            .expect("some subgraph");
        let p = model.predict_proba(&env.design, &map, sg);
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn relabel_touches_only_the_location_column() {
        let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(400));
        let map = RegionMap::build(env.design.netlist(), 4, 3);
        let fsim = env.fault_sim();
        let samples = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 3, 9);
        let sg = samples
            .iter()
            .find_map(|s| s.subgraph.as_ref())
            .expect("subgraph");
        let relabelled = map.relabel(&env.design, sg);
        for r in 0..sg.data.features.rows() {
            for c in 0..FEATURE_DIM {
                if c == LOCATION_FEATURE {
                    assert!((0.0..1.0).contains(&relabelled.features[(r, c)]));
                } else {
                    assert_eq!(relabelled.features[(r, c)], sg.data.features[(r, c)]);
                }
            }
        }
    }
}
