//! A partitioned M3D design: netlist + tier labels + MIVs + fault sites.

use std::sync::{Arc, OnceLock};

use m3d_netlist::{GateId, NetId, Netlist, SiteId, SitePos, SiteTable};

use crate::cones::FaninCones;
use crate::partition::Partition;
use crate::tier::Tier;

/// A monolithic inter-tier via: one per cut net.
///
/// The paper models each MIV as an extra node on the net between the
/// driving gate and the sinks on the other tier; a delay defect in the MIV
/// slows exactly those branches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Miv {
    /// The cut net this MIV sits on.
    pub net: NetId,
    /// Tier of the driving gate.
    pub driver_tier: Tier,
}

/// A two-tier M3D design: an immutable netlist plus its partition, the
/// inferred MIVs, and the extended fault-site table (gate pins + MIVs).
///
/// # Examples
///
/// ```
/// use m3d_netlist::generate::{Benchmark, GenParams};
/// use m3d_part::{M3dDesign, PartitionAlgo};
///
/// let nl = Benchmark::Aes.generate(&GenParams::small(1));
/// let part = PartitionAlgo::MinCut.partition(&nl, 1);
/// let design = M3dDesign::new(nl, part);
/// assert!(design.miv_count() > 0, "a real partition cuts some nets");
/// ```
#[derive(Clone, Debug)]
pub struct M3dDesign {
    netlist: Netlist,
    partition: Partition,
    mivs: Vec<Miv>,
    miv_of_net: Vec<Option<u32>>,
    sites: SiteTable,
    /// Built on first use: ATPG, lint and verification never walk cones.
    cones: OnceLock<Arc<FaninCones>>,
}

impl M3dDesign {
    /// Partitions a netlist into an M3D design, inferring one MIV per cut
    /// net and extending the fault-site table.
    pub fn new(netlist: Netlist, partition: Partition) -> Self {
        let mut mivs = Vec::new();
        let mut miv_of_net = vec![None; netlist.net_count()];
        for (i, slot) in miv_of_net.iter_mut().enumerate() {
            let id = NetId::new(i);
            let net = netlist.net(id);
            let dt = partition.tier(net.driver());
            if net.sinks().iter().any(|&(s, _)| partition.tier(s) != dt) {
                *slot = Some(mivs.len() as u32);
                mivs.push(Miv {
                    net: id,
                    driver_tier: dt,
                });
            }
        }
        let sites = SiteTable::from_netlist(&netlist).with_mivs(mivs.len());
        M3dDesign {
            netlist,
            partition,
            mivs,
            miv_of_net,
            sites,
            cones: OnceLock::new(),
        }
    }

    /// Assembles a design from explicit parts, *without* re-deriving MIVs
    /// or the site table from the partition.
    ///
    /// This is the unchecked escape hatch the `m3d-lint` mutation tests use
    /// to model a stale or truncated site table ([`new`](M3dDesign::new)
    /// always builds a consistent one). The per-net MIV index is rebuilt
    /// from `mivs`, keeping the first MIV claimed per net.
    pub fn from_raw_parts(
        netlist: Netlist,
        partition: Partition,
        mivs: Vec<Miv>,
        sites: SiteTable,
    ) -> Self {
        let mut miv_of_net = vec![None; netlist.net_count()];
        for (i, m) in mivs.iter().enumerate() {
            if let Some(slot) = miv_of_net.get_mut(m.net.index()) {
                if slot.is_none() {
                    *slot = Some(i as u32);
                }
            }
        }
        M3dDesign {
            netlist,
            partition,
            mivs,
            miv_of_net,
            sites,
            cones: OnceLock::new(),
        }
    }

    /// The underlying netlist.
    #[inline]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The tier assignment.
    #[inline]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// All MIVs, in index order.
    #[inline]
    pub fn mivs(&self) -> &[Miv] {
        &self.mivs
    }

    /// Number of MIVs.
    #[inline]
    pub fn miv_count(&self) -> usize {
        self.mivs.len()
    }

    /// The extended fault-site table (gate pins followed by MIV sites).
    #[inline]
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// The per-flop fan-in cones, built on the first call and shared by
    /// clones made after it.
    pub fn fanin_cones(&self) -> &Arc<FaninCones> {
        self.cones.get_or_init(|| Arc::new(FaninCones::new(self)))
    }

    /// The tier of a gate.
    #[inline]
    pub fn tier_of_gate(&self, gate: GateId) -> Tier {
        self.partition.tier(gate)
    }

    /// The tier of a fault site; MIV sites belong to no tier (the paper's
    /// "MIVs do not belong to any tiers").
    pub fn tier_of_site(&self, site: SiteId) -> Option<Tier> {
        match self.sites.pos(site) {
            SitePos::Output(g) | SitePos::Input(g, _) => Some(self.tier_of_gate(g)),
            SitePos::Miv(_) => None,
        }
    }

    /// The MIV index on a net, if the net is cut.
    #[inline]
    pub fn miv_on_net(&self, net: NetId) -> Option<u32> {
        self.miv_of_net[net.index()]
    }

    /// The fault-site id of the `index`-th MIV.
    #[inline]
    pub fn miv_site(&self, index: usize) -> SiteId {
        self.sites.miv_site(index)
    }

    /// The one site that drives an input pin or MIV site in the
    /// heterogeneous graph: a far-tier branch of a cut net hangs off the
    /// net's MIV site, and every other branch and each MIV site off the
    /// net's stem, its driver's output pin. Panics on an output pin, which
    /// its gate's input pins drive.
    pub fn driving_site(&self, site: SiteId) -> SiteId {
        let (net, far_branch) = match self.sites.pos(site) {
            SitePos::Input(g, pin) => {
                let net = self.netlist.gate(g).inputs()[pin as usize];
                let driver = self.netlist.net(net).driver();
                (net, self.tier_of_gate(g) != self.tier_of_gate(driver))
            }
            SitePos::Miv(m) => (self.mivs[m as usize].net, false),
            SitePos::Output(_) => panic!("an output pin has no single driving site"),
        };
        match self.miv_on_net(net) {
            Some(m) if far_branch => self.miv_site(m as usize),
            _ => self
                .sites
                .output_site(&self.netlist, self.netlist.net(net).driver())
                .expect("net drivers have output sites"),
        }
    }

    /// Sink branches of an MIV's net that lie on the far side of the via
    /// (tier different from the driver): these are the pins a slow MIV
    /// delays.
    pub fn far_sinks(&self, miv: u32) -> Vec<(GateId, u8)> {
        let m = self.mivs[miv as usize];
        self.netlist
            .net(m.net)
            .sinks()
            .iter()
            .copied()
            .filter(|&(s, _)| self.partition.tier(s) != m.driver_tier)
            .collect()
    }

    /// Whether a site connects to an MIV (the `MIV` feature of Table I):
    /// true for MIV sites themselves, for the driver output pin of a cut
    /// net, and for far-side sink input pins.
    pub fn site_touches_miv(&self, site: SiteId) -> bool {
        match self.sites.pos(site) {
            SitePos::Miv(_) => true,
            SitePos::Output(g) => self
                .netlist
                .gate(g)
                .output()
                .and_then(|n| self.miv_on_net(n))
                .is_some(),
            SitePos::Input(..) => {
                matches!(self.sites.pos(self.driving_site(site)), SitePos::Miv(_))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionAlgo;
    use m3d_netlist::generate::{Benchmark, GenParams};

    fn design() -> M3dDesign {
        let nl = Benchmark::Tate.generate(&GenParams::small(1));
        let p = PartitionAlgo::MinCut.partition(&nl, 1);
        M3dDesign::new(nl, p)
    }

    #[test]
    fn mivs_map_one_to_one_with_cut_nets() {
        let d = design();
        let cuts = d.partition().cut_nets(d.netlist());
        assert_eq!(cuts.len(), d.miv_count());
        for (i, m) in d.mivs().iter().enumerate() {
            assert_eq!(d.miv_on_net(m.net), Some(i as u32));
            assert!(!d.far_sinks(i as u32).is_empty());
        }
    }

    #[test]
    fn miv_sites_extend_pin_sites() {
        let d = design();
        assert_eq!(d.sites().len(), d.sites().pin_site_count() + d.miv_count());
        for i in 0..d.miv_count() {
            let s = d.miv_site(i);
            assert_eq!(d.tier_of_site(s), None);
            assert!(d.site_touches_miv(s));
        }
    }

    #[test]
    fn far_sinks_are_on_the_other_tier() {
        let d = design();
        for (i, m) in d.mivs().iter().enumerate() {
            for (g, _) in d.far_sinks(i as u32) {
                assert_ne!(d.tier_of_gate(g), m.driver_tier);
            }
        }
    }

    #[test]
    fn random_partition_has_more_mivs_than_min_cut() {
        let nl = Benchmark::Tate.generate(&GenParams::small(1));
        let fm = M3dDesign::new(nl.clone(), PartitionAlgo::MinCut.partition(&nl, 1));
        let rnd = M3dDesign::new(nl.clone(), PartitionAlgo::Random.partition(&nl, 1));
        assert!(rnd.miv_count() > fm.miv_count());
    }

    #[test]
    fn gate_sites_report_their_gate_tier() {
        let d = design();
        for (site, pos) in d.sites().iter() {
            if let Some(g) = pos.gate() {
                assert_eq!(d.tier_of_site(site), Some(d.tier_of_gate(g)));
            }
        }
    }
}
