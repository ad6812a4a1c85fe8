//! The transition-delay fault model.

use m3d_netlist::{NetId, SiteId, SitePos};
use m3d_part::M3dDesign;

/// Transition polarity of a delay fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Polarity {
    /// Slow-to-rise: a 0→1 transition arrives late.
    SlowToRise,
    /// Slow-to-fall: a 1→0 transition arrives late.
    SlowToFall,
}

impl Polarity {
    /// Both polarities.
    pub const ALL: [Polarity; 2] = [Polarity::SlowToRise, Polarity::SlowToFall];

    /// Lanes (patterns) in which a site that transitions in `trans`
    /// ([`crate::GoodMachine::transitions`]) and has capture value `f2`
    /// has the sensitizing transition for this polarity: a rise ends at 1,
    /// a fall at 0.
    #[inline]
    pub fn activation(self, trans: u64, f2: u64) -> u64 {
        match self {
            Polarity::SlowToRise => trans & f2,
            Polarity::SlowToFall => trans & !f2,
        }
    }
}

/// A single transition-delay fault at a site.
///
/// # Examples
///
/// ```
/// use m3d_netlist::SiteId;
/// use m3d_tdf::{Fault, Polarity};
///
/// let f = Fault::new(SiteId::new(3), Polarity::SlowToRise);
/// assert_eq!(f.site, SiteId::new(3));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// The fault site (gate pin or MIV).
    pub site: SiteId,
    /// The slow transition direction.
    pub polarity: Polarity,
}

impl Fault {
    /// Creates a fault.
    pub fn new(site: SiteId, polarity: Polarity) -> Self {
        Fault { site, polarity }
    }
}

/// Where a fault's delayed value is seen during frame-2 propagation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InjectionScope {
    /// The whole net (output-pin faults delay the stem).
    Net(NetId),
    /// A single fan-out branch (input-pin faults delay one pin).
    Branch(m3d_netlist::GateId, u8),
    /// The far-tier branches of a cut net (MIV faults delay the crossing).
    MivBranches(Vec<(m3d_netlist::GateId, u8)>),
}

/// The net whose fault-free value determines a site's transitions.
pub fn site_net(design: &M3dDesign, site: SiteId) -> NetId {
    match design.sites().pos(site) {
        SitePos::Output(g) => design
            .netlist()
            .gate(g)
            .output()
            .expect("output sites exist only on driving gates"),
        SitePos::Input(g, pin) => design.netlist().gate(g).inputs()[pin as usize],
        SitePos::Miv(m) => design.mivs()[m as usize].net,
    }
}

/// The injection scope of a fault at a site.
pub fn injection_scope(design: &M3dDesign, site: SiteId) -> InjectionScope {
    match design.sites().pos(site) {
        SitePos::Output(g) => InjectionScope::Net(
            design
                .netlist()
                .gate(g)
                .output()
                .expect("output sites exist only on driving gates"),
        ),
        SitePos::Input(g, pin) => InjectionScope::Branch(g, pin),
        SitePos::Miv(m) => InjectionScope::MivBranches(design.far_sinks(m)),
    }
}

/// The complete single-fault universe of a design: both polarities at every
/// pin site and every MIV site.
pub fn full_fault_list(design: &M3dDesign) -> Vec<Fault> {
    let mut faults = Vec::with_capacity(design.sites().len() * 2);
    for (site, _) in design.sites().iter() {
        for pol in Polarity::ALL {
            faults.push(Fault::new(site, pol));
        }
    }
    faults
}

/// Structural testability of every site under held-PI launch-on-capture.
///
/// A TDF is testable only if its site can *transition* (its cone contains a
/// flop output — primary inputs are held across the launch/capture frames)
/// and its effect can *reach a scan capture point* (a flop D pin; primary
/// outputs are not strobed at speed). Faults failing either condition are
/// the ATPG-untestable class a commercial tool excludes from test coverage.
pub fn testable_sites(design: &M3dDesign) -> Vec<bool> {
    let nl = design.netlist();

    // Nets whose value can differ between frames: driven (transitively)
    // by at least one flop Q.
    let mut net_seq = vec![false; nl.net_count()];
    for &f in nl.flops() {
        let out = nl.gate(f).output().expect("flops drive nets");
        net_seq[out.index()] = true;
    }
    for &g in nl.topo_order() {
        let gate = nl.gate(g);
        if gate.inputs().iter().any(|&n| net_seq[n.index()]) {
            let out = gate.output().expect("combinational gates drive nets");
            net_seq[out.index()] = true;
        }
    }

    // Gates from which a fault effect reaches some flop D pin.
    let mut reaches = vec![false; nl.gate_count()];
    for &f in nl.flops() {
        reaches[f.index()] = true;
    }
    for &g in nl.topo_order().iter().rev() {
        if nl.fanout_gates(g).any(|s| reaches[s.index()]) {
            reaches[g.index()] = true;
        }
    }

    design
        .sites()
        .iter()
        .map(|(site, pos)| {
            let net = site_net(design, site);
            if !net_seq[net.index()] {
                return false;
            }
            match pos {
                SitePos::Output(g) => nl
                    .net(nl.gate(g).output().expect("output site"))
                    .sinks()
                    .iter()
                    .any(|&(s, _)| reaches[s.index()]),
                SitePos::Input(g, _) => reaches[g.index()],
                SitePos::Miv(m) => design.far_sinks(m).iter().any(|&(s, _)| reaches[s.index()]),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::generate::Benchmark;
    use m3d_part::DesignConfig;

    #[test]
    fn activation_masks_are_disjoint_and_cover_transitions() {
        let f1 = 0b0011u64;
        let f2 = 0b0101u64;
        let str_mask = Polarity::SlowToRise.activation(f1 ^ f2, f2);
        let stf_mask = Polarity::SlowToFall.activation(f1 ^ f2, f2);
        assert_eq!(str_mask & stf_mask, 0);
        assert_eq!(str_mask | stf_mask, f1 ^ f2);
        assert_eq!(str_mask, 0b0100);
        assert_eq!(stf_mask, 0b0010);
    }

    #[test]
    fn fault_list_covers_every_site_twice() {
        let d = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let faults = full_fault_list(&d);
        assert_eq!(faults.len(), d.sites().len() * 2);
    }

    #[test]
    fn miv_faults_scope_to_far_branches() {
        let d = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        assert!(d.miv_count() > 0);
        let site = d.miv_site(0);
        match injection_scope(&d, site) {
            InjectionScope::MivBranches(branches) => {
                assert!(!branches.is_empty());
                for (g, _) in branches {
                    assert_ne!(
                        d.tier_of_gate(g),
                        d.mivs()[0].driver_tier,
                        "MIV delays only far-tier branches"
                    );
                }
            }
            other => panic!("expected MIV scope, got {other:?}"),
        }
        assert_eq!(site_net(&d, site), d.mivs()[0].net);
    }
}
