//! Static untestable-fault proofs for the TDF universe.
//!
//! A transition-delay fault needs three things to be detected under the
//! held-PI launch-on-capture scheme: its site net must *toggle* between
//! the two frames (launch), the toggle must match the fault polarity, and
//! the delayed value must *reach a scan capture point* (a flop D pin).
//! Three per-site proofs rule classes of faults out statically:
//!
//! * [`UntestableClass::ConstantSite`] — the site net is proven constant
//!   by [`ConstProp`]; activation is computed from fault-free frame
//!   values, so a constant net never toggles and the fault can never
//!   activate.
//! * [`UntestableClass::NoLaunch`] — the site net is not sequentially
//!   driven (no flop output in its cone); with primary inputs held across
//!   frames, the net holds its value.
//! * [`UntestableClass::NoCapture`] — no structural path from the fault's
//!   injection point to any flop D pin.
//!
//! Soundness matters more than strength here: `m3d-diag verify` and the
//! `L11xx` lint findings report every proven site as a fault no pattern
//! can detect, so a proof must never claim a detectable fault. In
//! particular the capture proof is purely structural — a
//! statically-constant side input must **not** be used to refine it,
//! because a fault scoped to one branch of a reconvergent pair (e.g. one
//! input of `And(s, !s)`) changes that branch's *faulty* value, and the
//! "constant" net then carries the fault effect even though its
//! fault-free value never moves.

use m3d_netlist::{NetId, SiteId, SitePos};
use m3d_part::M3dDesign;
use m3d_tdf::site_net;

use crate::constprop::ConstProp;
use crate::framework::{backward, forward};

/// Why a fault site is statically untestable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UntestableClass {
    /// The site net is provably constant: the activation condition
    /// (a launch-to-capture toggle of the fault-free value) never holds.
    ConstantSite,
    /// The site net is not sequentially driven and cannot toggle with
    /// primary inputs held across the two frames.
    NoLaunch,
    /// The fault effect has no structural path to a scan capture point.
    NoCapture,
}

impl UntestableClass {
    /// Stable lowercase name for reports and baselines.
    pub fn name(self) -> &'static str {
        match self {
            UntestableClass::ConstantSite => "constant-site",
            UntestableClass::NoLaunch => "no-launch",
            UntestableClass::NoCapture => "no-capture",
        }
    }
}

/// The static untestability verdicts for every site of a design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticProofs {
    class: Vec<Option<UntestableClass>>,
    may_transition: Vec<bool>,
    captures: Vec<bool>,
}

impl StaticProofs {
    /// Proves untestability per site, given constant-propagation results
    /// for the same netlist.
    pub fn compute(design: &M3dDesign, cp: &ConstProp) -> Self {
        let mut span = m3d_obs::span("dataflow.untestable");
        let nl = design.netlist();

        // Forward: nets that can differ between the two frames. Flop Q
        // nets can (scan loads the launch state); a proven-constant net
        // never can, whatever drives it.
        let mut seed = vec![false; nl.net_count()];
        for &f in nl.flops() {
            seed[nl.gate(f).output().expect("flops drive nets").index()] = true;
        }
        let fwd = forward(nl, seed, |nl, g, ins| {
            let out = nl.gate(g).output().expect("combinational gates drive nets");
            cp.constant(out).is_none() && ins.iter().any(|&b| b)
        });
        let may_transition = fwd.values;

        // Backward: nets from which a value change can structurally reach
        // a flop D pin. No constant refinement — see the module docs.
        let mut seed = vec![false; nl.net_count()];
        for &f in nl.flops() {
            seed[nl.gate(f).inputs()[0].index()] = true;
        }
        let bwd = backward(nl, &seed, |&a, &b| a || b, |_, _, _, &out| out);
        let captures = bwd.values;

        let class = design
            .sites()
            .iter()
            .map(|(site, pos)| classify(design, cp, &may_transition, &captures, site, pos))
            .collect();
        let proofs = StaticProofs {
            class,
            may_transition,
            captures,
        };
        span.add("sweeps", (fwd.sweeps + bwd.sweeps) as u64);
        span.add("untestable_sites", proofs.untestable_count() as u64);
        proofs
    }

    /// The untestability verdict for a site (`None` = possibly testable).
    #[inline]
    pub fn class(&self, site: SiteId) -> Option<UntestableClass> {
        self.class[site.index()]
    }

    /// Per-site verdicts in site order.
    #[inline]
    pub fn classes(&self) -> &[Option<UntestableClass>] {
        &self.class
    }

    /// Number of sites proven untestable.
    pub fn untestable_count(&self) -> usize {
        self.class.iter().filter(|c| c.is_some()).count()
    }

    /// Whether a net can toggle between the launch and capture frames.
    #[inline]
    pub fn may_transition(&self, net: NetId) -> bool {
        self.may_transition[net.index()]
    }

    /// Whether a change on a net can structurally reach a capture point.
    #[inline]
    pub fn captures(&self, net: NetId) -> bool {
        self.captures[net.index()]
    }

    /// Per-fault verdicts aligned with
    /// [`full_fault_list`](m3d_tdf::full_fault_list): `true` means the
    /// fault is proven undetectable (both polarities of a site share its
    /// verdict).
    pub fn prunable_faults(&self) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.class.len() * 2);
        for c in &self.class {
            let skip = c.is_some();
            out.push(skip);
            out.push(skip);
        }
        out
    }
}

/// Classifies one site. Priority: constant proof (strongest — it also
/// explains why the launch analysis marked the net frozen), then launch,
/// then capture.
fn classify(
    design: &M3dDesign,
    cp: &ConstProp,
    may_transition: &[bool],
    captures: &[bool],
    site: SiteId,
    pos: SitePos,
) -> Option<UntestableClass> {
    let nl = design.netlist();
    let net = site_net(design, site);
    if cp.constant(net).is_some() {
        return Some(UntestableClass::ConstantSite);
    }
    if !may_transition[net.index()] {
        return Some(UntestableClass::NoLaunch);
    }
    // Capture depends on where the delayed value is injected, which
    // differs per site kind (stem vs branch vs far-tier branches).
    let branch_captures = |(g, _pin): (m3d_netlist::GateId, u8)| -> bool {
        let gate = nl.gate(g);
        match gate.kind() {
            m3d_netlist::GateKind::Dff => true,
            m3d_netlist::GateKind::Output => false,
            _ => captures[gate.output().expect("combinational").index()],
        }
    };
    let captured = match pos {
        SitePos::Output(_) => nl.net(net).sinks().iter().copied().any(branch_captures),
        SitePos::Input(g, pin) => branch_captures((g, pin)),
        SitePos::Miv(m) => design.far_sinks(m).into_iter().any(branch_captures),
    };
    if !captured {
        return Some(UntestableClass::NoCapture);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::generate::Benchmark;
    use m3d_part::DesignConfig;
    use m3d_tdf::testable_sites;

    #[test]
    fn refines_structural_testability() {
        // The static proofs must be at least as strong as the structural
        // testability the ATPG already uses, and may only go further via
        // constant proofs (the capture analysis is purely structural).
        let d = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let cp = ConstProp::compute(d.netlist());
        let proofs = StaticProofs::compute(&d, &cp);
        let structural = testable_sites(&d);
        for (site, _) in d.sites().iter() {
            let class = proofs.class(site);
            if !structural[site.index()] {
                assert!(class.is_some(), "structurally untestable {site:?} proven");
            }
            if class == Some(UntestableClass::NoCapture) {
                assert!(
                    !structural[site.index()],
                    "capture proofs never exceed the structural analysis"
                );
            }
        }
        assert!(proofs.untestable_count() > 0, "some sites are untestable");
    }

    #[test]
    fn prunable_faults_align_with_fault_list() {
        let d = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let cp = ConstProp::compute(d.netlist());
        let proofs = StaticProofs::compute(&d, &cp);
        let faults = m3d_tdf::full_fault_list(&d);
        let skip = proofs.prunable_faults();
        assert_eq!(skip.len(), faults.len());
        for (f, &s) in faults.iter().zip(&skip) {
            assert_eq!(s, proofs.class(f.site).is_some());
        }
    }
}
