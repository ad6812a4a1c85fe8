//! SCOAP testability measures: combinational controllability and
//! observability.
//!
//! The classic Goldstein metrics over the scan view of the design:
//!
//! * `CC0(n)` / `CC1(n)` — the number of pin assignments needed to set net
//!   `n` to 0 / 1. Scan makes every flop output a pseudo primary input, so
//!   PI nets and flop Q nets cost 1.
//! * `CO(n)` — the number of pin assignments needed to propagate a change
//!   on net `n` to a capture point (a flop D pin; primary outputs are not
//!   strobed at speed, consistent with the TDF capture model of
//!   `m3d_tdf::testable_sites`).
//!
//! Values saturate; [`INF`] marks "not achievable" (e.g. observability of
//! a net with no path to any capture point). The measures feed the
//! `m3d-diag verify` report.

use m3d_netlist::{GateId, GateKind, NetId, Netlist, SiteId, SitePos};
use m3d_part::M3dDesign;

use crate::framework::{backward, forward};

/// Sentinel for an unachievable controllability/observability value.
pub const INF: u32 = u32::MAX;

/// Saturating add that preserves [`INF`].
#[inline]
fn add(a: u32, b: u32) -> u32 {
    a.saturating_add(b)
}

/// SCOAP testability of one fault site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteScoap {
    /// 0-controllability of the site's net.
    pub cc0: u32,
    /// 1-controllability of the site's net.
    pub cc1: u32,
    /// Observability of the site (pin-accurate for input-pin sites).
    pub co: u32,
}

/// Per-net SCOAP measures for a netlist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scoap {
    /// `[cc0, cc1]` per net.
    cc: Vec<[u32; 2]>,
    co: Vec<u32>,
}

/// Controllability `[cc0, cc1]` of a gate output from its input pairs.
fn ctrl(kind: GateKind, ins: &[[u32; 2]]) -> [u32; 2] {
    let sum0 = || ins.iter().fold(0u32, |a, v| add(a, v[0]));
    let sum1 = || ins.iter().fold(0u32, |a, v| add(a, v[1]));
    let min0 = || ins.iter().map(|v| v[0]).min().unwrap_or(INF);
    let min1 = || ins.iter().map(|v| v[1]).min().unwrap_or(INF);
    let [raw0, raw1] = match kind {
        GateKind::Buf => [ins[0][0], ins[0][1]],
        GateKind::Inv => [ins[0][1], ins[0][0]],
        GateKind::And => [min0(), sum1()],
        GateKind::Nand => [sum1(), min0()],
        GateKind::Or => [sum0(), min1()],
        GateKind::Nor => [min1(), sum0()],
        GateKind::Xor => {
            let (a, b) = (ins[0], ins[1]);
            [
                add(a[0], b[0]).min(add(a[1], b[1])),
                add(a[0], b[1]).min(add(a[1], b[0])),
            ]
        }
        GateKind::Xnor => {
            let (a, b) = (ins[0], ins[1]);
            [
                add(a[0], b[1]).min(add(a[1], b[0])),
                add(a[0], b[0]).min(add(a[1], b[1])),
            ]
        }
        // Pins are (select, a, b); output follows `a` when select = 0.
        GateKind::Mux2 => {
            let (s, a, b) = (ins[0], ins[1], ins[2]);
            [
                add(s[0], a[0]).min(add(s[1], b[0])),
                add(s[0], a[1]).min(add(s[1], b[1])),
            ]
        }
        // !((a & b) | c)
        GateKind::Aoi21 => {
            let (a, b, c) = (ins[0], ins[1], ins[2]);
            [add(a[1], b[1]).min(c[1]), add(a[0].min(b[0]), c[0])]
        }
        // !((a | b) & c)
        GateKind::Oai21 => {
            let (a, b, c) = (ins[0], ins[1], ins[2]);
            [add(a[1].min(b[1]), c[1]), add(a[0], b[0]).min(c[0])]
        }
        GateKind::Input | GateKind::Output | GateKind::Dff => {
            unreachable!("only combinational gates are transferred")
        }
    };
    [
        if raw0 == INF { INF } else { add(raw0, 1) },
        if raw1 == INF { INF } else { add(raw1, 1) },
    ]
}

/// Cost of sensitizing the side inputs of `gate` so that a change on input
/// `pin` propagates to the output ([`INF`] if no sensitization exists).
fn side_cost(cc: &[[u32; 2]], nl: &Netlist, gate: GateId, pin: usize) -> u32 {
    let g = nl.gate(gate);
    let at = |p: usize| cc[g.inputs()[p].index()];
    let others = || {
        g.inputs()
            .iter()
            .enumerate()
            .filter(|&(p, _)| p != pin)
            .map(|(_, &n)| cc[n.index()])
    };
    match g.kind() {
        GateKind::Buf | GateKind::Inv => 0,
        // Side inputs must be non-controlling.
        GateKind::And | GateKind::Nand => others().fold(0u32, |a, v| add(a, v[1])),
        GateKind::Or | GateKind::Nor => others().fold(0u32, |a, v| add(a, v[0])),
        GateKind::Xor | GateKind::Xnor => {
            let o = at(1 - pin);
            o[0].min(o[1])
        }
        GateKind::Mux2 => {
            let (s, a, b) = (at(0), at(1), at(2));
            match pin {
                // A select change is visible only when the data inputs
                // differ.
                0 => add(a[1], b[0]).min(add(a[0], b[1])),
                // Data pin `a` needs select = 0; `b` needs select = 1.
                1 => s[0],
                _ => s[1],
            }
        }
        GateKind::Aoi21 => {
            let (a, b, c) = (at(0), at(1), at(2));
            match pin {
                0 => add(b[1], c[0]),
                1 => add(a[1], c[0]),
                _ => a[0].min(b[0]),
            }
        }
        GateKind::Oai21 => {
            let (a, b, c) = (at(0), at(1), at(2));
            match pin {
                0 => add(b[0], c[1]),
                1 => add(a[0], c[1]),
                _ => a[1].min(b[1]),
            }
        }
        GateKind::Input | GateKind::Output | GateKind::Dff => {
            unreachable!("pseudo cells and flops have no propagation cost")
        }
    }
}

impl Scoap {
    /// Computes SCOAP measures for the scan view of `nl`.
    pub fn compute(nl: &Netlist) -> Self {
        let mut span = m3d_obs::span("dataflow.scoap");
        let n = nl.net_count();

        // Forward controllability. Boundary: PI nets and flop Q nets cost 1.
        let mut seed = vec![[INF, INF]; n];
        for &g in nl.inputs().iter().chain(nl.flops()) {
            let out = nl.gate(g).output().expect("inputs and flops drive nets");
            seed[out.index()] = [1, 1];
        }
        let fwd = forward(nl, seed, |nl, g, ins| ctrl(nl.gate(g).kind(), ins));
        let cc = fwd.values;

        // Backward observability to scan capture (flop D pins), meet = min.
        let mut seed = vec![INF; n];
        for &f in nl.flops() {
            seed[nl.gate(f).inputs()[0].index()] = 0;
        }
        let bwd = backward(
            nl,
            &seed,
            |a, b| *a.min(b),
            |nl, g, pin, &out_co| {
                if out_co == INF {
                    INF
                } else {
                    add(add(out_co, side_cost(&cc, nl, g, pin)), 1)
                }
            },
        );

        span.add("nets", n as u64);
        span.add("sweeps", (fwd.sweeps + bwd.sweeps) as u64);
        Scoap { cc, co: bwd.values }
    }

    /// 0-controllability of a net.
    #[inline]
    pub fn cc0(&self, net: NetId) -> u32 {
        self.cc[net.index()][0]
    }

    /// 1-controllability of a net.
    #[inline]
    pub fn cc1(&self, net: NetId) -> u32 {
        self.cc[net.index()][1]
    }

    /// Observability of a net (stem observability: cost of the cheapest
    /// path from the net to a capture point).
    #[inline]
    pub fn co(&self, net: NetId) -> u32 {
        self.co[net.index()]
    }

    /// Observability of one input pin of a gate: the cost of propagating a
    /// change on that pin through the gate and onward to a capture point.
    /// Flop D pins are capture points (cost 0); `Output` pins are never
    /// observed at speed ([`INF`]).
    pub fn pin_observability(&self, nl: &Netlist, gate: GateId, pin: usize) -> u32 {
        let g = nl.gate(gate);
        match g.kind() {
            GateKind::Dff => 0,
            GateKind::Output => INF,
            _ => {
                let out = g.output().expect("combinational gates drive nets");
                let out_co = self.co[out.index()];
                if out_co == INF {
                    return INF;
                }
                add(add(out_co, side_cost(&self.cc, nl, gate, pin)), 1)
            }
        }
    }

    /// SCOAP measures of a fault site. Output-pin and MIV sites use the
    /// stem observability of the site net; input-pin sites use the
    /// pin-accurate observability.
    pub fn site_measures(&self, design: &M3dDesign, site: SiteId) -> SiteScoap {
        let nl = design.netlist();
        let net = m3d_tdf::site_net(design, site);
        let co = match design.sites().pos(site) {
            SitePos::Input(g, pin) => self.pin_observability(nl, g, pin as usize),
            SitePos::Output(_) | SitePos::Miv(_) => self.co[net.index()],
        };
        SiteScoap {
            cc0: self.cc0(net),
            cc1: self.cc1(net),
            co,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn boundary_nets_cost_one_and_gates_accumulate() {
        let mut b = NetlistBuilder::new("scoap");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let q = b.add_dff(a);
        let x = b.add_gate(GateKind::And, &[q, c]);
        let y = b.add_dff(x);
        b.add_output("y", y);
        let nl = b.finish().expect("valid");
        let s = Scoap::compute(&nl);
        assert_eq!((s.cc0(a), s.cc1(a)), (1, 1));
        assert_eq!((s.cc0(q), s.cc1(q)), (1, 1));
        // And: cc1 = 1 + 1 + 1 = 3, cc0 = min(1, 1) + 1 = 2.
        assert_eq!((s.cc0(x), s.cc1(x)), (2, 3));
        // x is a flop D net: directly captured.
        assert_eq!(s.co(x), 0);
        // Observing q requires c = 1 (cost 1) plus the gate traversal.
        assert_eq!(s.co(q), 2);
    }

    #[test]
    fn unobservable_nets_are_inf() {
        let mut b = NetlistBuilder::new("po-only");
        let a = b.add_input("a");
        let q = b.add_dff(a);
        let x = b.add_gate(GateKind::Inv, &[q]);
        b.add_output("x", x);
        let nl = b.finish().expect("valid");
        let s = Scoap::compute(&nl);
        // x only reaches a primary output, which is not strobed at speed.
        assert_eq!(s.co(x), INF);
    }

    #[test]
    fn xor_controllability_pairs_min_over_parities() {
        let mut b = NetlistBuilder::new("xor");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let x = b.add_gate(GateKind::Xor, &[a, c]);
        let q = b.add_dff(x);
        b.add_output("q", q);
        let nl = b.finish().expect("valid");
        let s = Scoap::compute(&nl);
        // cc1 = min(1+1, 1+1) + 1 = 3; cc0 likewise.
        assert_eq!((s.cc0(x), s.cc1(x)), (3, 3));
    }

    #[test]
    fn pin_observability_accounts_for_side_inputs() {
        let mut b = NetlistBuilder::new("pin-obs");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let q = b.add_dff(a);
        let x = b.add_gate(GateKind::And, &[q, c]);
        let y = b.add_dff(x);
        b.add_output("y", y);
        let nl = b.finish().expect("valid");
        let s = Scoap::compute(&nl);
        let and_gate = nl.net(x).driver();
        // Propagating pin 0 of the AND needs pin 1 at 1: cost cc1(c) + 1.
        assert_eq!(s.pin_observability(&nl, and_gate, 0), 2);
        // The flop D pin is a capture point.
        let flop = nl.net(y).driver();
        assert_eq!(s.pin_observability(&nl, flop, 0), 0);
    }
}
