//! Constant propagation with literal tracking.
//!
//! The gate library has no tie cells, so constants can only arise through
//! *reconvergence*: `Xor(a, a) = 0`, `And(a, !a) = 0`, `Or(a, !a) = 1`,
//! and compositions thereof. To catch those, the abstract value of a net
//! is not just "constant or not" but a small symbolic domain:
//!
//! * [`Value::Const`] — the net provably holds this value for every input
//!   and scan state,
//! * [`Value::Lit`] — the net is provably equal (or complementary) to a
//!   *root* net, enabling the reconvergence rules above,
//! * opaque — nothing is known; an opaque net acts as a literal of itself
//!   when used as an operand.
//!
//! Soundness contract (checked by proptest in `tests/soundness.rs`): a net
//! reported constant never evaluates to the other value under *any*
//! primary-input vector and *any* scan state. This is what lets
//! [`StaticProofs`](crate::StaticProofs) call TDF sites on constant nets
//! untestable — a transition fault needs its site net to toggle between
//! the launch and capture frames, and activation is computed from
//! fault-free values.

use m3d_netlist::{GateId, GateKind, NetId, Netlist};

use crate::framework::forward;

/// Abstract value of a net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value {
    /// Provably constant under every input and scan state.
    Const(bool),
    /// Provably equal to `root` (or its complement when `inv`).
    Lit {
        /// The representative net this net mirrors.
        root: NetId,
        /// Whether this net is the complement of `root`.
        inv: bool,
    },
    /// Nothing known (treated as a literal of the net itself when read).
    Opaque,
}

fn v_not(v: Value) -> Value {
    match v {
        Value::Const(b) => Value::Const(!b),
        Value::Lit { root, inv } => Value::Lit { root, inv: !inv },
        Value::Opaque => Value::Opaque,
    }
}

fn same_root(a: Value, b: Value) -> Option<(bool, bool)> {
    match (a, b) {
        (Value::Lit { root: r1, inv: i1 }, Value::Lit { root: r2, inv: i2 }) if r1 == r2 => {
            Some((i1, i2))
        }
        _ => None,
    }
}

fn v_and(a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::Const(false), _) | (_, Value::Const(false)) => Value::Const(false),
        (Value::Const(true), x) | (x, Value::Const(true)) => x,
        _ => match same_root(a, b) {
            Some((i1, i2)) if i1 == i2 => a,
            Some(_) => Value::Const(false),
            None => Value::Opaque,
        },
    }
}

fn v_or(a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::Const(true), _) | (_, Value::Const(true)) => Value::Const(true),
        (Value::Const(false), x) | (x, Value::Const(false)) => x,
        _ => match same_root(a, b) {
            Some((i1, i2)) if i1 == i2 => a,
            Some(_) => Value::Const(true),
            None => Value::Opaque,
        },
    }
}

fn v_xor(a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::Const(x), Value::Const(y)) => Value::Const(x ^ y),
        (Value::Const(false), v) | (v, Value::Const(false)) => v,
        (Value::Const(true), v) | (v, Value::Const(true)) => v_not(v),
        _ => match same_root(a, b) {
            Some((i1, i2)) => Value::Const(i1 != i2),
            None => Value::Opaque,
        },
    }
}

fn v_mux(s: Value, a: Value, b: Value) -> Value {
    // Equal (known) data inputs short the select entirely.
    if a == b && a != Value::Opaque {
        return a;
    }
    v_or(v_and(v_not(s), a), v_and(s, b))
}

/// Complement-aware fold for variadic AND/OR: any complementary operand
/// pair forces the controlled value regardless of the other operands.
fn fold_ctrl(ops: &[Value], and: bool) -> Value {
    for (i, &x) in ops.iter().enumerate() {
        for &y in &ops[i + 1..] {
            if let Some((i1, i2)) = same_root(x, y) {
                if i1 != i2 {
                    return Value::Const(!and);
                }
            }
        }
    }
    let f = if and { v_and } else { v_or };
    let mut acc = ops[0];
    for &x in &ops[1..] {
        acc = f(acc, x);
    }
    acc
}

/// Per-net constant-propagation results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstProp {
    values: Vec<Value>,
    sweeps: usize,
}

impl ConstProp {
    /// Runs constant propagation over `nl`.
    pub fn compute(nl: &Netlist) -> Self {
        let mut span = m3d_obs::span("dataflow.constprop");
        // Everything starts opaque; primary inputs and flop Q nets (scan
        // loadable) stay opaque, which `operand` reads as self-literals.
        let seed = vec![Value::Opaque; nl.net_count()];
        let fp = forward(nl, seed, |nl, g, ins| {
            let gate = nl.gate(g);
            let ops: Vec<Value> = gate
                .inputs()
                .iter()
                .zip(ins)
                .map(|(&n, &v)| canonical(v, n))
                .collect();
            transfer(gate.kind(), &ops)
        });
        span.add("sweeps", fp.sweeps as u64);
        span.add(
            "constant_nets",
            fp.values
                .iter()
                .filter(|v| matches!(v, Value::Const(_)))
                .count() as u64,
        );
        ConstProp {
            values: fp.values,
            sweeps: fp.sweeps,
        }
    }

    /// The abstract value of a net as an *operand*: opaque nets read as
    /// literals of themselves.
    pub fn operand(&self, net: NetId) -> Value {
        canonical(self.values[net.index()], net)
    }

    /// The proven constant value of a net, if any.
    pub fn constant(&self, net: NetId) -> Option<bool> {
        match self.values[net.index()] {
            Value::Const(b) => Some(b),
            _ => None,
        }
    }

    /// The literal a net provably mirrors, if it aliases another net.
    pub fn alias(&self, net: NetId) -> Option<(NetId, bool)> {
        match self.values[net.index()] {
            Value::Lit { root, inv } if root != net => Some((root, inv)),
            _ => None,
        }
    }

    /// All proven-constant nets with their values, in net order.
    pub fn constant_nets(&self) -> Vec<(NetId, bool)> {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| match v {
                Value::Const(b) => Some((NetId::new(i), *b)),
                _ => None,
            })
            .collect()
    }

    /// Combinational gates whose output is provably constant or a literal
    /// of another net — redundant logic a synthesizer would sweep away.
    /// Single-input gates (`Buf`/`Inv`) are by construction literals and
    /// excluded; they are fan-out repair, not redundancy.
    pub fn redundant_gates(&self, nl: &Netlist) -> Vec<GateId> {
        nl.topo_order()
            .iter()
            .copied()
            .filter(|&g| {
                let gate = nl.gate(g);
                if matches!(gate.kind(), GateKind::Buf | GateKind::Inv) {
                    return false;
                }
                let out = gate.output().expect("combinational gates drive nets");
                !matches!(self.values[out.index()], Value::Opaque)
            })
            .collect()
    }

    /// Sweeps the fixed-point iteration took.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }
}

/// Reads a net's stored value as an operand (opaque → self-literal).
fn canonical(v: Value, net: NetId) -> Value {
    match v {
        Value::Opaque => Value::Lit {
            root: net,
            inv: false,
        },
        other => other,
    }
}

/// The abstract function of a gate over canonicalized operands.
fn transfer(kind: GateKind, ops: &[Value]) -> Value {
    match kind {
        GateKind::Buf => ops[0],
        GateKind::Inv => v_not(ops[0]),
        GateKind::And => fold_ctrl(ops, true),
        GateKind::Nand => v_not(fold_ctrl(ops, true)),
        GateKind::Or => fold_ctrl(ops, false),
        GateKind::Nor => v_not(fold_ctrl(ops, false)),
        GateKind::Xor => v_xor(ops[0], ops[1]),
        GateKind::Xnor => v_not(v_xor(ops[0], ops[1])),
        GateKind::Mux2 => v_mux(ops[0], ops[1], ops[2]),
        GateKind::Aoi21 => v_not(v_or(v_and(ops[0], ops[1]), ops[2])),
        GateKind::Oai21 => v_not(v_and(v_or(ops[0], ops[1]), ops[2])),
        GateKind::Input | GateKind::Output | GateKind::Dff => {
            unreachable!("only combinational gates are transferred")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::NetlistBuilder;

    #[test]
    fn reconvergent_xor_is_constant_zero() {
        let mut b = NetlistBuilder::new("xor-same");
        let a = b.add_input("a");
        let q = b.add_dff(a);
        let x = b.add_gate(GateKind::Xor, &[q, q]);
        let y = b.add_gate(GateKind::Or, &[x, q]);
        let f = b.add_dff(y);
        b.add_output("f", f);
        let nl = b.finish().expect("valid");
        let cp = ConstProp::compute(&nl);
        assert_eq!(cp.constant(x), Some(false));
        // Or(0, q) collapses to the literal q.
        assert_eq!(cp.alias(y), Some((q, false)));
        assert_eq!(cp.constant_nets(), vec![(x, false)]);
        // Both the XOR and the OR are redundant logic.
        assert_eq!(cp.redundant_gates(&nl).len(), 2);
    }

    #[test]
    fn complementary_pair_controls_and_or() {
        let mut b = NetlistBuilder::new("compl");
        let a = b.add_input("a");
        let q = b.add_dff(a);
        let nq = b.add_gate(GateKind::Inv, &[q]);
        let z = b.add_gate(GateKind::And, &[q, nq]);
        let o = b.add_gate(GateKind::Or, &[q, nq]);
        let m = b.add_gate(GateKind::Xor, &[z, o]);
        let f = b.add_dff(m);
        b.add_output("f", f);
        let nl = b.finish().expect("valid");
        let cp = ConstProp::compute(&nl);
        assert_eq!(cp.constant(z), Some(false));
        assert_eq!(cp.constant(o), Some(true));
        // Xor(0, 1) folds all the way down.
        assert_eq!(cp.constant(m), Some(true));
        // Inv is a literal by construction, not redundancy.
        assert!(!cp.redundant_gates(&nl).contains(&nl.net(nq).driver()));
    }

    #[test]
    fn complement_detected_across_nonadjacent_variadic_pins() {
        let mut b = NetlistBuilder::new("varargs");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let q = b.add_dff(a);
        let r = b.add_dff(c);
        let nq = b.add_gate(GateKind::Inv, &[q]);
        // Complementary pair on pins 0 and 2.
        let z = b.add_gate(GateKind::And, &[q, r, nq]);
        let f = b.add_dff(z);
        b.add_output("f", f);
        let nl = b.finish().expect("valid");
        let cp = ConstProp::compute(&nl);
        assert_eq!(cp.constant(z), Some(false));
    }

    #[test]
    fn mux_with_equal_data_ignores_select() {
        let mut b = NetlistBuilder::new("mux-eq");
        let s = b.add_input("s");
        let a = b.add_input("a");
        let qs = b.add_dff(s);
        let qa = b.add_dff(a);
        let m = b.add_gate(GateKind::Mux2, &[qs, qa, qa]);
        let x = b.add_gate(GateKind::Xor, &[m, qa]);
        let f = b.add_dff(x);
        b.add_output("f", f);
        let nl = b.finish().expect("valid");
        let cp = ConstProp::compute(&nl);
        assert_eq!(cp.alias(m), Some((qa, false)));
        assert_eq!(cp.constant(x), Some(false));
    }

    #[test]
    fn ordinary_logic_stays_opaque() {
        let mut b = NetlistBuilder::new("plain");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let q = b.add_dff(a);
        let r = b.add_dff(c);
        let x = b.add_gate(GateKind::Nand, &[q, r]);
        let f = b.add_dff(x);
        b.add_output("f", f);
        let nl = b.finish().expect("valid");
        let cp = ConstProp::compute(&nl);
        assert_eq!(cp.constant(x), None);
        assert_eq!(cp.alias(x), None);
        assert!(cp.constant_nets().is_empty());
        assert!(cp.redundant_gates(&nl).is_empty());
    }
}
