//! Diagnostic codes, severities, and spans.

use std::fmt;

use m3d_netlist::{FlopId, GateId, NetId, SiteId};

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Stylistic or informational; never affects cleanliness.
    Info,
    /// Suspicious but representable structure; a clean report may carry
    /// warnings.
    Warn,
    /// A hard invariant violation; downstream passes may panic or produce
    /// garbage.
    Error,
}

impl Severity {
    /// Lower-case name as rendered in reports (`error`, `warning`, `info`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

macro_rules! lint_codes {
    ($($(#[$meta:meta])* $variant:ident = ($code:literal, $sev:ident, $summary:literal),)+) => {
        /// Stable diagnostic codes, one per implemented check.
        ///
        /// Codes are grouped by pass family: `L00xx` netlist DRC, `L01xx`
        /// M3D partition/MIV checks, `L02xx` DFT scan/TPI checks, `L03xx`
        /// graph-tensor checks. Codes are never renumbered; retired checks
        /// leave holes. L1001–L1201, the retired dataflow findings, are
        /// never reused. The full catalogue lives in `DESIGN.md`.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum LintCode {
            $($(#[$meta])* $variant,)+
        }

        impl LintCode {
            /// Every implemented code, ascending.
            pub const ALL: &'static [LintCode] = &[$(LintCode::$variant,)+];

            /// The stable `L0xxx` code string.
            pub fn code(self) -> &'static str {
                match self { $(LintCode::$variant => $code,)+ }
            }

            /// The default severity of the check.
            pub fn severity(self) -> Severity {
                match self { $(LintCode::$variant => Severity::$sev,)+ }
            }

            /// One-line description of what the check catches.
            pub fn summary(self) -> &'static str {
                match self { $(LintCode::$variant => $summary,)+ }
            }
        }
    };
}

lint_codes! {
    /// The combinational core contains a cycle.
    CombinationalLoop = ("L0001", Error, "combinational feedback loop"),
    /// A net has no sinks.
    DanglingNet = ("L0002", Error, "net with no fan-out branches"),
    /// A gate, net, edge, or site references an object that does not exist.
    UnknownRef = ("L0003", Error, "dangling reference to a nonexistent object"),
    /// A gate has an illegal number of input pins for its kind.
    ArityViolation = ("L0004", Error, "illegal pin count for the gate kind"),
    /// Output connectivity is illegal: a driving gate without an output
    /// net, or an `Output` pseudo cell with one.
    OutputPinViolation = ("L0005", Error, "illegal output-pin connectivity"),
    /// Net driver/sink tables disagree with gate pin lists (includes
    /// multi-driven nets).
    CrossRefMismatch = ("L0006", Error, "net/pin cross-reference mismatch"),
    /// The same `(gate, pin)` branch appears twice on one net.
    DuplicateSink = ("L0007", Error, "duplicated fan-out branch"),
    /// The design has no flip-flops; scan test is impossible.
    NoFlops = ("L0008", Error, "design without flip-flops"),
    /// A combinational gate reaches no primary output or flop D pin.
    UnobservableGate = ("L0009", Warn, "dead logic cone"),
    /// The design has no primary inputs.
    NoPrimaryInputs = ("L0010", Warn, "design without primary inputs"),
    /// The design has no primary outputs.
    NoPrimaryOutputs = ("L0011", Warn, "design without primary outputs"),
    /// An inter-tier (cut) net has no MIV assigned.
    MissingMiv = ("L0101", Error, "cut net without an MIV"),
    /// An MIV sits on a net that is not cut, or records the wrong driver
    /// tier, or the MIV table disagrees with the per-net index.
    SpuriousMiv = ("L0102", Error, "MIV on an uncut net or wrong tier"),
    /// An MIV whose net has no sink on the far tier.
    MivWithoutFarSinks = ("L0103", Error, "MIV crossing to no far-tier sink"),
    /// The fault-site table disagrees with the netlist pins + MIV count.
    SiteTableMismatch = ("L0104", Error, "site table out of sync with design"),
    /// Tier areas are imbalanced beyond the accepted bound.
    TierImbalance = ("L0105", Warn, "tier area imbalance above bound"),
    /// The partition's tier vector length disagrees with the gate count.
    PartitionSizeMismatch = ("L0106", Error, "partition covers wrong gate count"),
    /// A pseudo I/O cell is not pinned to the bottom tier.
    PseudoCellTier = ("L0107", Info, "pseudo I/O cell off the bottom tier"),
    /// A flip-flop of the netlist appears in no scan chain.
    UnscannedFlop = ("L0201", Error, "flop unreachable by scan"),
    /// A flip-flop appears more than once across the scan chains.
    DuplicateScanFlop = ("L0202", Error, "flop stitched into scan twice"),
    /// A scan chain references a flop the netlist does not have.
    UnknownScanFlop = ("L0203", Error, "scan chain names a nonexistent flop"),
    /// Scan chain lengths differ by more than one.
    ChainImbalance = ("L0204", Warn, "unbalanced scan chains"),
    /// A TPI observation flop taps a source-driven (easy) net.
    WeakObservationPoint = ("L0205", Warn, "observation point on an easy net"),
    /// A feature-matrix entry is NaN or infinite.
    NonFiniteFeature = ("L0301", Error, "non-finite feature value"),
    /// The feature matrix does not have the Table II column count.
    FeatureShape = ("L0302", Error, "feature matrix with wrong shape"),
    /// A feature value falls outside its column's expected range.
    FeatureRange = ("L0303", Warn, "feature value out of expected range"),
    /// A sub-graph's site list is unsorted or contains duplicates.
    UnsortedSites = ("L0304", Error, "sub-graph site list unsorted"),
    /// A sub-graph MIV node is out of range or not an MIV site.
    BadMivNode = ("L0305", Error, "invalid MIV node in sub-graph"),
    /// A diagnosis sample's labels disagree with its design or injection.
    LabelMismatch = ("L0306", Error, "sample label/candidate inconsistency"),
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// What a diagnostic points at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// The design as a whole.
    Design,
    /// A gate.
    Gate(GateId),
    /// A net.
    Net(NetId),
    /// A flip-flop.
    Flop(FlopId),
    /// A fault site.
    Site(SiteId),
    /// An MIV by index.
    Miv(u32),
    /// A scan chain by index.
    Chain(u16),
    /// A graph node by index.
    Node(usize),
    /// One feature-matrix cell.
    Feature {
        /// Node (row) index.
        node: usize,
        /// Feature (column) index.
        col: usize,
    },
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Design => write!(f, "design"),
            Span::Gate(g) => write!(f, "gate {g}"),
            Span::Net(n) => write!(f, "net {n}"),
            Span::Flop(x) => write!(f, "flop {x}"),
            Span::Site(s) => write!(f, "site {s}"),
            Span::Miv(m) => write!(f, "miv {m}"),
            Span::Chain(c) => write!(f, "chain {c}"),
            Span::Node(v) => write!(f, "node {v}"),
            Span::Feature { node, col } => write!(f, "node {node} col {col}"),
        }
    }
}

/// One finding: a code, its severity, the object it names, and a message.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// The stable check code.
    pub code: LintCode,
    /// Severity (defaults to [`LintCode::severity`]).
    pub severity: Severity,
    /// The offending object.
    pub span: Span,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic at the code's default severity.
    pub fn new(code: LintCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}\n  --> {}",
            self.severity, self.code, self.message, self.span
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = Vec::new();
        for &c in LintCode::ALL {
            let code = c.code();
            assert!(code.starts_with('L') && code.len() == 5, "{code}");
            assert!(!seen.contains(&code), "duplicate {code}");
            seen.push(code);
            assert!(!c.summary().is_empty());
        }
    }

    #[test]
    fn codes_are_ascending_in_declaration_order() {
        let codes: Vec<&str> = LintCode::ALL.iter().map(|c| c.code()).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        assert_eq!(codes, sorted);
    }

    #[test]
    fn severity_orders_and_renders() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
        assert_eq!(Severity::Warn.name(), "warning");
    }

    #[test]
    fn diagnostic_renders_rustc_style() {
        let d = Diagnostic::new(
            LintCode::DanglingNet,
            Span::Net(NetId::new(4)),
            "net n4 has no sinks",
        );
        let text = d.to_string();
        assert!(text.starts_with("error[L0002]: net n4 has no sinks"));
        assert!(text.contains("--> net n4"));
    }
}
