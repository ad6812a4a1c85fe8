//! Flow-sensitive static analyses over the netlist graph.
//!
//! `m3d-lint` checks *structural* invariants; this crate adds the
//! *flow-sensitive* layer: a generic forward/backward fixed-point
//! framework ([`forward`]/[`backward`] over a [`FixedPoint`] transfer
//! function) on the levelized netlist, with three concrete analyses on
//! top:
//!
//! * [`Scoap`] — CC0/CC1/CO testability measures per net, the classic
//!   static proxy for how hard a fault is to excite and observe.
//! * [`ConstProp`] — reconvergence-aware constant propagation finding
//!   statically-constant nets and redundant logic.
//! * [`StaticProofs`] — per-site untestable-TDF proofs (constant
//!   activation, no launch, no capture), with verdicts the fault
//!   simulator can never contradict.
//!
//! [`verify_design`] runs everything and is what `m3d-diag verify`
//! surfaces; `m3d-lint`'s `Dataflow` pass renders the same report as
//! L1xxx diagnostics.

#![warn(missing_docs)]

mod constprop;
mod framework;
mod scoap;
mod untestable;
mod verify;

pub use constprop::{ConstProp, Value};
pub use framework::{backward, forward, FixedPoint};
pub use scoap::{Scoap, SiteScoap, INF};
pub use untestable::{StaticProofs, UntestableClass};
pub use verify::{verify_design, SiteVerdict, VerifyConfig, VerifyReport};
