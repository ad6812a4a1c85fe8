//! The check families, usable individually or via
//! [`LintRunner`](crate::LintRunner).
//!
//! Every pass is a plain function from borrowed data to a list of
//! [`Diagnostic`](crate::Diagnostic)s, so tests can point a single check at
//! deliberately corrupted inputs without assembling a full lint target.

pub mod dft;
pub mod m3d;
pub mod netlist;
pub mod tensor;
