//! Facade crate re-exporting the full M3D delay-fault diagnosis stack.
//!
//! See the workspace README for the architecture overview. The typical
//! entry points are [`part::DesignConfig`] to build a benchmark design and
//! the `m3d_fault_localization` framework types re-exported from
//! [`fault_localization`].

#![warn(missing_docs)]

pub use m3d_dft as dft;
pub use m3d_diagnosis as diagnosis;
pub use m3d_fault_localization as fault_localization;
pub use m3d_gnn as gnn;
pub use m3d_hetgraph as hetgraph;
pub use m3d_lint as lint;
pub use m3d_netlist as netlist;
pub use m3d_obs as obs;
pub use m3d_par as par;
pub use m3d_part as part;
pub use m3d_resilient as resilient;
pub use m3d_serve as serve;
pub use m3d_tdf as tdf;
