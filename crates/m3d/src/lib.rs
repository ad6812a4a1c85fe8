//! Monolithic 3D tier partitioning and MIV inference.
//!
//! Turns a flat [`m3d_netlist::Netlist`] into a two-tier [`M3dDesign`]:
//! tier labels per gate, one monolithic inter-tier via (MIV) per cut net,
//! an extended fault-site table, and its per-flop fan-in cones
//! ([`FaninCones`]). Three partitioners cover the paper's configurations
//! (min-cut, level-banded, random augmentation), and [`DesignConfig`]
//! reproduces the Syn-1 / TPI / Syn-2 / Par design matrix of the
//! transferability study.
//!
//! # Examples
//!
//! ```
//! use m3d_netlist::generate::Benchmark;
//! use m3d_part::DesignConfig;
//!
//! let design = DesignConfig::Syn1.build_sized(Benchmark::Tate, Some(300));
//! println!("{} MIVs on {} gates", design.miv_count(), design.netlist().gate_count());
//! ```

#![warn(missing_docs)]

mod cones;
mod config;
mod design;
mod partition;
mod tier;

pub use cones::{FaninCones, TopEdge};
pub use config::{augmented_design, DesignConfig};
pub use design::{M3dDesign, Miv};
pub use partition::{read_partition, write_partition, Partition, PartitionAlgo};
pub use tier::Tier;
