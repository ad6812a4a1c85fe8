//! Heterogeneous graph construction and back-tracing for M3D diagnosis.
//!
//! Implements Section III of the paper: the two-level heterogeneous graph
//! ([`HetGraph`]: fault-site/MIV nodes at the circuit level, Topnodes and
//! Topedges at the top level), the back-tracing algorithm of Fig. 3
//! ([`back_trace`]), and the extraction of homogeneous sub-graphs with the
//! 13 node features of Table II ([`SubGraph`], [`FEATURE_NAMES`]).
//!
//! # Examples
//!
//! ```
//! use m3d_dft::{ObsMode, ScanChains, ScanConfig};
//! use m3d_hetgraph::{back_trace, HetGraph};
//! use m3d_netlist::generate::Benchmark;
//! use m3d_part::DesignConfig;
//! use m3d_tdf::{generate_patterns, AtpgConfig, FailureLog, FaultSim};
//!
//! let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
//! let ts = generate_patterns(&design, &AtpgConfig::new(1, 128));
//! let scan = ScanChains::new(
//!     design.netlist(),
//!     ScanConfig::for_flop_count(design.netlist().flops().len()),
//! );
//! let het = HetGraph::new(&design);
//! let fsim = FaultSim::new(&design, &ts.patterns);
//!
//! // Inject a fault, capture its log, back-trace to a sub-graph.
//! let fault = m3d_tdf::full_fault_list(&design)
//!     .into_iter()
//!     .zip(&ts.detected)
//!     .find(|&(_, &d)| d)
//!     .map(|(f, _)| f)
//!     .expect("a detected fault");
//! let dets = fsim.detections(&mut fsim.detector(), &[fault]);
//! let log = FailureLog::from_detections(&dets, &scan, ObsMode::Bypass);
//! let sub = back_trace(&het, &fsim, &scan, &log).expect("non-empty");
//! assert!(sub.node_of(fault.site).is_some());
//! ```

#![warn(missing_docs)]

mod graph;
mod subgraph;

pub use graph::{HetGraph, SiteFeatures};
pub use m3d_part::TopEdge;
pub use subgraph::{back_trace, extract, SubGraph, FEATURE_DIM, FEATURE_NAMES};
