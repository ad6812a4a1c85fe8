//! Transferable GNN-based delay-fault localization for monolithic 3D ICs —
//! the paper's primary contribution.
//!
//! This crate ties the substrates together into the framework of Fig. 1:
//!
//! * [`TestEnv`] — design + scan + ATPG patterns + heterogeneous graph;
//! * [`generate_samples`] — the Fig. 4 data-generation flow (fault
//!   injection → logic simulation → failure log → back-traced sub-graph);
//! * [`TierPredictor`] / [`MivPinpointer`] — the two GNN models;
//! * [`PruneClassifier`] — the transfer-learned prune/reorder Classifier
//!   with dummy-buffer oversampling;
//! * [`FaultLocalizer`] — the trained framework with its `T_p` threshold;
//! * [`prune_and_reorder`] — the candidate pruning/reordering policy with
//!   MIV prioritization and the backup dictionary;
//! * [`evaluate_methods`] — the Tables V–VIII evaluation harness
//!   (ATPG vs baseline \[11\] vs GNN vs GNN+\[11\], plus tier localization);
//! * [`RegionMap`] / [`RegionPredictor`] — the paper's 2D extension:
//!   region-level fault localization (Section III-C).
//!
//! # Examples
//!
//! ```no_run
//! use m3d_dft::ObsMode;
//! use m3d_fault_localization::{
//!     evaluate_methods, generate_samples, FaultLocalizer, FrameworkConfig,
//!     InjectionKind, TestEnv,
//! };
//! use m3d_netlist::generate::Benchmark;
//! use m3d_part::DesignConfig;
//!
//! let env = TestEnv::build(Benchmark::Tate, DesignConfig::Syn1, None);
//! let fsim = env.fault_sim();
//! let train = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 240, 1);
//! let test = generate_samples(&env, &fsim, ObsMode::Bypass, InjectionKind::Single, 60, 2);
//! let refs: Vec<&_> = train.iter().collect();
//! let fw = FaultLocalizer::train(&refs, &FrameworkConfig::default());
//! let eval = evaluate_methods(&env, &fsim, &fw, ObsMode::Bypass, &test);
//! println!("GNN accuracy {:.1}%", eval.gnn.accuracy * 100.0);
//! ```

#![warn(missing_docs)]

mod classifier;
mod env;
mod eval;
mod framework;
mod models;
mod policy;
mod region;
mod sample;

pub use classifier::{PruneClassifier, CLASS_PRUNE, CLASS_REORDER};
pub use env::TestEnv;
pub use eval::{diagnose_all, evaluate_methods, MethodEval};
pub use framework::{FaultLocalizer, FrameworkConfig};
pub use models::{MivPinpointer, ModelConfig, TierPredictor};
pub use policy::{prune_and_reorder, PolicyAction, PolicyOutcome};
pub use region::{RegionMap, RegionPredictor};
pub use sample::{generate_samples, try_generate_samples, DiagSample, InjectionKind};
