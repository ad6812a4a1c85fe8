//! The artifact cache: netlist, pattern set, and model weights loaded once
//! per server generation.
//!
//! Building a [`TestEnv`] (ATPG, scan stitching, the heterogeneous graph)
//! and training the localization models are orders of magnitude more
//! expensive than diagnosing one failure log — the entire point of a
//! long-running service is to pay that cost once and amortize it over
//! thousands of requests. The cache has two sources:
//!
//! * **Generated** — a synthetic benchmark (`--bench`/`--target`), fully
//!   deterministic in its seeds; nothing touches disk.
//! * **Directory** — a bundle directory with a `bundle.json` manifest
//!   naming netlist and partition files plus their mandatory CRC-32
//!   digests. File bytes are digest-checked with [`m3d_resilient::crc32`]
//!   *before* parsing, so a corrupt artifact is a typed load failure, not
//!   a garbage netlist silently serving wrong diagnoses.
//!
//! Trained model weights are cached in the `resilient` checkpoint format
//! (CRC-trailered, [`checkpoint::save_atomic`] write). On load the cache
//! first tries the checkpoint; any
//! [`CheckpointError`](m3d_resilient::CheckpointError) — missing file,
//! truncation, bad CRC, shape drift — falls back to a deterministic
//! retrain, after which the fresh weights are re-saved. A restored
//! localizer is bit-identical to a freshly trained one (same tensors, same
//! thresholds), which the service tests assert across generations.

use std::fmt;
use std::path::{Path, PathBuf};

use m3d_dft::ObsMode;
use m3d_fault_localization::{
    try_generate_samples, DiagSample, FaultLocalizer, FrameworkConfig, InjectionKind,
    MivPinpointer, ModelConfig, TestEnv, TierPredictor,
};
use m3d_gnn::{GcnClassifier, NodeClassifier, Param, TrainConfig, TrainCursor, Trainable};
use m3d_hetgraph::{back_trace, FEATURE_DIM};
use m3d_netlist::generate::Benchmark;
use m3d_netlist::io::read_netlist;
use m3d_obs::Json;
use m3d_part::{read_partition, DesignConfig, M3dDesign};
use m3d_resilient::checkpoint::{self, TrainCheckpoint};
use m3d_resilient::crc32;
use m3d_tdf::{FailureLog, FaultSim};

/// Where the design and pattern set come from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BundleSource {
    /// A synthetic benchmark, generated in memory.
    Generated {
        /// The benchmark family.
        bench: Benchmark,
        /// Gate-count target override (`None` = benchmark default).
        target: Option<usize>,
    },
    /// A directory holding `bundle.json` plus the files it names.
    Directory(PathBuf),
}

/// Everything that pins down one artifact generation. Two equal specs load
/// bit-identical bundles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BundleSpec {
    /// Design / pattern source.
    pub source: BundleSource,
    /// Compacted (MISR channel) observation instead of bypass.
    pub compacted: bool,
    /// Training-set size for the localization models; `0` disables
    /// enhancement entirely (baseline diagnoser only).
    pub enhance_samples: usize,
    /// Training epochs for the localization models.
    pub epochs: usize,
    /// Seed for training-sample generation.
    pub sample_seed: u64,
    /// Seed for model initialization.
    pub model_seed: u64,
    /// Checkpoint cache for the trained weights (`None` = always retrain).
    pub model_path: Option<PathBuf>,
}

impl Default for BundleSpec {
    fn default() -> Self {
        BundleSpec {
            source: BundleSource::Generated {
                bench: Benchmark::Aes,
                target: Some(300),
            },
            compacted: false,
            enhance_samples: 0,
            epochs: 25,
            sample_seed: 1,
            model_seed: 7,
            model_path: None,
        }
    }
}

impl BundleSpec {
    /// Observation mode implied by the spec.
    pub fn mode(&self) -> ObsMode {
        if self.compacted {
            ObsMode::Compacted
        } else {
            ObsMode::Bypass
        }
    }

    /// A 63-bit fingerprint of every field that affects trained weights.
    /// Stored in the checkpoint's `epoch` slot so a cached model trained
    /// under a different spec is rejected instead of silently reused.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        match &self.source {
            BundleSource::Generated { bench, target } => {
                mix(1);
                mix(Benchmark::ALL.iter().position(|b| b == bench).unwrap_or(0) as u64);
                mix(target.map_or(u64::MAX, |t| t as u64));
            }
            BundleSource::Directory(p) => {
                mix(2);
                for b in p.to_string_lossy().bytes() {
                    mix(u64::from(b));
                }
            }
        }
        mix(u64::from(self.compacted));
        mix(self.enhance_samples as u64);
        mix(self.epochs as u64);
        mix(self.sample_seed);
        mix(self.model_seed);
        mix(FEATURE_DIM as u64);
        h >> 1 // keep it positive in the checkpoint's usize epoch slot
    }
}

/// How the localization models in a bundle came to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelProvenance {
    /// Enhancement disabled (`enhance_samples == 0`).
    Disabled,
    /// Trained in this load (and cached, when a path was given).
    FreshlyTrained,
    /// Restored from a CRC-verified checkpoint.
    Restored,
}

impl fmt::Display for ModelProvenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ModelProvenance::Disabled => "disabled",
            ModelProvenance::FreshlyTrained => "trained",
            ModelProvenance::Restored => "restored",
        })
    }
}

/// One loaded artifact generation: the environment, the observation mode,
/// and (optionally) the trained localizer.
#[derive(Debug)]
pub struct ArtifactBundle {
    /// Design + scan + patterns + heterogeneous graph.
    pub env: TestEnv,
    /// Observation mode requests are diagnosed under.
    pub mode: ObsMode,
    /// The enhancement models (`None` = baseline-only serving).
    pub localizer: Option<FaultLocalizer>,
    /// Where the models came from.
    pub provenance: ModelProvenance,
}

impl ArtifactBundle {
    /// Loads a bundle per the spec: builds or reads the design, runs ATPG,
    /// and loads-or-trains the localization models.
    ///
    /// # Errors
    ///
    /// A human-readable description of the failing step (unreadable or
    /// CRC-mismatching artifact file, malformed manifest, worker panic
    /// during training-sample generation).
    pub fn load(spec: &BundleSpec) -> Result<ArtifactBundle, String> {
        let mut sp = m3d_obs::span("serve_bundle_load");
        let env = match &spec.source {
            BundleSource::Generated { bench, target } => {
                TestEnv::build(*bench, DesignConfig::Syn1, *target)
            }
            BundleSource::Directory(dir) => TestEnv::from_design(load_design_dir(dir)?),
        };
        sp.add("sites", env.design.sites().len() as u64);
        let (localizer, provenance) = if spec.enhance_samples == 0 {
            (None, ModelProvenance::Disabled)
        } else {
            let (loc, prov) = load_or_train(spec, &env)?;
            (Some(loc), prov)
        };
        Ok(ArtifactBundle {
            env,
            mode: spec.mode(),
            localizer,
            provenance,
        })
    }

    /// Builds the synthetic [`DiagSample`] enhancement operates on for an
    /// arbitrary (non-generated) failure log: no injection ground truth,
    /// just the back-traced sub-graph.
    pub fn sample_for(&self, fsim: &FaultSim<'_>, log: &FailureLog) -> DiagSample {
        DiagSample {
            injected: Vec::new(),
            log: log.clone(),
            subgraph: back_trace(&self.env.het, fsim, &self.env.scan, log),
            faulty_tier: None,
            miv_truth: Vec::new(),
        }
    }
}

/// Reads and CRC-verifies a directory bundle.
fn load_design_dir(dir: &Path) -> Result<M3dDesign, String> {
    let manifest_path = dir.join("bundle.json");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("reading {}: {e}", manifest_path.display()))?;
    let m =
        m3d_obs::json::parse(&manifest).map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let field = |key: &str| -> Result<String, String> {
        m.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{}: missing `{key}`", manifest_path.display()))
    };
    let digest = |key: &str| -> Result<u32, String> {
        m.get(key)
            .and_then(Json::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| format!("{}: missing CRC `{key}`", manifest_path.display()))
    };
    let netlist_text = read_verified(&dir.join(field("netlist")?), digest("netlist_crc32")?)?;
    let partition_text = read_verified(&dir.join(field("partition")?), digest("partition_crc32")?)?;
    let nl = read_netlist(&netlist_text).map_err(|e| format!("netlist: {e}"))?;
    let part = read_partition(&nl, &partition_text).map_err(|e| format!("partition: {e}"))?;
    Ok(M3dDesign::new(nl, part))
}

/// Reads a file and checks its CRC-32 before handing the text to a parser.
fn read_verified(path: &Path, expected: u32) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let got = crc32(&bytes);
    if got != expected {
        return Err(format!(
            "{}: CRC mismatch (manifest {expected:#010x}, file {got:#010x}) — refusing to serve \
             from a corrupt artifact",
            path.display()
        ));
    }
    String::from_utf8(bytes).map_err(|_| format!("{}: not UTF-8", path.display()))
}

/// Tries the checkpoint cache, falls back to a deterministic retrain.
fn load_or_train(
    spec: &BundleSpec,
    env: &TestEnv,
) -> Result<(FaultLocalizer, ModelProvenance), String> {
    let fingerprint = spec.fingerprint();
    if let Some(path) = &spec.model_path {
        match checkpoint::load(path) {
            Ok(ckpt) => match restore_localizer(&ckpt, fingerprint, spec.model_seed) {
                Ok(loc) => {
                    m3d_obs::counter("serve_model_restored", 1);
                    return Ok((loc, ModelProvenance::Restored));
                }
                Err(why) => {
                    // Stale fingerprint or shape drift: the cache is from
                    // another spec. Retrain rather than serve its weights.
                    m3d_obs::counter("serve_model_cache_rejected", 1);
                    let _ = why;
                }
            },
            Err(_) => {
                // Missing, truncated, or CRC-mismatching checkpoint —
                // every CheckpointError funnels into the same recovery.
                m3d_obs::counter("serve_model_cache_miss", 1);
            }
        }
    }
    let loc = train_localizer(spec, env)?;
    if let Some(path) = &spec.model_path {
        // Best-effort cache refresh; a read-only artifact directory must
        // not fail the load.
        if save_localizer(path, &loc, fingerprint).is_err() {
            m3d_obs::counter("serve_model_cache_write_failed", 1);
        }
    }
    Ok((loc, ModelProvenance::FreshlyTrained))
}

/// Trains the localization models deterministically from the spec.
///
/// The prune Classifier is deliberately dropped: its transfer-learned
/// head is not part of the checkpoint layout, and serving must be
/// bit-identical whether the models were restored or retrained. The serve
/// enhancement path is therefore reorder-only (never prunes), which is
/// also the safe choice for a service — pruning on a stale model hides
/// true suspects, reordering only changes their order.
fn train_localizer(spec: &BundleSpec, env: &TestEnv) -> Result<FaultLocalizer, String> {
    let fsim = env.fault_sim();
    let samples = try_generate_samples(
        env,
        &fsim,
        spec.mode(),
        InjectionKind::Single,
        spec.enhance_samples,
        spec.sample_seed,
    )
    .map_err(|e| format!("training-sample generation: {e}"))?;
    let refs: Vec<&DiagSample> = samples.iter().collect();
    let cfg = FrameworkConfig {
        model: ModelConfig {
            train: TrainConfig {
                epochs: spec.epochs,
                ..TrainConfig::default()
            },
            seed: spec.model_seed,
            ..ModelConfig::default()
        },
        ..FrameworkConfig::default()
    };
    let mut loc = FaultLocalizer::train(&refs, &cfg);
    loc.classifier = None;
    Ok(loc)
}

// Checkpoint layout for a serve model cache (documented here because it
// repurposes the training-cursor slots):
//   tensors    = tier GcnClassifier params ++ miv NodeClassifier params
//   epoch      = BundleSpec::fingerprint()
//   lr         = MivPinpointer::threshold
//   rng_state  = FaultLocalizer::tp_threshold.to_bits()
//   t, order   = unused (0, empty)

/// Reconstructs a [`FaultLocalizer`] from a cached checkpoint.
fn restore_localizer(
    ckpt: &TrainCheckpoint,
    fingerprint: u64,
    model_seed: u64,
) -> Result<FaultLocalizer, String> {
    let md = ModelConfig::default();
    let mut tier = GcnClassifier::new(FEATURE_DIM, md.hidden, md.layers, 2, model_seed);
    let mut miv = NodeClassifier::new(
        FEATURE_DIM,
        md.hidden,
        md.layers,
        model_seed.wrapping_add(1000),
    );
    let mut params: Vec<&mut Param> = tier.params_mut();
    params.extend(miv.params_mut());
    let cursor = ckpt.restore_into(&mut params).map_err(|e| e.to_string())?;
    if cursor.epoch as u64 != fingerprint {
        return Err(format!(
            "cached model fingerprint {:#x} does not match spec {fingerprint:#x}",
            cursor.epoch
        ));
    }
    let tp_threshold = f64::from_bits(cursor.rng_state());
    if !tp_threshold.is_finite() {
        return Err("cached T_p threshold is not finite".into());
    }
    Ok(FaultLocalizer {
        tier: TierPredictor::from_model(tier),
        miv: MivPinpointer::from_model(miv, cursor.lr),
        classifier: None,
        tp_threshold,
    })
}

/// Writes the model cache atomically (tmp file + rename, CRC trailer).
fn save_localizer(path: &Path, loc: &FaultLocalizer, fingerprint: u64) -> Result<(), String> {
    let mut params: Vec<&Param> = loc.tier.model().params();
    params.extend(loc.miv.model().params());
    let cursor = TrainCursor::restore(
        fingerprint as usize,
        0,
        loc.miv.threshold,
        loc.tp_threshold.to_bits(),
        Vec::new(),
    );
    let ckpt = TrainCheckpoint::capture(&params, &cursor);
    checkpoint::save_atomic(path, &ckpt).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(model_path: Option<PathBuf>) -> BundleSpec {
        BundleSpec {
            source: BundleSource::Generated {
                bench: Benchmark::Aes,
                target: Some(300),
            },
            enhance_samples: 12,
            epochs: 5,
            model_path,
            ..BundleSpec::default()
        }
    }

    #[test]
    fn fingerprint_tracks_every_training_knob() {
        let base = quick_spec(None);
        let fp = base.fingerprint();
        for tweak in [
            BundleSpec {
                epochs: 6,
                ..base.clone()
            },
            BundleSpec {
                sample_seed: 2,
                ..base.clone()
            },
            BundleSpec {
                model_seed: 8,
                ..base.clone()
            },
            BundleSpec {
                compacted: true,
                ..base.clone()
            },
            BundleSpec {
                enhance_samples: 13,
                ..base.clone()
            },
        ] {
            assert_ne!(tweak.fingerprint(), fp);
        }
        // model_path does not affect the weights, so it must not affect
        // the fingerprint.
        assert_eq!(quick_spec(Some("x.ckpt".into())).fingerprint(), fp);
    }

    #[test]
    fn model_cache_round_trips_bit_identically() {
        let dir = std::env::temp_dir().join(format!("m3d_serve_cache_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let ckpt_path = dir.join("model.ckpt");
        let spec = quick_spec(Some(ckpt_path.clone()));

        let fresh = ArtifactBundle::load(&spec).expect("fresh load");
        assert_eq!(fresh.provenance, ModelProvenance::FreshlyTrained);
        let restored = ArtifactBundle::load(&spec).expect("cached load");
        assert_eq!(restored.provenance, ModelProvenance::Restored);

        let a = fresh.localizer.expect("models");
        let b = restored.localizer.expect("models");
        assert_eq!(a.tier.model().flat_params(), b.tier.model().flat_params());
        assert_eq!(a.miv.model().flat_params(), b.miv.model().flat_params());
        assert_eq!(a.tp_threshold.to_bits(), b.tp_threshold.to_bits());
        assert_eq!(a.miv.threshold.to_bits(), b.miv.threshold.to_bits());
        assert!(a.classifier.is_none() && b.classifier.is_none());

        // A corrupt checkpoint falls back to retraining, bit-identically.
        m3d_resilient::chaos::flip_bit(&ckpt_path, 40).expect("flip");
        let healed = ArtifactBundle::load(&spec).expect("healed load");
        assert_eq!(healed.provenance, ModelProvenance::FreshlyTrained);
        let c = healed.localizer.expect("models");
        assert_eq!(a.tier.model().flat_params(), c.tier.model().flat_params());

        // A different spec rejects the (now re-saved) cache.
        let other = BundleSpec {
            model_seed: 99,
            ..spec.clone()
        };
        let rebuilt = ArtifactBundle::load(&other).expect("other spec");
        assert_eq!(rebuilt.provenance, ModelProvenance::FreshlyTrained);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_bundles_refuse_corrupt_artifacts() {
        use m3d_netlist::generate::GenParams;
        use m3d_netlist::io::write_netlist;
        use m3d_part::{write_partition, PartitionAlgo};

        let dir = std::env::temp_dir().join(format!("m3d_serve_bundle_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let nl = Benchmark::Aes.generate(&GenParams::new(1).with_target(200));
        let part = PartitionAlgo::MinCut.partition(&nl, 1);
        let nl_text = write_netlist(&nl);
        let part_text = write_partition(&part);
        std::fs::write(dir.join("design.nl"), &nl_text).expect("nl");
        std::fs::write(dir.join("design.part"), &part_text).expect("part");
        let manifest = Json::Obj(vec![
            ("netlist".into(), Json::Str("design.nl".into())),
            ("partition".into(), Json::Str("design.part".into())),
            (
                "netlist_crc32".into(),
                Json::Num(f64::from(crc32(nl_text.as_bytes()))),
            ),
            (
                "partition_crc32".into(),
                Json::Num(f64::from(crc32(part_text.as_bytes()))),
            ),
        ])
        .render();
        std::fs::write(dir.join("bundle.json"), &manifest).expect("manifest");

        let spec = BundleSpec {
            source: BundleSource::Directory(dir.clone()),
            ..BundleSpec::default()
        };
        let bundle = ArtifactBundle::load(&spec).expect("valid bundle");
        assert_eq!(bundle.provenance, ModelProvenance::Disabled);
        assert!(bundle.localizer.is_none());

        // Corrupt the netlist: the CRC gate must refuse before parsing.
        let garbled = m3d_resilient::chaos::garble_text(&nl_text, 99);
        std::fs::write(dir.join("design.nl"), garbled).expect("rewrite");
        let err = ArtifactBundle::load(&spec).expect_err("corrupt bundle");
        assert!(err.contains("CRC mismatch"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
