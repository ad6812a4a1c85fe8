//! The workloads and their set-up: design build, scan, ATPG, the
//! heterogeneous graph, model training, and the seeded failure logs a run
//! diagnoses.
//!
//! The design, the models and the candidate chips are fixed per workload.
//! The seed only picks which candidates a run diagnoses, so the program
//! under test receives nothing but the generated logs.

use std::time::Instant;

use m3d_dft::{ObsMode, ScanChains, ScanConfig};
use m3d_fault_localization::{
    generate_samples, DiagSample, FaultLocalizer, FrameworkConfig, InjectionKind, ModelConfig,
    TestEnv,
};
use m3d_gnn::TrainConfig;
use m3d_hetgraph::HetGraph;
use m3d_netlist::generate::Benchmark;
use m3d_part::{DesignConfig, Tier};
use m3d_serve::{BundleSource, BundleSpec};
use m3d_tdf::{generate_patterns, AtpgConfig, FailureLog, Fault, FaultSim};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;

/// Seed of the training-sample draw (fixed: the models are part of the
/// system under test, not of the workload input).
const TRAIN_SEED: u64 = 1;
/// Seed of the model initialization.
const MODEL_SEED: u64 = 7;
/// Training samples for the localization models.
const TRAIN_SAMPLES: usize = 60;
/// Training epochs.
const EPOCHS: usize = 30;
/// Candidate chips in the fixed population, per workload log.
const POPULATION_PER_LOG: usize = 10;
/// Seed of the fixed candidate population.
const POPULATION_SEED: u64 = 0x00c0_ffee;

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// Benchmark family.
    pub bench: Benchmark,
    /// Gate-count target (`None` = the family default).
    pub target: Option<usize>,
    /// Observation mode (bypass scan, or the XOR compactor).
    pub mode: ObsMode,
    /// Faults per chip, for the workload logs and the training samples.
    pub injection: InjectionKind,
    /// Distinct failure logs per seed.
    pub logs: usize,
    /// The tail quantile `latency_tail_ms` reports: the highest one with
    /// ten samples beyond it in the samples a run guarantees. Offline,
    /// that is one pass of distinct logs; served, requests are fresh
    /// samples of the server's timing, and a run makes at least
    /// [`Workload::tail_samples`] of them.
    pub tail: f64,
    /// Served through an in-process `m3d-serve` instead of called offline.
    pub served: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "aes-single",
        bench: Benchmark::Aes,
        target: Some(64_000),
        mode: ObsMode::Bypass,
        injection: InjectionKind::Single,
        logs: 200,
        tail: 0.95,
        served: false,
    },
    Workload {
        name: "leon3mp-multi-edt",
        bench: Benchmark::Leon3mp,
        target: Some(12_000),
        mode: ObsMode::Compacted,
        injection: InjectionKind::MultiSameTier,
        logs: 100,
        tail: 0.9,
        served: false,
    },
    Workload {
        name: "serve-aes-small",
        bench: Benchmark::Aes,
        target: None,
        mode: ObsMode::Bypass,
        injection: InjectionKind::Single,
        logs: 200,
        tail: 0.99,
        served: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One failing chip: its ground truth and the log the tester wrote.
#[derive(Debug)]
pub struct Chip {
    /// The injected faults.
    pub injected: Vec<Fault>,
    /// Their common tier (`None` when an MIV is among them or tiers differ).
    pub tier: Option<Tier>,
    /// The failure log.
    pub log: FailureLog,
}

/// Everything a set-up produces.
#[derive(Debug)]
pub struct Artifacts {
    /// Design, scan, patterns and heterogeneous graph.
    pub env: TestEnv,
    /// The trained localization models.
    pub localizer: FaultLocalizer,
    /// The workload's failing chips, in log-id order.
    pub chips: Vec<Chip>,
}

/// Seconds spent in each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Netlist generation and tier partitioning.
    pub build_design_s: f64,
    /// Scan stitching.
    pub scan_s: f64,
    /// ATPG.
    pub atpg_s: f64,
    /// Patterns ATPG kept.
    pub patterns: usize,
    /// Heterogeneous-graph construction.
    pub het_build_s: f64,
    /// Training-sample generation (fault simulation and back-trace).
    pub train_samples_s: f64,
    /// GNN training.
    pub train_s: f64,
    /// Workload log generation.
    pub workload_gen_s: f64,
    /// `Diagnoser::new`.
    pub diag_new_s: f64,
    /// Server start-up until the first answered ping (served only).
    pub serve_load_s: f64,
    /// The whole set-up.
    pub total_s: f64,
    /// Peak resident memory when the set-up finished, in MiB.
    pub rss_mb: f64,
}

/// Runs `f` inside a span and stores its wall time in `slot`.
pub fn timed<R>(tr: &mut Tracer, name: &'static str, slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = tr.time(name, None, f);
    *slot = t0.elapsed().as_secs_f64();
    out
}

impl Workload {
    /// Samples a timed phase needs so [`Workload::tail`] has ten beyond it.
    pub fn tail_samples(&self) -> usize {
        (crate::stats::MIN_BEYOND as f64 / (1.0 - self.tail)).round() as usize
    }

    /// The artifact spec an `m3d-serve` instance loads for this workload;
    /// it trains exactly the models [`Workload::build`] trains.
    pub fn bundle_spec(&self) -> BundleSpec {
        BundleSpec {
            source: BundleSource::Generated {
                bench: self.bench,
                target: self.target,
            },
            compacted: self.mode == ObsMode::Compacted,
            enhance_samples: TRAIN_SAMPLES,
            epochs: EPOCHS,
            sample_seed: TRAIN_SEED,
            model_seed: MODEL_SEED,
            model_path: None,
        }
    }

    /// Builds the environment step by step, trains the models and
    /// generates the seeded logs.
    pub fn build(&self, seed: u64, tr: &mut Tracer, t: &mut SetupTimes) -> Artifacts {
        let design = timed(tr, "m3d.build_design", &mut t.build_design_s, || {
            DesignConfig::Syn1.build_sized(self.bench, self.target)
        });
        let scan = timed(tr, "dft.scan", &mut t.scan_s, || {
            let nl = design.netlist();
            ScanChains::new(nl, ScanConfig::for_flop_count(nl.flops().len()))
        });
        // The pattern budget `TestEnv::from_design` uses.
        let max_patterns = (design.netlist().gate_count() / 2).clamp(256, 4096);
        let test_set = timed(tr, "tdf.atpg", &mut t.atpg_s, || {
            generate_patterns(&design, &AtpgConfig::new(1, max_patterns))
        });
        t.patterns = test_set.pattern_count();
        let het = timed(tr, "hetgraph.build", &mut t.het_build_s, || {
            HetGraph::new(&design)
        });
        let env = TestEnv {
            design,
            scan,
            test_set,
            het,
        };
        let (localizer, chips) = {
            let fsim = env.fault_sim();
            let samples = timed(tr, "core.train_samples", &mut t.train_samples_s, || {
                generate_samples(
                    &env,
                    &fsim,
                    self.mode,
                    self.injection,
                    TRAIN_SAMPLES,
                    TRAIN_SEED,
                )
            });
            let refs: Vec<&DiagSample> = samples.iter().collect();
            let cfg = FrameworkConfig {
                model: ModelConfig {
                    train: TrainConfig {
                        epochs: EPOCHS,
                        ..TrainConfig::default()
                    },
                    seed: MODEL_SEED,
                    ..ModelConfig::default()
                },
                ..FrameworkConfig::default()
            };
            let mut localizer = timed(tr, "gnn.train", &mut t.train_s, || {
                FaultLocalizer::train(&refs, &cfg)
            });
            if self.served {
                // m3d-serve drops the prune Classifier (serving is
                // reorder-only), so the offline reference must too.
                localizer.classifier = None;
            }
            let chips = timed(tr, "core.workload_gen", &mut t.workload_gen_s, || {
                generate_chips(&env, &fsim, self, seed)
            });
            (localizer, chips)
        };
        Artifacts {
            env,
            localizer,
            chips,
        }
    }
}

/// Draws the workload's failing chips from `seed`.
///
/// Per-log cost is strongly bimodal: a log whose failing cells include a
/// scan cell with a huge fan-in cone costs 10–20× a typical one, and about
/// one log in ten does. Uniform draws would let the seed decide how many
/// such logs a run gets, and with them tail latency and throughput. So the seed
/// draws from a fixed population instead: [`POPULATION_PER_LOG`] × `logs`
/// candidate chips drawn once with [`POPULATION_SEED`], ordered by
/// [`back_trace_work`] and cut into `logs` equal strata. The seed picks one
/// chip per stratum; chips come back in stratum order (ascending work).
pub fn generate_chips(env: &TestEnv, fsim: &FaultSim<'_>, w: &Workload, seed: u64) -> Vec<Chip> {
    let mut population = candidate_population(env, fsim, w);
    assert!(
        population.len() >= w.logs,
        "only {} of the candidate chips of {} fail",
        population.len(),
        w.name
    );
    population.sort_by_cached_key(|(draw, chip)| (back_trace_work(env, &chip.log), *draw));
    let mut rng = StdRng::seed_from_u64(seed);
    let n = population.len();
    let mut picks: Vec<usize> = (0..w.logs)
        .map(|i| rng.gen_range(i * n / w.logs..(i + 1) * n / w.logs))
        .collect();
    picks.reverse();
    let mut chips = Vec::with_capacity(w.logs);
    for (i, (_, chip)) in population.into_iter().enumerate() {
        if picks.last() == Some(&i) {
            picks.pop();
            chips.push(chip);
        }
    }
    chips
}

/// The fixed candidate population: injections drawn with
/// [`POPULATION_SEED`] (single faults uniformly over the detected faults;
/// multi-fault chips as 2–5 detected faults of one tier), keeping those
/// whose log is not empty, tagged with their draw index.
fn candidate_population(env: &TestEnv, fsim: &FaultSim<'_>, w: &Workload) -> Vec<(usize, Chip)> {
    let detected = env.detected_faults();
    let tier_pool = |tier: Tier| -> Vec<Fault> {
        detected
            .iter()
            .copied()
            .filter(|f| env.design.tier_of_site(f.site) == Some(tier))
            .collect()
    };
    let pools = [tier_pool(Tier::Top), tier_pool(Tier::Bottom)];
    let mut rng = StdRng::seed_from_u64(POPULATION_SEED);
    let draws: Vec<(usize, Vec<Fault>)> = (0..w.logs * POPULATION_PER_LOG)
        .map(|draw| {
            let injected = match w.injection {
                InjectionKind::MultiSameTier => {
                    let pool = &pools[usize::from(rng.gen_bool(0.5))];
                    let k = rng.gen_range(2..=5usize).min(pool.len());
                    let mut injected: Vec<Fault> = Vec::with_capacity(k);
                    while injected.len() < k {
                        let f = pool[rng.gen_range(0..pool.len())];
                        if injected.iter().all(|g| g.site != f.site) {
                            injected.push(f);
                        }
                    }
                    injected
                }
                _ => vec![detected[rng.gen_range(0..detected.len())]],
            };
            (draw, injected)
        })
        .collect();
    let logs = m3d_par::par_map_init(
        &draws,
        || fsim.detector(),
        |det, (_, injected)| {
            FailureLog::from_detections(&fsim.detections(det, injected), &env.scan, w.mode)
        },
    );
    draws
        .into_iter()
        .zip(logs)
        .filter(|(_, log)| !log.is_empty())
        .map(|((draw, injected), log)| {
            let tier = common_tier(env, &injected);
            (
                draw,
                Chip {
                    injected,
                    tier,
                    log,
                },
            )
        })
        .collect()
}

/// The fan-in cone members back-tracing a log visits: over every failing
/// entry, the cone sizes of the scan cells the entry can map to.
fn back_trace_work(env: &TestEnv, log: &FailureLog) -> usize {
    log.entries()
        .iter()
        .flat_map(|e| env.scan.candidate_flops(e.obs))
        .map(|flop| env.het.topedges(flop).len())
        .sum()
}

/// The tier every injected fault sits in, if they share one.
fn common_tier(env: &TestEnv, injected: &[Fault]) -> Option<Tier> {
    let mut tiers = injected.iter().map(|f| env.design.tier_of_site(f.site));
    let first = tiers.next()??;
    tiers.all(|t| t == Some(first)).then_some(first)
}
