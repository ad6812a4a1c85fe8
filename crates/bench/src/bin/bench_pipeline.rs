//! Thread-scaling benchmark of the parallelized pipeline stages, in two
//! tiers.
//!
//! The **default tier** exercises dataset generation, GNN training, and
//! fault simulation on one mid-size AES build, each timed at one thread
//! and at the configured pool width, with a bit-identity check between
//! the two runs. Each stage is also re-run with `m3d-obs` recording
//! enabled to measure observability overhead and capture the effective
//! worker count from pool events. All stage numbers are also routed
//! through the `m3d-obs` metrics registry, so `BENCH_pipeline.json` and
//! `BENCH_pipeline_metrics.jsonl` report the same values (the JSON
//! writer spot-checks the roundtrip).
//!
//! The **paper-scale tier** (`--paper-scale`) runs the four archetypes
//! the paper diagnoses — AES, Tate, netcard, leon3mp — at published gate
//! counts (98K–338K), timing ATPG, good-machine simulation, sample
//! generation, GNN training, the raw GCN kernels, and per-fault
//! simulation at pool widths {1, N}. It additionally records, per
//! archetype, the compiled-simulator speedup over a per-gate object-walk
//! reference, the blocked-kernel speedup over the naive reference kernels,
//! and the process peak RSS, and asserts every stage is bitwise
//! deterministic across thread counts.
//!
//! Run: `cargo run --release -p m3d-bench --bin bench_pipeline`
//! (`M3D_QUICK=1` for the smoke scale, `M3D_THREADS=N` to pin the pool).
//! Paper tier: `bench_pipeline --paper-scale [--archetype NAME]
//! [--gates-cap N]` — the cap shrinks the sizing target for CI smoke
//! runs.

use std::fmt::Write as _;
use std::time::Instant;

use m3d_dataflow::{ConstProp, StaticProofs};
use m3d_dft::ObsMode;
use m3d_fault_localization::{
    generate_samples, DiagSample, InjectionKind, ModelConfig, TestEnv, TierPredictor,
};
use m3d_gnn::reference::{
    aggregate_naive, aggregate_transpose_naive, matmul_naive, matmul_t_naive, t_matmul_naive,
};
use m3d_gnn::{GcnGraph, Matrix, TrainConfig};
use m3d_netlist::generate::Benchmark;
use m3d_netlist::Netlist;
use m3d_part::DesignConfig;
use m3d_tdf::{
    full_fault_list, generate_patterns, AtpgConfig, Fault, PatternBlock, Simulator, TestSet,
};

struct StageResult {
    name: &'static str,
    secs_1t: f64,
    secs_nt: f64,
    /// Wall time of the pool-width run repeated with obs recording on.
    secs_nt_obs: f64,
    /// Every repetition's wall time at the configured width; the
    /// obs-overhead comparison uses medians over these (a min-vs-min
    /// difference goes negative on noisy hosts, which is how the old
    /// −20% overhead readings happened).
    secs_nt_reps: Vec<f64>,
    secs_nt_obs_reps: Vec<f64>,
    /// Largest worker count any dispatch in this stage actually used
    /// (`min(pool width, chunks)`), read back from obs pool events.
    effective_threads: usize,
    throughput_nt: f64,
    unit: &'static str,
    deterministic: bool,
}

impl StageResult {
    /// `None` when the configured pool width is 1: the "1t" and "nt"
    /// runs are then the same configuration, and their wall-time ratio
    /// is timer noise, not a speedup.
    fn speedup(&self, configured: usize) -> Option<f64> {
        if configured <= 1 || self.secs_nt <= 0.0 {
            None
        } else {
            Some(self.secs_1t / self.secs_nt)
        }
    }

    /// Speedup per effective worker: 1.0 is perfect scaling, and values
    /// well under `1/effective_threads`-per-thread mean the fan-out is
    /// paying more in dispatch than it earns.
    fn scaling_efficiency(&self, configured: usize) -> Option<f64> {
        self.speedup(configured)
            .map(|s| s / self.effective_threads.max(1) as f64)
    }

    /// Relative cost of enabling tracing + metrics on the pool-width
    /// run: median-of-reps against median-of-reps, so one lucky or
    /// unlucky scheduler slice doesn't swing the sign.
    fn obs_overhead_pct(&self) -> f64 {
        let nt = median_of(&self.secs_nt_reps);
        if nt > 0.0 {
            100.0 * (median_of(&self.secs_nt_obs_reps) - nt) / nt
        } else {
            0.0
        }
    }

    /// The run's own timing noise: spread of the unobserved repetitions
    /// relative to their median. An overhead smaller than this floor is
    /// not a measurement.
    fn noise_floor_pct(&self) -> f64 {
        let nt = median_of(&self.secs_nt_reps);
        let min = min_of(&self.secs_nt_reps);
        let max = self
            .secs_nt_reps
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if nt > 0.0 && max.is_finite() {
            100.0 * (max - min) / nt
        } else {
            0.0
        }
    }

    /// Whether the reported overhead is below the run's noise floor
    /// (negative overhead is always noise — observation can't make the
    /// code faster).
    fn obs_noise(&self) -> bool {
        let o = self.obs_overhead_pct();
        o < 0.0 || o.abs() <= self.noise_floor_pct()
    }
}

/// Repetitions per timed variant in the default tier; the minimum wall
/// time is kept for throughput, while the obs-overhead comparison uses
/// the median over all repetitions. The paper tier passes 1: its stages
/// run for seconds each, so a single run is already past timer noise.
const REPS: usize = 5;

fn min_of(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median_of(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Runs `f` `reps` times and returns the last result plus every
/// repetition's wall time.
fn timed<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = f();
        times.push(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (out.expect("reps > 0"), times)
}

/// Runs `f` with obs recording enabled on a clean slate and returns the
/// result, every repetition's wall time, and the largest effective
/// worker count among the pool dispatches it issued.
fn timed_with_obs<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, Vec<f64>, usize) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    let mut effective = 1;
    for _ in 0..reps {
        m3d_obs::reset();
        m3d_obs::set_enabled(true);
        let t = Instant::now();
        let r = f();
        times.push(t.elapsed().as_secs_f64());
        m3d_obs::set_enabled(false);
        effective = m3d_obs::trace_events()
            .iter()
            .filter_map(|e| match e {
                m3d_obs::Event::Pool { threads, .. } => Some(*threads),
                _ => None,
            })
            .max()
            .unwrap_or(1);
        m3d_obs::reset();
        out = Some(r);
    }
    (out.expect("reps > 0"), times, effective)
}

/// Times one stage at widths {1, configured} plus an obs-recorded run,
/// checking the three results for equality. Returns the pool-width
/// result alongside the bookkeeping.
fn stage<R>(
    name: &'static str,
    reps: usize,
    configured: usize,
    items: f64,
    unit: &'static str,
    eq: impl Fn(&R, &R) -> bool,
    f: impl Fn(usize) -> R,
) -> (R, StageResult) {
    let (r_1t, times_1t) = timed(reps, || f(1));
    let (r_nt, times_nt) = timed(reps, || f(configured));
    let (r_obs, times_obs, effective_threads) = timed_with_obs(reps, || f(configured));
    let deterministic = eq(&r_1t, &r_nt) && eq(&r_nt, &r_obs);
    let secs_nt = min_of(&times_nt);
    let result = StageResult {
        name,
        secs_1t: min_of(&times_1t),
        secs_nt,
        secs_nt_obs: min_of(&times_obs),
        secs_nt_reps: times_nt,
        secs_nt_obs_reps: times_obs,
        effective_threads,
        throughput_nt: items / secs_nt.max(1e-12),
        unit,
        deterministic,
    };
    (r_nt, result)
}

fn gauge_of(reg: &m3d_obs::Registry, name: &str) -> f64 {
    reg.gauge_value(name)
        .unwrap_or_else(|| panic!("gauge {name} missing from registry"))
}

/// Process peak RSS in MB from `/proc/self/status` (`VmHWM`). This is a
/// process-lifetime high-water mark: in a multi-archetype run the value
/// recorded for each archetype is the peak *so far*, monotone across the
/// sequence. `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reference good-machine frame evaluation that re-walks the gate
/// *objects* in topological order — the shape of the pre-compiled
/// simulator. Kept as the baseline for the compiled-array sweep's
/// speedup measurement; the two must agree bitwise.
fn objectwalk_frame(nl: &Netlist, pi: &[u64], state: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let mut nets = vec![0u64; nl.net_count()];
    for (&g, &w) in nl.inputs().iter().zip(pi) {
        nets[nl.gate(g).output().expect("inputs drive nets").index()] = w;
    }
    for (&g, &w) in nl.flops().iter().zip(state) {
        nets[nl.gate(g).output().expect("flops drive nets").index()] = w;
    }
    for &g in nl.topo_order() {
        let gate = nl.gate(g);
        let words: Vec<u64> = gate.inputs().iter().map(|n| nets[n.index()]).collect();
        nets[gate.output().expect("gates drive nets").index()] = gate.kind().eval(&words);
    }
    let capture = nl
        .flops()
        .iter()
        .map(|&g| nets[nl.gate(g).inputs()[0].index()])
        .collect();
    (nets, capture)
}

/// Two-frame LOC run of the object-walk reference for one block,
/// returning `(capture1, capture2)`.
fn objectwalk_block(nl: &Netlist, block: &PatternBlock) -> (Vec<u64>, Vec<u64>) {
    let (_, capture1) = objectwalk_frame(nl, &block.pi, &block.scan);
    let (_, capture2) = objectwalk_frame(nl, &block.pi, &capture1);
    (capture1, capture2)
}

struct ArchReport {
    name: &'static str,
    gate_target: usize,
    gates: usize,
    flops: usize,
    sites: usize,
    patterns: usize,
    fault_coverage: f64,
    build_secs: f64,
    peak_rss_mb: Option<f64>,
    /// Object-walk reference time / compiled-array time on the same
    /// blocks (bitwise-equal captures asserted).
    compiled_sim_speedup: f64,
    /// Naive GCN kernel chain time / blocked 1-thread chain time
    /// (bitwise-equal gradients asserted).
    kernel_speedup_vs_naive: f64,
    /// Same comparison for the 32-column chain, which dispatches to the
    /// SpMM aggregation branch.
    wide_kernel_speedup_vs_naive: f64,
    stages: Vec<StageResult>,
}

/// The four archetypes of the paper's design matrix with the sizing
/// targets that land the generators at the published gate counts.
const PAPER_SPECS: [(&str, Benchmark, usize, usize); 4] = [
    ("aes", Benchmark::Aes, 64_000, 98_000),
    ("tate", Benchmark::Tate, 130_000, 149_000),
    ("netcard", Benchmark::Netcard, 223_000, 220_000),
    ("leon3mp", Benchmark::Leon3mp, 325_000, 338_000),
];

fn paper_archetype(
    name: &'static str,
    benchmark: Benchmark,
    gate_target: usize,
    configured: usize,
) -> ArchReport {
    eprintln!("paper-scale: building {name} (target {gate_target})...");
    let t = Instant::now();
    let env = TestEnv::build(benchmark, DesignConfig::Syn1, Some(gate_target));
    let build_secs = t.elapsed().as_secs_f64();
    let nl = env.design.netlist();
    let gates = nl.gate_count();
    let flops = nl.flops().len();
    let sites = env.design.sites().len();
    eprintln!(
        "paper-scale: {name} built in {build_secs:.1}s — {gates} gates, {flops} flops, \
         {sites} sites, {} patterns (coverage {:.3})",
        env.test_set.pattern_count(),
        env.test_set.fault_coverage,
    );
    let mut stages = Vec::new();

    // Stage 1: ATPG — the site-grouped bit-parallel sweep fans the
    // undetected sites across the pool against each candidate block.
    let max_patterns = (gates / 2).clamp(256, 4096);
    let ts_eq = |a: &TestSet, b: &TestSet| {
        a.patterns.blocks() == b.patterns.blocks()
            && a.detected == b.detected
            && a.fault_coverage == b.fault_coverage
    };
    let (_, atpg) = stage(
        "atpg",
        1,
        configured,
        2.0 * sites as f64,
        "faults/s",
        ts_eq,
        |threads| {
            m3d_par::with_threads(threads, || {
                generate_patterns(&env.design, &AtpgConfig::new(1, max_patterns))
            })
        },
    );
    stages.push(atpg);

    // Stage 2: good-machine simulation — compiled levelized sweep over
    // the kept pattern blocks, blocks fanned across the pool.
    let sim = Simulator::new(nl);
    let blocks = env.test_set.patterns.blocks();
    let sim_eq = |a: &Vec<m3d_tdf::BlockSim>, b: &Vec<m3d_tdf::BlockSim>| {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.f1 == y.f1
                    && x.f2 == y.f2
                    && x.capture1 == y.capture1
                    && x.capture2 == y.capture2
                    && x.lanes == y.lanes
            })
    };
    let (sims_nt, good_sim) = stage(
        "good_sim",
        1,
        configured,
        env.test_set.pattern_count() as f64,
        "patterns/s",
        sim_eq,
        |threads| m3d_par::with_threads(threads, || sim.run_blocks(blocks)),
    );
    stages.push(good_sim);

    // Compiled-vs-objectwalk comparison on a bounded block sample: the
    // object-walk reference re-reads the gate objects per frame, the
    // compiled simulator sweeps flat arrays. Same captures, bit for bit.
    let n_cmp = blocks.len().min(8);
    let (walk_caps, walk_times) = timed(1, || {
        blocks[..n_cmp]
            .iter()
            .map(|b| objectwalk_block(nl, b))
            .collect::<Vec<_>>()
    });
    let (_, compiled_times) = timed(1, || {
        blocks[..n_cmp]
            .iter()
            .map(|b| sim.run_block(b))
            .collect::<Vec<_>>()
    });
    for ((c1, c2), s) in walk_caps.iter().zip(&sims_nt) {
        assert_eq!(c1, &s.capture1, "{name}: objectwalk capture1 diverged");
        assert_eq!(c2, &s.capture2, "{name}: objectwalk capture2 diverged");
    }
    let compiled_sim_speedup = min_of(&walk_times) / min_of(&compiled_times).max(1e-12);

    // Stage 3: diagnosis sample generation (fault injection + failure-log
    // compaction + back-trace) on a small sample count — each sample
    // re-simulates the full pattern set.
    let fsim = env.fault_sim();
    let n_samples = 4;
    let batch_eq = |a: &Vec<DiagSample>, b: &Vec<DiagSample>| {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.injected == y.injected && x.log == y.log)
    };
    let (batch_nt, gen) = stage(
        "sample_generation",
        1,
        configured,
        n_samples as f64,
        "samples/s",
        batch_eq,
        |threads| {
            m3d_par::with_threads(threads, || {
                generate_samples(
                    &env,
                    &fsim,
                    ObsMode::Bypass,
                    InjectionKind::Single,
                    n_samples,
                    7,
                )
            })
        },
    );
    stages.push(gen);

    // Stage 4: GNN training on the trainable samples.
    let trainable: Vec<&DiagSample> = batch_nt.iter().filter(|s| s.tier_trainable()).collect();
    if trainable.is_empty() {
        eprintln!("paper-scale: {name}: no tier-trainable samples, skipping gnn_fit");
    } else {
        let epochs = 5;
        let cfg = ModelConfig {
            train: TrainConfig {
                epochs,
                ..TrainConfig::default()
            },
            ..ModelConfig::default()
        };
        let bits = |t: &TierPredictor| {
            t.model()
                .flat_params()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>()
        };
        let (_, fit) = stage(
            "gnn_fit",
            1,
            configured,
            epochs as f64,
            "epochs/s",
            |a, b| bits(a) == bits(b),
            |threads| m3d_par::with_threads(threads, || TierPredictor::train(&trainable, &cfg)),
        );
        stages.push(fit);
    }

    // Stage 5: raw GCN kernels on the full gate graph — one forward +
    // backward layer chain (aggregate, matmul, t_matmul, matmul_t,
    // aggregate_transpose), blocked/parallel vs the naive references.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for &g in nl.topo_order().iter().chain(nl.inputs()).chain(nl.flops()) {
        for s in nl.fanout_gates(g) {
            edges.push((g.index(), s.index()));
        }
    }
    let gcn = GcnGraph::from_edges(gates, &edges);
    let x = Matrix::xavier(gates, 16, 11);
    let w = Matrix::xavier(16, 16, 13);
    let chain = |threads: usize| {
        m3d_par::with_threads(threads, || {
            let a = gcn.aggregate(&x);
            let h = a.matmul(&w);
            let dw = a.t_matmul(&h);
            let dx = h.matmul_t(&w);
            let da = gcn.aggregate_transpose(&dx);
            (dw, da)
        })
    };
    let (naive_grads, naive_times) = timed(1, || {
        let a = aggregate_naive(&gcn, &x);
        let h = matmul_naive(&a, &w);
        let dw = t_matmul_naive(&a, &h);
        let dx = matmul_t_naive(&h, &w);
        let da = aggregate_transpose_naive(&gcn, &dx);
        (dw, da)
    });
    let (grads_nt, mut kernels) = stage(
        "gnn_kernels",
        1,
        configured,
        gates as f64,
        "nodes/s",
        |a: &(Matrix, Matrix), b: &(Matrix, Matrix)| a == b,
        chain,
    );
    // The blocked chain must also reproduce the naive references bitwise.
    kernels.deterministic = kernels.deterministic && grads_nt == naive_grads;
    let kernel_speedup_vs_naive = min_of(&naive_times) / kernels.secs_1t.max(1e-12);
    stages.push(kernels);

    // Stage 5b: the same chain at 32 columns, past the narrow-output
    // boundary, so `aggregate` dispatches to the SpMM branch.
    let xw = Matrix::xavier(gates, 32, 17);
    let ww = Matrix::xavier(32, 32, 19);
    let wide_chain = |threads: usize| {
        m3d_par::with_threads(threads, || {
            let a = gcn.aggregate(&xw);
            let h = a.matmul(&ww);
            let dw = a.t_matmul(&h);
            let dx = h.matmul_t(&ww);
            let da = gcn.aggregate_transpose(&dx);
            (dw, da)
        })
    };
    let (naive_wide, naive_wide_times) = timed(1, || {
        let a = aggregate_naive(&gcn, &xw);
        let h = matmul_naive(&a, &ww);
        let dw = t_matmul_naive(&a, &h);
        let dx = matmul_t_naive(&h, &ww);
        let da = aggregate_transpose_naive(&gcn, &dx);
        (dw, da)
    });
    let (wide_nt, mut wide) = stage(
        "gnn_kernels_wide",
        1,
        configured,
        gates as f64,
        "nodes/s",
        |a: &(Matrix, Matrix), b: &(Matrix, Matrix)| a == b,
        wide_chain,
    );
    wide.deterministic = wide.deterministic && wide_nt == naive_wide;
    let wide_kernel_speedup_vs_naive = min_of(&naive_wide_times) / wide.secs_1t.max(1e-12);
    stages.push(wide);

    // Stage 6: per-fault simulation over an even sample of the detected
    // faults (the diagnosis-time workload).
    let mut faults = env.detected_faults();
    if faults.len() > 64 {
        let stride = faults.len().div_ceil(64);
        faults = faults.into_iter().step_by(stride).collect();
    }
    let (_, fsim_stage) = stage(
        "fault_simulation",
        1,
        configured,
        faults.len() as f64,
        "faults/s",
        |a: &Vec<Vec<m3d_tdf::Detection>>, b| a == b,
        |threads| {
            m3d_par::with_threads(threads, || {
                m3d_par::par_map_init(
                    &faults,
                    || fsim.detector(),
                    |det, f| fsim.detections(det, std::slice::from_ref(f)),
                )
            })
        },
    );
    stages.push(fsim_stage);

    ArchReport {
        name,
        gate_target,
        gates,
        flops,
        sites,
        patterns: env.test_set.pattern_count(),
        fault_coverage: env.test_set.fault_coverage,
        build_secs,
        peak_rss_mb: peak_rss_mb(),
        compiled_sim_speedup,
        kernel_speedup_vs_naive,
        wide_kernel_speedup_vs_naive,
        stages,
    }
}

fn stage_json(s: &StageResult, configured: usize) -> String {
    let speedup = match s.speedup(configured) {
        Some(x) => format!("{x:.3}"),
        None => "null".to_string(),
    };
    let efficiency = match s.scaling_efficiency(configured) {
        Some(x) => format!("{x:.3}"),
        None => "null".to_string(),
    };
    format!(
        "{{\"name\": \"{}\", \"secs_1t\": {:.6}, \"secs_nt\": {:.6}, \
         \"secs_nt_obs\": {:.6}, \"effective_threads\": {}, \
         \"speedup\": {speedup}, \"scaling_efficiency\": {efficiency}, \
         \"obs_overhead_pct\": {:.2}, \"noise_floor_pct\": {:.2}, \
         \"obs_noise\": {}, \"throughput_nt\": {:.3}, \"unit\": \"{}\", \
         \"deterministic\": {}}}",
        s.name,
        s.secs_1t,
        s.secs_nt,
        s.secs_nt_obs,
        s.effective_threads,
        s.obs_overhead_pct(),
        s.noise_floor_pct(),
        s.obs_noise(),
        s.throughput_nt,
        s.unit,
        s.deterministic,
    )
}

fn print_stage_table(stages: &[StageResult], configured: usize) {
    for s in stages {
        let speedup = match s.speedup(configured) {
            Some(x) => format!("{x:>5.2}x"),
            None => "  n/a ".to_string(),
        };
        let eff = match s.scaling_efficiency(configured) {
            Some(x) => format!("{x:>4.2}"),
            None => " n/a".to_string(),
        };
        // An overhead below the run's own rep-to-rep spread (negative
        // included) is noise, and is always labelled as such.
        let obs = if s.obs_noise() {
            format!("{:>+5.1}% (noise)", s.obs_overhead_pct())
        } else {
            format!("{:>+5.1}%", s.obs_overhead_pct())
        };
        println!(
            "{:<18} 1t {:>8.3}s  {}t {:>8.3}s  speedup {speedup}  scal-eff {eff}  \
             obs {obs}  eff-threads {}  {:>10.1} {}  deterministic: {}",
            s.name,
            s.secs_1t,
            configured,
            s.secs_nt,
            s.effective_threads,
            s.throughput_nt,
            s.unit,
            s.deterministic,
        );
    }
}

fn paper_tier(configured: usize, host: usize, arch_filter: Option<&str>, gates_cap: Option<usize>) {
    let specs: Vec<_> = PAPER_SPECS
        .iter()
        .filter(|(n, ..)| arch_filter.is_none_or(|f| f == *n))
        .collect();
    assert!(
        !specs.is_empty(),
        "unknown --archetype; expected one of aes, tate, netcard, leon3mp"
    );
    let mut reports = Vec::new();
    for &&(name, benchmark, target, _published) in &specs {
        let target = gates_cap.map_or(target, |cap| target.min(cap));
        let report = paper_archetype(name, benchmark, target, configured);
        println!(
            "\n== {name}: {} gates, {} patterns, coverage {:.3}, build {:.1}s, \
             peak RSS {} MB, compiled-sim {:.2}x, kernels-vs-naive {:.2}x, \
             wide-kernels-vs-naive {:.2}x ==",
            report.gates,
            report.patterns,
            report.fault_coverage,
            report.build_secs,
            report
                .peak_rss_mb
                .map_or("n/a".to_string(), |m| format!("{m:.0}")),
            report.compiled_sim_speedup,
            report.kernel_speedup_vs_naive,
            report.wide_kernel_speedup_vs_naive,
        );
        print_stage_table(&report.stages, configured);
        reports.push(report);
    }

    // Route the numbers through the metrics registry and snapshot them to
    // the JSONL sidecar, as in the default tier.
    m3d_obs::reset();
    m3d_obs::set_enabled(true);
    for r in &reports {
        let p = format!("bench.paper.{}", r.name);
        m3d_obs::counter(&format!("{p}.gates"), r.gates as u64);
        m3d_obs::counter(&format!("{p}.patterns"), r.patterns as u64);
        m3d_obs::gauge(&format!("{p}.build_secs"), r.build_secs);
        m3d_obs::gauge(&format!("{p}.fault_coverage"), r.fault_coverage);
        m3d_obs::gauge(&format!("{p}.compiled_sim_speedup"), r.compiled_sim_speedup);
        m3d_obs::gauge(
            &format!("{p}.kernel_speedup_vs_naive"),
            r.kernel_speedup_vs_naive,
        );
        m3d_obs::gauge(
            &format!("{p}.wide_kernel_speedup_vs_naive"),
            r.wide_kernel_speedup_vs_naive,
        );
        if let Some(m) = r.peak_rss_mb {
            m3d_obs::gauge(&format!("{p}.peak_rss_mb"), m);
        }
        for s in &r.stages {
            m3d_obs::gauge(&format!("{p}.{}.secs_1t", s.name), s.secs_1t);
            m3d_obs::gauge(&format!("{p}.{}.secs_nt", s.name), s.secs_nt);
            m3d_obs::gauge(&format!("{p}.{}.throughput_nt", s.name), s.throughput_nt);
            if let Some(x) = s.speedup(configured) {
                m3d_obs::gauge(&format!("{p}.{}.speedup", s.name), x);
            }
            if let Some(x) = s.scaling_efficiency(configured) {
                m3d_obs::gauge(&format!("{p}.{}.scaling_efficiency", s.name), x);
            }
            m3d_obs::counter(
                &format!("{p}.{}.effective_threads", s.name),
                s.effective_threads as u64,
            );
        }
    }
    let reg = m3d_obs::registry_snapshot();
    let mut metrics_jsonl = String::new();
    for e in reg.events() {
        let _ = writeln!(metrics_jsonl, "{}", e.render_line());
    }
    std::fs::write("BENCH_pipeline_metrics.jsonl", &metrics_jsonl)
        .expect("write BENCH_pipeline_metrics.jsonl");
    m3d_obs::set_enabled(false);
    m3d_obs::reset();

    let all_ok = reports
        .iter()
        .all(|r| r.stages.iter().all(|s| s.deterministic));
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"tier\": \"paper_scale\",");
    let _ = writeln!(json, "  \"host_threads\": {host},");
    let _ = writeln!(json, "  \"configured_threads\": {configured},");
    let _ = writeln!(json, "  \"oversubscribed\": {},", configured > host);
    let _ = writeln!(
        json,
        "  \"peak_rss_note\": \"peak_rss_mb is the process high-water mark, \
         monotone across archetypes in a multi-archetype run\","
    );
    if let Some(cap) = gates_cap {
        let _ = writeln!(json, "  \"gates_cap\": {cap},");
    }
    let _ = writeln!(json, "  \"archetypes\": [");
    for (i, r) in reports.iter().enumerate() {
        let comma = if i + 1 < reports.len() { "," } else { "" };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"gate_target\": {},", r.gate_target);
        let _ = writeln!(json, "      \"gates\": {},", r.gates);
        let _ = writeln!(json, "      \"flops\": {},", r.flops);
        let _ = writeln!(json, "      \"sites\": {},", r.sites);
        let _ = writeln!(json, "      \"patterns\": {},", r.patterns);
        let _ = writeln!(json, "      \"fault_coverage\": {:.6},", r.fault_coverage);
        let _ = writeln!(json, "      \"build_secs\": {:.3},", r.build_secs);
        let _ = writeln!(
            json,
            "      \"peak_rss_mb\": {},",
            r.peak_rss_mb
                .map_or("null".to_string(), |m| format!("{m:.1}"))
        );
        let _ = writeln!(
            json,
            "      \"compiled_sim_speedup\": {:.3},",
            r.compiled_sim_speedup
        );
        let _ = writeln!(
            json,
            "      \"kernel_speedup_vs_naive\": {:.3},",
            r.kernel_speedup_vs_naive
        );
        let _ = writeln!(
            json,
            "      \"wide_kernel_speedup_vs_naive\": {:.3},",
            r.wide_kernel_speedup_vs_naive
        );
        let _ = writeln!(json, "      \"stages\": [");
        for (j, s) in r.stages.iter().enumerate() {
            let c = if j + 1 < r.stages.len() { "," } else { "" };
            let _ = writeln!(json, "        {}{c}", stage_json(s, configured));
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"all_deterministic\": {all_ok}");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");

    assert!(all_ok, "parallel results diverged from serial results");
    if configured > 1 {
        for r in &reports {
            let max_eff = r
                .stages
                .iter()
                .map(|s| s.effective_threads)
                .max()
                .unwrap_or(1);
            assert!(
                max_eff > 1,
                "{}: no stage dispatched more than one worker at pool width {configured}",
                r.name
            );
        }
    }
    println!("\nwrote BENCH_pipeline.json (tier: paper_scale) and BENCH_pipeline_metrics.jsonl");
}

fn default_tier(quick: bool, configured: usize, host: usize) {
    let (target, n_samples, epochs, fault_cap) = if quick {
        (Some(400), 12, 10, 200)
    } else {
        (Some(1200), 40, 30, 1500)
    };

    let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, target);
    let fsim = env.fault_sim();
    let mut stages = Vec::new();

    // Stage 1: dataset generation (wave-parallel fault sim + back-trace).
    let batch_eq = |a: &Vec<DiagSample>, b: &Vec<DiagSample>| {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.injected == y.injected && x.log == y.log)
    };
    let (batch_nt, gen) = stage(
        "sample_generation",
        REPS,
        configured,
        n_samples as f64,
        "samples/s",
        batch_eq,
        |threads| {
            m3d_par::with_threads(threads, || {
                generate_samples(
                    &env,
                    &fsim,
                    ObsMode::Bypass,
                    InjectionKind::Single,
                    n_samples,
                    7,
                )
            })
        },
    );
    stages.push(gen);

    // Stage 2: GNN training (per-sample gradients fan across the pool).
    let trainable: Vec<&DiagSample> = batch_nt.iter().filter(|s| s.tier_trainable()).collect();
    let cfg = ModelConfig {
        train: TrainConfig {
            epochs,
            ..TrainConfig::default()
        },
        ..ModelConfig::default()
    };
    let bits = |t: &TierPredictor| {
        t.model()
            .flat_params()
            .iter()
            .map(|p| p.to_bits())
            .collect::<Vec<_>>()
    };
    let (_, fit) = stage(
        "gnn_fit",
        REPS,
        configured,
        epochs as f64,
        "epochs/s",
        |a, b| bits(a) == bits(b),
        |threads| m3d_par::with_threads(threads, || TierPredictor::train(&trainable, &cfg)),
    );
    stages.push(fit);

    // Stage 3: fault simulation (per-fault sweep with per-worker scratch).
    let mut faults = env.detected_faults();
    faults.truncate(fault_cap);
    let (_, fsim_stage) = stage(
        "fault_simulation",
        REPS,
        configured,
        faults.len() as f64,
        "faults/s",
        |a: &Vec<Vec<m3d_tdf::Detection>>, b| a == b,
        |threads| {
            m3d_par::with_threads(threads, || {
                m3d_par::par_map_init(
                    &faults,
                    || fsim.detector(),
                    |det, f| fsim.detections(det, std::slice::from_ref(f)),
                )
            })
        },
    );
    stages.push(fsim_stage);

    // Stage 4 (unthreaded comparison): dataflow fault-sim pruning. Sites
    // the static analysis proves untestable are dropped before the sweep;
    // the pruned sweep must reproduce every surviving fault's detection
    // signature bit-for-bit, and the full sweep must confirm the proofs by
    // finding no detections at any pruned fault.
    let mut all_faults = full_fault_list(&env.design);
    if all_faults.len() > 4 * fault_cap {
        // Sample evenly rather than truncating: the site table is laid out
        // by object kind, so a prefix would bias the pruning rate.
        let stride = all_faults.len().div_ceil(4 * fault_cap);
        all_faults = all_faults.into_iter().step_by(stride).collect();
    }
    let (proofs, proof_times) = timed(REPS, || {
        let cp = ConstProp::compute(env.design.netlist());
        StaticProofs::compute(&env.design, &cp)
    });
    let proof_secs = min_of(&proof_times);
    let skip_site = proofs.prunable_sites();
    let pruned_faults: Vec<Fault> = all_faults
        .iter()
        .copied()
        .filter(|f| !skip_site[f.site.index()])
        .collect();
    let sweep_list = |list: &[Fault]| {
        m3d_par::with_threads(configured, || {
            m3d_par::par_map_init(
                list,
                || fsim.detector(),
                |det, f| fsim.detections(det, std::slice::from_ref(f)),
            )
        })
    };
    let t = Instant::now();
    let full_dets = sweep_list(&all_faults);
    let full_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let pruned_dets = sweep_list(&pruned_faults);
    let pruned_secs = t.elapsed().as_secs_f64();
    let mut survivors = pruned_dets.iter();
    let signatures_equal = all_faults.iter().zip(&full_dets).all(|(f, d)| {
        if skip_site[f.site.index()] {
            d.is_empty() // a proven-untestable fault must never detect
        } else {
            survivors.next() == Some(d)
        }
    }) && survivors.next().is_none();
    let n_pruned = all_faults.len() - pruned_faults.len();
    println!(
        "fault_sim_pruning  {} faults, {} proven untestable ({:.1}%), \
         full {:.3}s vs pruned {:.3}s (+{:.3}s proof), signatures equal: {}",
        all_faults.len(),
        n_pruned,
        100.0 * n_pruned as f64 / all_faults.len().max(1) as f64,
        full_secs,
        pruned_secs,
        proof_secs,
        signatures_equal,
    );
    assert!(
        signatures_equal,
        "pruned sweep changed a detectable fault's signature"
    );

    // Route every stage number through the metrics registry: the JSON and
    // the metrics JSONL below are both rendered from this one snapshot, in
    // the registry's deterministic (alphabetical) event order.
    m3d_obs::reset();
    m3d_obs::set_enabled(true);
    for s in &stages {
        m3d_obs::gauge(&format!("bench.{}.secs_1t", s.name), s.secs_1t);
        m3d_obs::gauge(&format!("bench.{}.secs_nt", s.name), s.secs_nt);
        m3d_obs::gauge(&format!("bench.{}.secs_nt_obs", s.name), s.secs_nt_obs);
        m3d_obs::gauge(
            &format!("bench.{}.obs_overhead_pct", s.name),
            s.obs_overhead_pct(),
        );
        m3d_obs::gauge(&format!("bench.{}.throughput_nt", s.name), s.throughput_nt);
        m3d_obs::gauge(
            &format!("bench.{}.noise_floor_pct", s.name),
            s.noise_floor_pct(),
        );
        if let Some(x) = s.speedup(configured) {
            m3d_obs::gauge(&format!("bench.{}.speedup", s.name), x);
        }
        if let Some(x) = s.scaling_efficiency(configured) {
            m3d_obs::gauge(&format!("bench.{}.scaling_efficiency", s.name), x);
        }
        m3d_obs::counter(
            &format!("bench.{}.effective_threads", s.name),
            s.effective_threads as u64,
        );
    }
    m3d_obs::counter(
        "bench.fault_sim_pruning.faults_total",
        all_faults.len() as u64,
    );
    m3d_obs::counter("bench.fault_sim_pruning.faults_pruned", n_pruned as u64);
    m3d_obs::counter(
        "bench.fault_sim_pruning.faults_simulated",
        pruned_faults.len() as u64,
    );
    m3d_obs::gauge("bench.fault_sim_pruning.proof_secs", proof_secs);
    m3d_obs::gauge("bench.fault_sim_pruning.full_secs", full_secs);
    m3d_obs::gauge("bench.fault_sim_pruning.pruned_secs", pruned_secs);
    let reg = m3d_obs::registry_snapshot();
    let mut metrics_jsonl = String::new();
    for e in reg.events() {
        let _ = writeln!(metrics_jsonl, "{}", e.render_line());
    }
    std::fs::write("BENCH_pipeline_metrics.jsonl", &metrics_jsonl)
        .expect("write BENCH_pipeline_metrics.jsonl");
    m3d_obs::set_enabled(false);
    m3d_obs::reset();

    let all_ok = stages.iter().all(|s| s.deterministic);
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"tier\": \"default\",");
    let _ = writeln!(json, "  \"host_threads\": {host},");
    let _ = writeln!(json, "  \"configured_threads\": {configured},");
    let _ = writeln!(json, "  \"oversubscribed\": {},", configured > host);
    if configured <= 1 {
        let _ = writeln!(
            json,
            "  \"speedup_note\": \"pool width is 1; the 1t and nt runs share one \
             configuration, so per-stage speedup is omitted\","
        );
    }
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"stages\": [");
    for (i, s) in stages.iter().enumerate() {
        let comma = if i + 1 < stages.len() { "," } else { "" };
        // Spot-check that the registry roundtrip preserved the numbers
        // the JSON is rendered from.
        let rt = gauge_of(&reg, &format!("bench.{}.secs_nt", s.name));
        assert!(
            (rt - s.secs_nt).abs() <= f64::EPSILON * rt.abs().max(1.0),
            "registry roundtrip drifted for {}",
            s.name
        );
        let _ = writeln!(json, "    {}{comma}", stage_json(s, configured));
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"fault_sim_pruning\": {{\"faults_total\": {}, \"faults_pruned\": {}, \
         \"faults_simulated\": {}, \"proof_secs\": {proof_secs:.6}, \
         \"full_secs\": {full_secs:.6}, \"pruned_secs\": {pruned_secs:.6}, \
         \"signatures_equal\": {signatures_equal}}},",
        all_faults.len(),
        n_pruned,
        pruned_faults.len(),
    );
    let _ = writeln!(json, "  \"all_deterministic\": {all_ok}");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");

    print_stage_table(&stages, configured);
    assert!(all_ok, "parallel results diverged from serial results");
    println!("wrote BENCH_pipeline.json and BENCH_pipeline_metrics.jsonl");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paper = false;
    let mut arch_filter: Option<String> = None;
    let mut gates_cap: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--paper-scale" => paper = true,
            "--archetype" => {
                i += 1;
                arch_filter = Some(
                    args.get(i)
                        .unwrap_or_else(|| panic!("--archetype needs a name"))
                        .clone(),
                );
            }
            "--gates-cap" => {
                i += 1;
                gates_cap = Some(
                    args.get(i)
                        .unwrap_or_else(|| panic!("--gates-cap needs a number"))
                        .parse()
                        .expect("--gates-cap must be an integer"),
                );
            }
            other => {
                panic!("unknown argument {other}; see --paper-scale, --archetype, --gates-cap")
            }
        }
        i += 1;
    }

    let quick = std::env::var_os("M3D_QUICK").is_some();
    let configured = m3d_par::num_threads();
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "bench_pipeline: pool width {configured} (host has {host}{}), tier = {}",
        if configured > host {
            ", oversubscribed"
        } else {
            ""
        },
        if paper { "paper_scale" } else { "default" },
    );
    if paper {
        paper_tier(configured, host, arch_filter.as_deref(), gates_cap);
    } else {
        default_tier(quick, configured, host);
    }
}
