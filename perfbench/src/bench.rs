//! One benchmark run: set-up, the timed phases, the correctness checks,
//! and the metrics.
//!
//! An untraced run (`--trace 0`) sets the workload up several times and
//! reports the median set-up time, then runs the timed phase with the
//! recorder off and reports the end-to-end metrics. A traced run
//! (`--trace 1`) sets up once with spans on, runs the same untraced phase,
//! then replays one pass of logs with spans on and reports the per-layer
//! metrics, including the recorder's overhead against the untraced phase.

use std::collections::BTreeMap;
use std::time::Instant;

use m3d_diagnosis::{Diagnoser, DiagnosisConfig};
use m3d_tdf::write_failure_log;

use crate::pipeline::{offline_phase, Phase, Pipeline, Reference, Schedule};
use crate::served::{client_phase, Expected, Server};
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::workload::{timed, Chip, SetupTimes, Workload};

/// Logs a pass must hold at least, so p90 has ten logs beyond it.
pub const MIN_LOGS: usize = 100;
/// Set-ups per untraced run at least; `setup_s` is their median.
const SETUPS: usize = 3;
/// Seconds an untraced run spends setting up at least, so quick set-ups
/// are repeated more often.
const MIN_SETUP_S: f64 = 2.0;
/// Least share of per-log wall time the layer spans must cover offline.
pub const MIN_COVERAGE: f64 = 0.95;

/// End-to-end metrics and units, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("logs_per_s", "logs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics and units, printed by traced runs.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("quality.accuracy", "ratio"),
    ("quality.resolution_mean", "candidates"),
    ("quality.fhi_mean", "rank"),
    ("quality.tier_accuracy", "ratio"),
    ("diagnosis.diagnose_s", "s"),
    ("diagnosis.diagnose_p50_ms", "ms"),
    ("diagnosis.diagnose_p90_ms", "ms"),
    ("diagnosis.log_entries", "count"),
    ("diagnosis.candidates", "count"),
    ("diagnosis.render_s", "s"),
    ("diagnosis.new_s", "s"),
    ("hetgraph.back_trace_s", "s"),
    ("hetgraph.back_trace_p90_ms", "ms"),
    ("hetgraph.subgraph_nodes", "count"),
    ("hetgraph.back_trace_empty", "count"),
    ("hetgraph.build_s", "s"),
    ("core.enhance_s", "s"),
    ("gnn.tier_predict_s", "s"),
    ("gnn.miv_predict_s", "s"),
    ("core.action.prune", "count"),
    ("core.action.reorder", "count"),
    ("core.action.pass_through", "count"),
    ("core.action.degraded", "count"),
    ("core.useful_frac", "ratio"),
    ("core.train_samples_s", "s"),
    ("gnn.train_s", "s"),
    ("m3d.build_design_s", "s"),
    ("dft.scan_s", "s"),
    ("tdf.atpg_s", "s"),
    ("tdf.patterns", "count"),
    ("core.workload_gen_s", "s"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.overhead_s", "s"),
    ("serve.encode_s", "s"),
    ("serve.decode_s", "s"),
    ("serve.requests", "count"),
    ("serve.rejected", "count"),
    ("serve.mismatches", "count"),
    ("serve.load_s", "s"),
    ("par.cpu_s", "s"),
    ("par.utilization", "ratio"),
    ("par.width", "threads"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.layer_coverage", "ratio"),
    ("obs.spans", "count"),
    ("obs.traced_logs", "count"),
    ("failed_frac", "ratio"),
    ("sys.setup_rss_mb", "MB"),
    ("sys.peak_rss_mb", "MB"),
];

/// What a run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// The workload.
    pub workload: &'static Workload,
    /// Workload seed: picks the injected faults.
    pub seed: u64,
    /// Least wall time of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Logs handed to the program.
    pub attempted: usize,
    /// Logs that failed (panic, degraded report, typed refusal, or a
    /// report that differs from its reference).
    pub failed: usize,
    /// The metrics, in list order.
    pub metrics: Vec<Metric>,
    /// FNV-1a digest of every log's report text, in log order.
    pub digest: u64,
    /// Human-readable findings, one per line.
    pub notes: Vec<String>,
    /// The recorded spans (empty when untraced).
    pub tracer: Tracer,
}

/// What the measuring set-up hands back.
struct Measured {
    untraced: Phase,
    traced: Option<Phase>,
    reference: Reference,
    served: Option<ServedCounts>,
}

#[derive(Clone, Copy, Debug, Default)]
struct ServedCounts {
    requests: usize,
    rejected: usize,
    mismatches: usize,
}

/// Runs one workload.
///
/// # Errors
///
/// A set-up step or the server failed outright.
pub fn run(a: &Args) -> Result<Outcome, String> {
    let w = a.workload;
    assert!(
        w.logs >= MIN_LOGS,
        "{} has fewer than {MIN_LOGS} logs",
        w.name
    );
    let width = m3d_par::num_threads();

    let mut tr = Tracer::new(a.trace);
    let mut notes = Vec::new();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    // The first set-up measures. Peak memory is read before the extra
    // set-ups, which only time themselves, so it reflects one set-up.
    let (times, m) = set_up(a, width, true, &mut tr, &mut notes)?;
    let m = m.expect("a measuring set-up returns its phases");
    values.insert("sys.peak_rss_mb", crate::sys::peak_rss_mb());
    let mut setups = vec![times];
    while !a.trace
        && (setups.len() < SETUPS || setups.iter().map(|s| s.total_s).sum::<f64>() < MIN_SETUP_S)
    {
        setups.push(set_up(a, width, false, &mut tr, &mut notes)?.0);
    }

    let mut failed = m.untraced.failed + m.traced.as_ref().map_or(0, |p| p.failed);
    let attempted =
        m.untraced.latencies_ms.len() + m.traced.as_ref().map_or(0, |p| p.latencies_ms.len());
    if !m.reference.complete() {
        failed += 1;
        notes.push("not every log produced a report".into());
    }
    let mut correct = failed == 0;

    if a.trace {
        let coverage = layer_metrics(a, width, &setups[0], &m, &tr, &mut values);
        let root = if w.served { "request" } else { "log" };
        for (name, t) in tr.layer_times() {
            notes.push(format!(
                "span {name}: total {:.6} s, self {:.6} s",
                t.total_s, t.self_s
            ));
        }
        notes.push(format!(
            "layer spans cover {:.2}% of per-{root} wall time",
            coverage * 100.0
        ));
        if !w.served && coverage < MIN_COVERAGE {
            correct = false;
            notes.push(format!(
                "coverage below the required {:.0}%",
                MIN_COVERAGE * 100.0
            ));
        }
        values.insert("failed_frac", failed as f64 / attempted.max(1) as f64);
    } else {
        end_to_end_metrics(a, &setups, &m, &mut values);
    }
    let list: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = list
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} was not computed")),
            unit,
        })
        .collect();
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        digest: m.reference.digest(),
        notes,
        tracer: tr,
    })
}

/// Sets the workload up once; with `measure`, also runs the timed phases.
fn set_up(
    a: &Args,
    width: usize,
    measure: bool,
    tr: &mut Tracer,
    notes: &mut Vec<String>,
) -> Result<(SetupTimes, Option<Measured>), String> {
    let w = a.workload;
    let t0 = Instant::now();
    let mut times = SetupTimes::default();
    let art = w.build(a.seed, tr, &mut times);
    let fsim = art.env.fault_sim();
    let diagnoser = timed(tr, "diagnosis.new", &mut times.diag_new_s, || {
        Diagnoser::new(&fsim, &art.env.scan, w.mode, DiagnosisConfig::default())
    });
    let server = if w.served {
        Some(timed(tr, "serve.load", &mut times.serve_load_s, || {
            Server::start(w, width)
        })?)
    } else {
        None
    };
    times.total_s = t0.elapsed().as_secs_f64();
    times.rss_mb = crate::sys::peak_rss_mb();
    if !measure {
        return server.map_or(Ok(()), Server::stop).map(|()| (times, None));
    }
    let p = Pipeline {
        env: &art.env,
        fsim: &fsim,
        diagnoser: &diagnoser,
        localizer: &art.localizer,
    };
    let m = match server {
        None => measure_offline(a, &p, &art.chips, tr),
        Some(server) => measure_served(a, &p, &art.chips, server, tr, notes)?,
    };
    Ok((times, Some(m)))
}

/// The untraced phase: whole passes until at least `seconds` have passed
/// and the tail percentile has ten samples beyond it.
fn untraced(a: &Args, n: usize) -> Schedule {
    Schedule::new(n, a.seconds, a.workload.tail_samples(), usize::MAX)
}

fn measure_offline(a: &Args, p: &Pipeline<'_>, chips: &[Chip], tr: &mut Tracer) -> Measured {
    let mut reference = Reference::new(chips.len());
    let mut off = Tracer::new(false);
    let n = chips.len();
    let untraced = offline_phase(p, chips, &untraced(a, n), &mut reference, &mut off);
    let traced = a
        .trace
        .then(|| offline_phase(p, chips, &Schedule::one_pass(n), &mut reference, tr));
    Measured {
        untraced,
        traced,
        reference,
        served: None,
    }
}

fn measure_served(
    a: &Args,
    p: &Pipeline<'_>,
    chips: &[Chip],
    server: Server,
    tr: &mut Tracer,
    notes: &mut Vec<String>,
) -> Result<Measured, String> {
    // The offline reports every served report must equal. In a traced run
    // this pass also gives the diagnosis, back-trace and enhance layers.
    let n = chips.len();
    let mut reference = Reference::new(n);
    let offline = offline_phase(p, chips, &Schedule::one_pass(n), &mut reference, tr);
    let expected: Vec<Expected> = chips
        .iter()
        .enumerate()
        .map(|(i, c)| Expected {
            log_text: write_failure_log(&c.log),
            text: reference.texts[i].clone().unwrap_or_default(),
            action: reference.actions[i],
        })
        .collect();
    let mut off = Tracer::new(false);
    let untraced = client_phase(server.addr(), &expected, &untraced(a, n), &mut off)?;
    let traced = if a.trace {
        Some(client_phase(
            server.addr(),
            &expected,
            &Schedule::one_pass(n),
            tr,
        )?)
    } else {
        None
    };
    server.stop()?;
    let mut counts = ServedCounts::default();
    for s in std::iter::once(&untraced).chain(&traced) {
        counts.requests += s.phase.latencies_ms.len();
        counts.rejected += s.rejected;
        counts.mismatches += s.mismatches;
        if let Some(why) = &s.first_problem {
            notes.push(why.clone());
        }
    }
    let mut untraced_phase = untraced.phase;
    // An offline failure is a failure of the served workload too.
    untraced_phase.failed += offline.failed;
    Ok(Measured {
        untraced: untraced_phase,
        traced: traced.map(|s| s.phase),
        reference,
        served: Some(counts),
    })
}

fn end_to_end_metrics(
    a: &Args,
    setups: &[SetupTimes],
    m: &Measured,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let lat = &m.untraced.latencies_ms;
    let totals: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    values.insert("logs_per_s", lat.len() as f64 / m.untraced.wall_s);
    values.insert("latency_p50_ms", median(lat).unwrap_or(0.0));
    values.insert(
        "latency_tail_ms",
        tail_percentile(lat, a.workload.tail).expect("the phase ran tail_samples logs"),
    );
    values.insert("setup_s", median(&totals).unwrap_or(0.0));
}

/// Fills the per-layer metrics; returns the per-log span coverage.
fn layer_metrics(
    a: &Args,
    width: usize,
    setup: &SetupTimes,
    m: &Measured,
    tr: &Tracer,
    values: &mut BTreeMap<&'static str, f64>,
) -> f64 {
    let w = a.workload;
    let layers = tr.layer_times();
    let total = |name: &str| layers.get(name).map_or(0.0, |t| t.total_s);
    let ms = |v: Vec<f64>| -> Vec<f64> { v.into_iter().map(|s| s * 1e3).collect() };
    let diagnose_ms = ms(tr.durations("diagnosis.diagnose"));
    let back_trace_ms = ms(tr.durations("hetgraph.back_trace"));
    let p90 =
        |v: &[f64]| tail_percentile(v, 0.9).expect("a traced pass has at least MIN_LOGS logs");
    let r = &m.reference;
    let n = r.texts.len();
    let traced = m.traced.as_ref().expect("traced runs replay a pass");

    let q = r.quality();
    values.insert("quality.accuracy", q.accuracy);
    values.insert("quality.resolution_mean", q.mean_resolution);
    values.insert("quality.fhi_mean", q.mean_fhi);
    values.insert("quality.tier_accuracy", q.tier_localization);

    values.insert("diagnosis.diagnose_s", total("diagnosis.diagnose"));
    values.insert(
        "diagnosis.diagnose_p50_ms",
        median(&diagnose_ms).unwrap_or(0.0),
    );
    values.insert("diagnosis.diagnose_p90_ms", p90(&diagnose_ms));
    values.insert("diagnosis.log_entries", r.log_entries as f64);
    values.insert("diagnosis.candidates", r.candidates as f64);
    values.insert("diagnosis.render_s", total("diagnosis.render"));
    values.insert("diagnosis.new_s", setup.diag_new_s);
    values.insert("hetgraph.back_trace_s", total("hetgraph.back_trace"));
    values.insert("hetgraph.back_trace_p90_ms", p90(&back_trace_ms));
    values.insert("hetgraph.subgraph_nodes", r.subgraph_nodes as f64);
    values.insert("hetgraph.back_trace_empty", r.back_trace_empty as f64);
    values.insert("hetgraph.build_s", setup.het_build_s);
    values.insert("core.enhance_s", total("core.enhance"));
    values.insert("gnn.tier_predict_s", total("gnn.tier_predict"));
    values.insert("gnn.miv_predict_s", total("gnn.miv_predict"));
    let [prune, reorder, pass_through, degraded] = r.action_counts;
    values.insert("core.action.prune", prune as f64);
    values.insert("core.action.reorder", reorder as f64);
    values.insert("core.action.pass_through", pass_through as f64);
    values.insert("core.action.degraded", degraded as f64);
    values.insert(
        "core.useful_frac",
        (prune + reorder) as f64 / n.max(1) as f64,
    );
    values.insert("core.train_samples_s", setup.train_samples_s);
    values.insert("gnn.train_s", setup.train_s);
    values.insert("m3d.build_design_s", setup.build_design_s);
    values.insert("dft.scan_s", setup.scan_s);
    values.insert("tdf.atpg_s", setup.atpg_s);
    values.insert("tdf.patterns", setup.patterns as f64);
    values.insert("core.workload_gen_s", setup.workload_gen_s);
    values.insert("sys.setup_rss_mb", setup.rss_mb);

    // Serving overhead: per-log wall time the compute layers do not
    // explain. Served, that is the round trip minus the offline unit of
    // work for the same log; offline, the log span's self time.
    let overhead_ms: Vec<f64> = if w.served {
        traced
            .latencies_ms
            .iter()
            .zip(&traced.log_ids)
            .map(|(lat, &id)| lat - r.compute_s[id] * 1e3)
            .collect()
    } else {
        ms(tr.self_times("log"))
    };
    values.insert("serve.overhead_p50_ms", median(&overhead_ms).unwrap_or(0.0));
    values.insert("serve.overhead_s", overhead_ms.iter().sum::<f64>() * 1e-3);
    values.insert("serve.encode_s", total("serve.encode"));
    values.insert("serve.decode_s", total("serve.decode"));
    let s = m.served.unwrap_or_default();
    values.insert("serve.requests", s.requests as f64);
    values.insert("serve.rejected", s.rejected as f64);
    values.insert("serve.mismatches", s.mismatches as f64);
    values.insert("serve.load_s", setup.serve_load_s);

    let u = &m.untraced;
    values.insert("par.cpu_s", u.cpu_s);
    values.insert("par.utilization", u.cpu_s / (u.wall_s * width as f64));
    values.insert("par.width", width as f64);
    values.insert("obs.trace_overhead_pct", trace_overhead_pct(u, traced));
    let root = if w.served { "request" } else { "log" };
    let coverage = tr.coverage(root).unwrap_or(0.0);
    values.insert("obs.layer_coverage", coverage);
    values.insert("obs.spans", tr.spans().len() as f64);
    values.insert("obs.traced_logs", traced.latencies_ms.len() as f64);
    coverage
}

/// How much slower the traced replay ran than the untraced phase, over
/// the same logs: the sum over log ids of traced latency against the mean
/// untraced latency of that log.
fn trace_overhead_pct(untraced: &Phase, traced: &Phase) -> f64 {
    let mut sums: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    for (&id, &lat) in untraced.log_ids.iter().zip(&untraced.latencies_ms) {
        let e = sums.entry(id).or_default();
        e.0 += lat;
        e.1 += 1;
    }
    let (mut base, mut with) = (0.0, 0.0);
    for (&id, &lat) in traced.log_ids.iter().zip(&traced.latencies_ms) {
        if let Some(&(sum, count)) = sums.get(&id) {
            base += sum / count as f64;
            with += lat;
        }
    }
    if base > 0.0 {
        (with / base - 1.0) * 100.0
    } else {
        0.0
    }
}
