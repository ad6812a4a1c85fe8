//! The paper's unit of work, called offline: one failure log in, one
//! enhanced ranked report text out. `Diagnoser::diagnose`, then
//! `back_trace`, then `FaultLocalizer::enhance`, then report rendering.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use m3d_diagnosis::{Diagnoser, DiagnosisReport, QualityAccumulator, ReportQuality};
use m3d_fault_localization::{DiagSample, FaultLocalizer, PolicyAction, PolicyOutcome, TestEnv};
use m3d_hetgraph::back_trace;
use m3d_tdf::{FailureLog, FaultSim};

use crate::trace::Tracer;
use crate::workload::Chip;

/// The objects one log passes through.
pub struct Pipeline<'a> {
    /// Design, scan, patterns and heterogeneous graph.
    pub env: &'a TestEnv,
    /// The fault simulator over the pattern set.
    pub fsim: &'a FaultSim<'a>,
    /// The cause-effect diagnosis engine.
    pub diagnoser: &'a Diagnoser<'a>,
    /// The trained localization models.
    pub localizer: &'a FaultLocalizer,
}

/// What one log produced.
#[derive(Debug)]
pub struct Unit {
    /// The ATPG diagnosis report.
    pub atpg: DiagnosisReport,
    /// The back-traced sample `enhance` worked on.
    pub sample: DiagSample,
    /// The enhanced report and the policy's action.
    pub outcome: PolicyOutcome,
    /// The final report text.
    pub text: String,
}

impl Pipeline<'_> {
    /// Runs the unit of work on one log inside a `log` span, one child span
    /// per layer call.
    pub fn run(&self, log: &FailureLog, id: usize, tr: &mut Tracer) -> Unit {
        let root = tr.enter("log", Some(id));
        let atpg = tr.time("diagnosis.diagnose", Some(id), || {
            self.diagnoser.diagnose(log)
        });
        let subgraph = tr.time("hetgraph.back_trace", Some(id), || {
            back_trace(&self.env.het, self.fsim, &self.env.scan, log)
        });
        let sample = DiagSample {
            injected: Vec::new(),
            log: log.clone(),
            subgraph,
            faulty_tier: None,
            miv_truth: Vec::new(),
        };
        let outcome = tr.time("core.enhance", Some(id), || {
            self.localizer.enhance(&self.env.design, &atpg, &sample)
        });
        let text = tr.time("diagnosis.render", Some(id), || outcome.report.to_string());
        tr.exit(root);
        Unit {
            atpg,
            sample,
            outcome,
            text,
        }
    }

    /// Times the two GNN forward passes `enhance` made on this log, as
    /// separate calls outside the log's span (traced runs only).
    pub fn probe_gnn(&self, unit: &Unit, id: usize, tr: &mut Tracer) {
        if !tr.is_on() {
            return;
        }
        if let Some(sg) = &unit.sample.subgraph {
            tr.time("gnn.tier_predict", Some(id), || {
                self.localizer.tier.predict(sg)
            });
            tr.time("gnn.miv_predict", Some(id), || {
                self.localizer.miv.predict_faulty_mivs(sg)
            });
        }
    }
}

/// The wire name of a policy action (as `m3d-serve` sends it).
pub fn action_name(action: PolicyAction) -> &'static str {
    match action {
        PolicyAction::Reorder => "reorder",
        PolicyAction::Prune => "prune",
        PolicyAction::PassThrough => "pass_through",
        PolicyAction::Degraded => "degraded",
    }
}

/// The first report of every log, and what it says about quality and
/// work done. Later reports of the same log must match it byte for byte.
#[derive(Debug)]
pub struct Reference {
    /// Report text per log id (`None` until first seen).
    pub texts: Vec<Option<String>>,
    /// Policy action per log id.
    pub actions: Vec<&'static str>,
    /// Wall time of each log's unit of work, in seconds.
    pub compute_s: Vec<f64>,
    quality: QualityAccumulator,
    /// Failing entries over all logs.
    pub log_entries: usize,
    /// ATPG candidates over all logs.
    pub candidates: usize,
    /// Back-traced sub-graph nodes over all logs.
    pub subgraph_nodes: usize,
    /// Logs whose back-trace came back empty.
    pub back_trace_empty: usize,
    /// Count per action: prune, reorder, pass-through, degraded.
    pub action_counts: [usize; 4],
}

impl Reference {
    /// An empty reference for `n` logs.
    pub fn new(n: usize) -> Self {
        Reference {
            texts: vec![None; n],
            actions: vec![""; n],
            compute_s: vec![0.0; n],
            quality: QualityAccumulator::new(),
            log_entries: 0,
            candidates: 0,
            subgraph_nodes: 0,
            back_trace_empty: 0,
            action_counts: [0; 4],
        }
    }

    /// Whether every log has a report.
    pub fn complete(&self) -> bool {
        self.texts.iter().all(Option::is_some)
    }

    /// Records log `id`'s first report, or checks a repeat against it.
    /// Returns whether the report is acceptable: not degraded, and equal
    /// to the first one.
    pub fn check(&mut self, id: usize, chip: &Chip, unit: Unit, secs: f64) -> bool {
        if let Some(first) = &self.texts[id] {
            return *first == unit.text;
        }
        let report = &unit.outcome.report;
        self.quality.add(report, &chip.injected);
        // The paper's tier rule: skip reports ATPG already localized.
        if let (Some(truth), false) = (chip.tier, unit.atpg.is_tier_localized()) {
            if let Some((pred, _)) = unit.outcome.predicted_tier {
                self.quality.add_tier_outcome(pred == truth);
            }
        }
        self.log_entries += chip.log.len();
        self.candidates += unit.atpg.candidates().len();
        match &unit.sample.subgraph {
            Some(sg) => self.subgraph_nodes += sg.node_count(),
            None => self.back_trace_empty += 1,
        }
        let slot = match unit.outcome.action {
            PolicyAction::Prune => 0,
            PolicyAction::Reorder => 1,
            PolicyAction::PassThrough => 2,
            PolicyAction::Degraded => 3,
        };
        self.action_counts[slot] += 1;
        self.actions[id] = action_name(unit.outcome.action);
        self.compute_s[id] = secs;
        let ok = !report.degraded();
        self.texts[id] = Some(unit.text);
        ok
    }

    /// Report quality against the injected ground truth.
    pub fn quality(&self) -> ReportQuality {
        self.quality.finish()
    }

    /// FNV-1a digest over every report text in log order.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for text in self.texts.iter().flatten() {
            for b in text.bytes().chain([0u8]) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

/// Hands log numbers to closed-loop callers. A phase runs whole passes
/// over the workload's logs, so every phase sees the same mix: it ends at
/// the first pass boundary once `min_secs` have passed and `min_logs` logs
/// have started, or after `max_logs` logs.
#[derive(Debug)]
pub struct Schedule {
    pass: usize,
    min_secs: f64,
    min_logs: usize,
    max_logs: usize,
    t0: Instant,
    /// Next log number, and where the phase ends once known.
    state: Mutex<(usize, usize)>,
}

impl Schedule {
    /// A schedule over `pass` logs per pass.
    pub fn new(pass: usize, min_secs: f64, min_logs: usize, max_logs: usize) -> Self {
        assert!(pass > 0, "a pass needs logs");
        Schedule {
            pass,
            min_secs,
            min_logs,
            max_logs,
            t0: Instant::now(),
            state: Mutex::new((0, usize::MAX)),
        }
    }

    /// Exactly one pass.
    pub fn one_pass(pass: usize) -> Self {
        Schedule::new(pass, 0.0, 0, pass)
    }

    /// The next log number, or `None` once the phase is over.
    pub fn next(&self) -> Option<usize> {
        let mut state = self
            .state
            .lock()
            .expect("no caller panics holding the schedule");
        let (next, end) = &mut *state;
        if *end == usize::MAX
            && *next >= self.min_logs
            && self.t0.elapsed().as_secs_f64() >= self.min_secs
        {
            *end = (*next).max(1).next_multiple_of(self.pass);
        }
        if *next >= (*end).min(self.max_logs) {
            return None;
        }
        *next += 1;
        Some(*next - 1)
    }

    /// Seconds since the schedule was made.
    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

/// What a timed phase measured.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Per-log latency in completion order.
    pub latencies_ms: Vec<f64>,
    /// Log id of each latency.
    pub log_ids: Vec<usize>,
    /// Logs that panicked, degraded, or differed from their reference.
    pub failed: usize,
    /// Process CPU seconds over the phase.
    pub cpu_s: f64,
}

/// One closed-loop caller cycling through the chips' logs in order.
pub fn offline_phase(
    p: &Pipeline<'_>,
    chips: &[Chip],
    schedule: &Schedule,
    reference: &mut Reference,
    tr: &mut Tracer,
) -> Phase {
    let mut phase = Phase::default();
    let cpu0 = crate::sys::cpu_seconds();
    while let Some(k) = schedule.next() {
        let id = k % chips.len();
        let start = Instant::now();
        let unit = catch_unwind(AssertUnwindSafe(|| p.run(&chips[id].log, id, tr)));
        let secs = start.elapsed().as_secs_f64();
        phase.latencies_ms.push(secs * 1e3);
        phase.log_ids.push(id);
        match unit {
            Ok(unit) => {
                p.probe_gnn(&unit, id, tr);
                if !reference.check(id, &chips[id], unit, secs) {
                    phase.failed += 1;
                }
            }
            Err(_) => phase.failed += 1,
        }
    }
    phase.wall_s = schedule.elapsed_s();
    phase.cpu_s = crate::sys::cpu_seconds() - cpu0;
    phase
}
