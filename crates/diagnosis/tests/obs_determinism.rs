//! Diagnosis telemetry must be a pure read: reports are identical with
//! `m3d-obs` recording on and off, at any pool width; the recorded
//! `diagnosis` spans say how many observation points and suspects each
//! log cost, and each has one child span per phase — suspect counting,
//! scoring and cover/rank — so its time splits by phase.
//!
//! The spans also say which path scoring took, which report equality
//! cannot see: a single-fault log whose perfect candidate is in wave 1
//! skips suspects, and a log that reaches the cover skips none. The
//! scoring spans count their gate evaluations, the same at every width.
//!
//! Single `#[test]`: obs state is process-global, so the scenarios run
//! sequentially inside one test function.

use std::collections::HashMap;

use m3d_dft::{ObsMode, ScanChains, ScanConfig};
use m3d_diagnosis::{Diagnoser, DiagnosisConfig, DiagnosisReport};
use m3d_netlist::generate::Benchmark;
use m3d_part::DesignConfig;
use m3d_tdf::{full_fault_list, generate_patterns, AtpgConfig, FailureLog, Fault, FaultSim};

#[test]
fn diagnosis_telemetry_is_a_pure_read() {
    let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
    let ts = generate_patterns(&design, &AtpgConfig::new(1, 256));
    let scan = ScanChains::new(
        design.netlist(),
        ScanConfig::for_flop_count(design.netlist().flops().len()),
    );
    let fsim = FaultSim::new(&design, &ts.patterns);
    let detected: Vec<Fault> = full_fault_list(&design)
        .into_iter()
        .zip(&ts.detected)
        .filter(|&(_, &d)| d)
        .map(|(f, _)| f)
        .collect();
    // `(index into ObsMode::ALL, log)`. Single-fault logs take the rank
    // path; three-fault logs also run the phase-2 cover, which scores extra
    // suspects.
    let mut logs: Vec<(usize, FailureLog)> = Vec::new();
    let mut det = fsim.detector();
    for i in 0..8 {
        let picks: Vec<Fault> = if i % 2 == 0 {
            vec![detected[i * 37 % detected.len()]]
        } else {
            (0..3)
                .map(|j| detected[(i * 53 + j * 101) % detected.len()])
                .collect()
        };
        let mode = i / 2 % 2;
        let dets = fsim.detections(&mut det, &picks);
        logs.push((
            mode,
            FailureLog::from_detections(&dets, &scan, ObsMode::ALL[mode]),
        ));
    }
    let diagnosers =
        ObsMode::ALL.map(|m| Diagnoser::new(&fsim, &scan, m, DiagnosisConfig::default()));
    let diagnose_all = || -> Vec<DiagnosisReport> {
        logs.iter()
            .map(|(mode, log)| diagnosers[*mode].diagnose(log))
            .collect()
    };
    let run = |threads: usize, obs: bool| {
        m3d_obs::reset();
        m3d_obs::set_enabled(obs);
        let out = m3d_par::with_threads(threads, diagnose_all);
        m3d_obs::set_enabled(false);
        out
    };

    let baseline = run(1, false);
    assert!(baseline.iter().all(|r| r.resolution() > 0));
    let mut gate_evals_by_width = Vec::new();
    for threads in [1, 4] {
        let traced = run(threads, true);
        assert_eq!(
            traced, baseline,
            "recording changed a report at width {threads}"
        );

        // Every span by id: (name, parent, counters).
        type Span = (String, Option<u64>, Vec<(String, u64)>);
        let all: HashMap<u64, Span> = m3d_obs::trace_events()
            .into_iter()
            .filter_map(|e| match e {
                m3d_obs::Event::Span {
                    id,
                    parent,
                    name,
                    counters,
                    ..
                } => Some((id, (name, parent, counters))),
                _ => None,
            })
            .collect();
        let spans: Vec<Vec<(String, u64)>> = all
            .values()
            .filter(|(name, ..)| name == "diagnosis")
            .map(|(.., counters)| counters.clone())
            .collect();
        assert_eq!(spans.len(), logs.len(), "one diagnosis span per log");
        // The diagnosis span enclosing a span, if any.
        let diagnosis_of = |mut id: u64| -> Option<u64> {
            while let Some(parent) = all[&id].1 {
                if all[&parent].0 == "diagnosis" {
                    return Some(parent);
                }
                id = parent;
            }
            None
        };
        let mut phases: HashMap<(u64, &str), u64> = HashMap::new();
        let mut scored_in_phases = 0;
        let mut gate_evals = 0;
        for (&id, (name, _, counters)) in &all {
            let phase = name.as_str();
            if !["suspect_count", "suspect_score", "cover_rank"].contains(&phase) {
                continue;
            }
            let diagnosis = diagnosis_of(id).expect("phase spans nest under `diagnosis`");
            *phases.entry((diagnosis, phase)).or_default() += 1;
            if phase == "suspect_score" {
                let counter = |key: &str| {
                    counters
                        .iter()
                        .find(|(k, _)| k == key)
                        .map_or(0, |&(_, v)| v)
                };
                scored_in_phases += counter("suspects");
                gate_evals += counter("gate_evals");
            }
        }
        for (&id, (name, ..)) in &all {
            if name != "diagnosis" {
                continue;
            }
            let count = |phase| phases.get(&(id, phase)).copied().unwrap_or(0);
            assert_eq!(count("suspect_count"), 1, "diagnosis span {id}");
            // Phase 1 scores; a multi-fault log's cover scores again.
            assert!(count("suspect_score") >= 1, "diagnosis span {id}");
            assert_eq!(count("cover_rank"), 1, "diagnosis span {id}");
        }
        let field = |counters: &[(String, u64)], key: &str| {
            counters.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
        };
        let mut scored = 0;
        let mut skipped = 0;
        for counters in &spans {
            assert!(field(counters, "obs_points").is_some_and(|n| n > 0));
            let suspects = field(counters, "suspects").expect("phase-1 suspects recorded");
            scored += suspects + field(counters, "cover_suspects").unwrap_or(0);
            let skips = field(counters, "skipped").expect("skipped suspects recorded");
            if field(counters, "cover_suspects").is_some() {
                assert_eq!(skips, 0, "a log that reaches the cover is scored in full");
            }
            skipped += skips;
        }
        assert!(
            spans.iter().any(|c| field(c, "cover_suspects").is_some()),
            "a multi-fault log ran the cover"
        );
        assert!(
            spans.iter().any(|c| field(c, "cover_suspects").is_none()
                && field(c, "skipped").is_some_and(|n| n > 0)),
            "a single-fault log skipped suspects its perfect candidate ruled out"
        );
        let registry = m3d_obs::registry_snapshot();
        assert_eq!(
            registry.counter_value("diagnosis.suspects_scored"),
            Some(scored),
            "the counter sums the spans"
        );
        assert_eq!(
            registry.counter_value("diagnosis.suspects_skipped"),
            Some(skipped),
            "the skip counter sums the spans"
        );
        assert_eq!(
            scored_in_phases, scored,
            "scoring spans cover every suspect"
        );
        assert!(gate_evals > 0, "scoring evaluated gates at width {threads}");
        gate_evals_by_width.push(gate_evals);
    }
    assert_eq!(
        gate_evals_by_width[0], gate_evals_by_width[1],
        "gate evaluations at widths 1 and 4"
    );
}
