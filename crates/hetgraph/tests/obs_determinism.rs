//! Observability must be a pure read of back-tracing, and must say which
//! path each back-trace took: with recording on, every [`back_trace`]
//! records one `back_trace` span whose `counted` counter is 1 exactly when
//! the intersection was empty and the fallback count ran, and the
//! `hetgraph.back_trace.fallbacks` counter counts those spans. Sub-graphs
//! are bit-identical with recording on or off, at pool widths 1 and 4.
//!
//! A single-fault log is always explained by its own site, so it must
//! never fall back; 3-fault compacted logs must fall back at least once.
//! A back-trace that always fell back would keep every sub-graph (the
//! oracle in `back_trace_oracle.rs` cannot see it) and lose the speed; this
//! test sees it.
//!
//! Single `#[test]`: obs state is process-global.

use m3d_dft::{ObsMode, ScanChains, ScanConfig};
use m3d_hetgraph::{back_trace, HetGraph, SubGraph};
use m3d_netlist::generate::Benchmark;
use m3d_obs::Event;
use m3d_part::DesignConfig;
use m3d_tdf::{full_fault_list, generate_patterns, AtpgConfig, FailureLog, Fault, FaultSim};

/// The `counted` counter of every recorded `back_trace` span, in record
/// order.
fn counted_per_span() -> Vec<u64> {
    m3d_obs::trace_events()
        .into_iter()
        .filter_map(|e| match e {
            Event::Span { name, counters, .. } if name == "back_trace" => Some(
                counters
                    .iter()
                    .find(|(k, _)| k == "counted")
                    .map(|&(_, v)| v)
                    .expect("every back_trace span records `counted`"),
            ),
            _ => None,
        })
        .collect()
}

#[test]
fn back_trace_records_its_path_and_recording_changes_no_subgraph() {
    let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
    let ts = generate_patterns(&design, &AtpgConfig::new(1, 256));
    let scan = ScanChains::new(
        design.netlist(),
        ScanConfig {
            num_chains: 8,
            chains_per_channel: 4,
        },
    );
    let het = HetGraph::new(&design);
    let fsim = FaultSim::new(&design, &ts.patterns);
    let detected: Vec<Fault> = full_fault_list(&design)
        .into_iter()
        .zip(&ts.detected)
        .filter(|&(_, &d)| d)
        .map(|(f, _)| f)
        .collect();
    let n = detected.len();
    let mut det = fsim.detector();
    let mut log_of = |faults: &[Fault], mode| {
        let dets = fsim.detections(&mut det, faults);
        FailureLog::from_detections(&dets, &scan, mode)
    };
    let single: Vec<FailureLog> = (0..20)
        .map(|i| log_of(&[detected[i * n / 20]], ObsMode::Bypass))
        .collect();
    let multi: Vec<FailureLog> = (0..20)
        .map(|i| {
            let faults = [i, 7 * i + 3, 13 * i + 5].map(|j| detected[(j * 37) % n]);
            log_of(&faults, ObsMode::Compacted)
        })
        .collect();
    assert!(single.iter().chain(&multi).all(|log| !log.is_empty()));

    let run = |threads: usize, obs: bool| -> Vec<Option<SubGraph>> {
        m3d_obs::reset();
        m3d_obs::set_enabled(obs);
        let out = m3d_par::with_threads(threads, || {
            single
                .iter()
                .chain(&multi)
                .map(|log| back_trace(&het, &fsim, &scan, log))
                .collect()
        });
        m3d_obs::set_enabled(false);
        out
    };

    let baseline = run(1, false);
    assert!(baseline.iter().all(Option::is_some));
    for threads in [1, 4] {
        assert_eq!(
            run(threads, true),
            baseline,
            "recording on, width {threads}"
        );
        let counted = counted_per_span();
        assert_eq!(
            counted.len(),
            single.len() + multi.len(),
            "one span per log"
        );
        let (single_counted, multi_counted) = counted.split_at(single.len());
        assert!(
            single_counted.iter().all(|&c| c == 0),
            "single-fault logs back-trace by intersection: {single_counted:?}"
        );
        assert!(
            multi_counted.contains(&1),
            "some 3-fault compacted log falls back to the count"
        );
        let fallbacks = m3d_obs::registry_snapshot()
            .counter_value("hetgraph.back_trace.fallbacks")
            .unwrap_or(0);
        assert_eq!(fallbacks, counted.iter().sum::<u64>());
        assert_eq!(
            run(threads, false),
            baseline,
            "recording off, width {threads}"
        );
        assert!(counted_per_span().is_empty(), "nothing recorded when off");
    }
}
