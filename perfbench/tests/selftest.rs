//! Self-tests of the benchmark: seeded inputs repeat, every metric the
//! command prints is the one `BENCHMARK.json` lists, and every path
//! (offline, compacted multi-fault, served; untraced and traced) computes
//! all of its metrics on a small design.

use m3d_dft::ObsMode;
use m3d_diagnosis::{Diagnoser, DiagnosisConfig};
use m3d_fault_localization::InjectionKind;
use m3d_netlist::generate::Benchmark;
use perfbench::bench::{self, Args, END_TO_END, PER_LAYER};
use perfbench::listed_metrics;
use perfbench::pipeline::{offline_phase, Pipeline, Reference, Schedule};
use perfbench::trace::Tracer;
use perfbench::workload::{SetupTimes, Workload, WORKLOADS};

const fn small(
    name: &'static str,
    mode: ObsMode,
    injection: InjectionKind,
    served: bool,
) -> Workload {
    Workload {
        name,
        bench: Benchmark::Aes,
        target: Some(300),
        mode,
        injection,
        logs: 100,
        tail: 0.9,
        served,
    }
}

static SINGLE: Workload = small(
    "small-single",
    ObsMode::Bypass,
    InjectionKind::Single,
    false,
);
static MULTI: Workload = small(
    "small-multi-edt",
    ObsMode::Compacted,
    InjectionKind::MultiSameTier,
    false,
);
static SERVED: Workload = small("small-serve", ObsMode::Bypass, InjectionKind::Single, true);

/// Builds `w` for `seed` and diagnoses one pass; returns the chips' logs
/// and the report digest.
fn logs_and_digest(w: &Workload, seed: u64) -> (Vec<m3d_tdf::FailureLog>, u64) {
    let mut tr = Tracer::new(false);
    let art = w.build(seed, &mut tr, &mut SetupTimes::default());
    let fsim = art.env.fault_sim();
    let diagnoser = Diagnoser::new(&fsim, &art.env.scan, w.mode, DiagnosisConfig::default());
    let p = Pipeline {
        env: &art.env,
        fsim: &fsim,
        diagnoser: &diagnoser,
        localizer: &art.localizer,
    };
    let mut reference = Reference::new(art.chips.len());
    let phase = offline_phase(
        &p,
        &art.chips,
        &Schedule::one_pass(w.logs),
        &mut reference,
        &mut tr,
    );
    assert_eq!(phase.failed, 0);
    assert!(reference.complete());
    let logs = art.chips.into_iter().map(|c| c.log).collect();
    (logs, reference.digest())
}

#[test]
fn the_same_seed_gives_the_same_logs_and_reports() {
    for w in [&SINGLE, &MULTI] {
        let (logs_a, digest_a) = logs_and_digest(w, 5);
        let (logs_b, digest_b) = logs_and_digest(w, 5);
        assert_eq!(logs_a.len(), w.logs);
        assert_eq!(logs_a, logs_b, "{}: logs differ for one seed", w.name);
        assert_eq!(
            digest_a, digest_b,
            "{}: reports differ for one seed",
            w.name
        );
        let (logs_c, _) = logs_and_digest(w, 6);
        assert_ne!(
            logs_a, logs_c,
            "{}: another seed gives the same logs",
            w.name
        );
    }
}

#[test]
fn logs_do_not_depend_on_the_pool_width() {
    let one = m3d_par::with_threads(1, || logs_and_digest(&SINGLE, 9));
    let two = m3d_par::with_threads(2, || logs_and_digest(&SINGLE, 9));
    assert_eq!(one, two);
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |list: &[(&str, &str)]| -> Vec<String> {
        list.iter().map(|(n, _)| (*n).to_string()).collect()
    };
    assert_eq!(
        listed_metrics(&text, "end_to_end").expect("list"),
        names(&END_TO_END)
    );
    assert_eq!(
        listed_metrics(&text, "per_layer").expect("list"),
        names(&PER_LAYER)
    );
    let doc = m3d_obs::json::parse(&text).expect("valid JSON");
    let listed: Vec<String> = doc
        .get("workloads")
        .and_then(m3d_obs::Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(m3d_obs::Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(listed, ours);
}

#[test]
fn every_path_prints_every_metric() {
    for w in [&SINGLE, &MULTI, &SERVED] {
        for trace in [false, true] {
            let out = bench::run(&Args {
                workload: w,
                seed: 3,
                seconds: 0.0,
                trace,
            })
            .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
            assert!(out.correct, "{} trace={trace}: {:?}", w.name, out.notes);
            assert_eq!(out.failed, 0);
            assert!(out.attempted >= w.logs);
            let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, want);
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            assert_eq!(out.tracer.spans().is_empty(), !trace);
            let line = perfbench::result_line(&out);
            let parsed = m3d_obs::json::parse(&line).expect("the result line is JSON");
            assert_eq!(
                parsed.get("failed").and_then(m3d_obs::Json::as_u64),
                Some(0)
            );
        }
    }
}
