//! End-to-end tests of the `m3d-diag` command-line tool: the file-level
//! gen → partition → inject → diagnose flow a user runs from a shell.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_m3d-diag"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("m3d_diag_test_{}_{name}", std::process::id()));
    p
}

#[test]
fn cli_full_flow_finds_the_injected_fault() {
    let netlist = tmp("aes.m3d");
    let tiers = tmp("aes.tiers");
    let log = tmp("chip.log");

    let out = bin()
        .args(["gen", "--bench", "aes", "--target", "400", "-o"])
        .arg(&netlist)
        .output()
        .expect("run gen");
    assert!(
        out.status.success(),
        "gen: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["partition", "--netlist"])
        .arg(&netlist)
        .args(["--algo", "mincut", "-o"])
        .arg(&tiers)
        .output()
        .expect("run partition");
    assert!(out.status.success());

    let out = bin()
        .args(["stats", "--netlist"])
        .arg(&netlist)
        .args(["--partition"])
        .arg(&tiers)
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let stats = String::from_utf8_lossy(&out.stdout);
    assert!(stats.contains("MIVs"), "stats must report MIVs: {stats}");

    // Find a site whose injection actually produces tester failures (not
    // every site is detectable — e.g. pure-PI cones under held-PI LOC).
    let mut hit_site = None;
    for site in (250..450).step_by(7) {
        let out = bin()
            .args(["inject", "--netlist"])
            .arg(&netlist)
            .args(["--partition"])
            .arg(&tiers)
            .args(["--site", &site.to_string(), "-o"])
            .arg(&log)
            .output()
            .expect("run inject");
        assert!(
            out.status.success(),
            "inject: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&log).expect("log written");
        if text.lines().any(|l| l.starts_with("fail")) {
            hit_site = Some(site);
            break;
        }
    }
    let site = hit_site.expect("some site in range must be detectable");

    let out = bin()
        .args(["diagnose", "--netlist"])
        .arg(&netlist)
        .args(["--partition"])
        .arg(&tiers)
        .args(["--log"])
        .arg(&log)
        .output()
        .expect("run diagnose");
    assert!(out.status.success());
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.contains(&format!("s{site}")),
        "diagnosis must list injected site s{site}:\n{report}"
    );

    for p in [netlist, tiers, log] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn cli_rejects_bad_input_with_useful_errors() {
    let out = bin().args(["gen", "--bench", "nosuch"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));

    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // A misspelt flag that takes a value (`--thread` for the global
    // `--threads`) is an error naming it, not silently ignored.
    let out = bin()
        .args(["gen", "--bench", "aes", "--thread", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--thread`"));

    let out = bin()
        .args(["inject", "--netlist", "/nonexistent"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// Runs `m3d-diag train` with shared small-benchmark knobs plus `extra`
/// flags, asserts success, and returns captured stdout.
fn run_train(dir: &PathBuf, extra: &[&str]) -> String {
    let mut cmd = bin();
    cmd.args([
        "train",
        "--bench",
        "aes",
        "--target",
        "240",
        "--samples",
        "24",
        "--epochs",
        "6",
        "--checkpoint-dir",
    ])
    .arg(dir)
    .args(extra);
    let out = cmd.output().expect("run train");
    assert!(
        out.status.success(),
        "train {extra:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Extracts the value of a `key: value` stdout line.
fn stdout_field<'a>(stdout: &'a str, key: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(": ")))
        .unwrap_or_else(|| panic!("no `{key}:` line in:\n{stdout}"))
}

#[test]
fn cli_train_halt_and_resume_match_an_uninterrupted_run() {
    let straight_dir = tmp("ckpt_straight");
    let resumed_dir = tmp("ckpt_resumed");

    // Reference: 6 epochs, no interruption.
    let straight = run_train(&straight_dir, &["--guard-policy", "skip"]);
    assert_eq!(stdout_field(&straight, "epochs run"), "6 of 6");
    let want = stdout_field(&straight, "weights digest");

    // Simulated crash after epoch 3, then resume to completion.
    let halted = run_train(
        &resumed_dir,
        &["--guard-policy", "skip", "--halt-after", "3"],
    );
    assert!(
        halted.contains("halted after epoch 3"),
        "halt must be reported:\n{halted}"
    );
    assert_ne!(
        stdout_field(&halted, "weights digest"),
        want,
        "half-trained weights must differ from fully-trained ones"
    );

    let resumed = run_train(&resumed_dir, &["--guard-policy", "skip", "--resume"]);
    assert!(
        resumed.contains("resumed from checkpoint at epoch 3"),
        "resume must be reported:\n{resumed}"
    );
    assert_eq!(stdout_field(&resumed, "epochs run"), "3 of 6");
    assert_eq!(
        stdout_field(&resumed, "weights digest"),
        want,
        "resumed run must be bit-identical to the uninterrupted run\n\
         straight:\n{straight}\nresumed:\n{resumed}"
    );
    assert_eq!(
        stdout_field(&resumed, "final loss"),
        stdout_field(&straight, "final loss"),
    );

    for d in [straight_dir, resumed_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn cli_train_rejects_unknown_guard_policy() {
    let out = bin()
        .args([
            "train",
            "--checkpoint-dir",
            "/tmp/x",
            "--guard-policy",
            "yolo",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown guard policy"));

    let out = bin().args(["train"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint-dir"));
}

#[test]
fn cli_help_prints_usage() {
    let out = bin().args(["help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn cli_help_documents_per_command_and_global_flags() {
    let out = bin().args(["help", "train"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for flag in ["--checkpoint-dir", "--guard-policy", "--trace", "--metrics"] {
        assert!(
            text.contains(flag),
            "help train must mention {flag}:\n{text}"
        );
    }

    let out = bin().args(["help", "report"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("report"));

    let out = bin().args(["help", "nosuch"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn cli_train_emits_valid_trace_and_metrics_and_report_renders_them() {
    let ckpt = tmp("ckpt_obs");
    let trace = tmp("trace.jsonl");
    let metrics = tmp("metrics.jsonl");

    let stdout = run_train(
        &ckpt,
        &[
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ],
    );
    assert_eq!(stdout_field(&stdout, "epochs run"), "6 of 6");

    // Every line of both sinks must parse back as a schema-valid event.
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    let trace_events =
        m3d_fault_diagnosis::obs::report::parse_jsonl(&trace_text).expect("trace parses");
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written");
    m3d_fault_diagnosis::obs::report::parse_jsonl(&metrics_text).expect("metrics parse");

    // The trace must cover every instrumented pipeline stage.
    let span_names: Vec<&str> = trace_events
        .iter()
        .filter_map(|e| match e {
            m3d_fault_diagnosis::obs::Event::Span { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for stage in [
        "train",
        "atpg",
        "sample_generation",
        "train_epoch",
        "checkpoint_write",
        "fault_simulation",
        "diagnosis",
    ] {
        assert!(
            span_names.contains(&stage),
            "trace must contain a {stage} span, got {span_names:?}"
        );
    }

    // The report subcommand renders both sinks into one breakdown.
    let out = bin()
        .arg("report")
        .arg(&trace)
        .arg(&metrics)
        .output()
        .expect("run report");
    assert!(
        out.status.success(),
        "report: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    for needle in ["span breakdown:", "train_epoch", "counters:", "series:"] {
        assert!(
            report.contains(needle),
            "report must contain {needle}:\n{report}"
        );
    }

    let _ = std::fs::remove_dir_all(ckpt);
    for f in [trace, metrics] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn cli_report_requires_a_file_argument() {
    let out = bin().args(["report"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: m3d-diag report"));
}
