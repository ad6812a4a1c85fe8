//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and the metrics. Exits nonzero on
//! any failed log, report mismatch, or set-up error.

use std::path::Path;
use std::process::ExitCode;

use perfbench::bench::{self, Args};
use perfbench::workload::{workload, WORKLOADS};
use perfbench::{listed_metrics, result_line};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value} is not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("missing --workload")?;
    let w = workload(&name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (one of {})", names.join(", "))
    })?;
    Ok(Args {
        workload: w,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Checks that the run prints exactly the metrics `BENCHMARK.json` lists.
fn check_listed(out: &bench::Outcome, trace: bool) -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let listed = listed_metrics(&text, if trace { "per_layer" } else { "end_to_end" })?;
    let printed: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    if listed != printed {
        return Err(format!(
            "BENCHMARK.json lists {listed:?} but the run prints {printed:?}"
        ));
    }
    Ok(())
}

fn run() -> Result<bool, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let out = bench::run(&args)?;
    check_listed(&out, args.trace)?;
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    let w = args.workload;
    if args.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, out.tracer.to_jsonl()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "spans: {} ({} spans)",
            path.display(),
            out.tracer.spans().len()
        );
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    println!(
        "digest: workload={} seed={} logs={} reports_fnv1a64={:016x} pool_width={}",
        w.name,
        args.seed,
        w.logs,
        out.digest,
        m3d_par::num_threads()
    );
    println!("{}", result_line(&out));
    Ok(out.correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
