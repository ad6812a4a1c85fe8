//! `m3d-diag` — command-line driver for the M3D delay-fault diagnosis
//! stack.
//!
//! ```text
//! m3d-diag gen       --bench aes [--target N] [--synth-seed S] [-o FILE]
//! m3d-diag partition --netlist F [--algo mincut|levelbanded|random] [--seed S] [-o FILE]
//! m3d-diag stats     --netlist F [--partition F]
//! m3d-diag inject    --netlist F --partition F --site K [--fall] [--patterns N] [--compacted] [-o FILE]
//! m3d-diag diagnose  --netlist F --partition F --log F [--patterns N] [--compacted]
//! m3d-diag train     --checkpoint-dir D [--bench aes] [--target N] [--samples N]
//!                    [--epochs N] [--seed S] [--model-seed S] [--checkpoint-every N]
//!                    [--resume] [--guard-policy abort|skip|rollback]
//!                    [--halt-after K] [--compacted]
//! m3d-diag demo      --bench tate [--target N] [--compacted]
//! m3d-diag lint      [--bench all|aes|tate|netcard|leon3mp] [--target N] [--samples N] [--json]
//!                    [--deny] [--baseline FILE] [--write-baseline FILE]
//! m3d-diag lint      --netlist F [--partition F] [--json]
//! m3d-diag serve     [--addr A] [--bench aes|--design-dir D] [--width N]
//!                    [--enhance-samples N] [--model-cache F] [--queue N] [--watermark N]
//!                    [--telemetry-addr A] [--flight-dir D] [--slo SPEC]
//! m3d-diag load      [--addr A] [--clients N] [--requests N] [--widths 1,4]
//!                    [--chaos-seed S] [--chaos-rate X] [--telemetry] [--flight-dir D]
//!                    [-o BENCH_serve.json]
//! m3d-diag watch     --addr A [--interval-ms N] [--once]
//! m3d-diag report    [--flight] FILE.jsonl [MORE.jsonl…]
//! m3d-diag help      [COMMAND]
//! ```
//!
//! Every command also accepts the global observability flags
//! `--trace FILE` (hierarchical span trace as JSON-lines) and
//! `--metrics FILE` (counters/gauges/histograms/series as JSON-lines);
//! `m3d-diag report` renders either file — or both together — into a
//! per-span time breakdown with pool utilization and metric tables.
//! `--threads N` pins the worker-pool width for the invocation (same as
//! `M3D_THREADS=N`); every parallel stage is bitwise deterministic in the
//! width, so the flag changes wall time only.
//!
//! File formats are the plain-text ones of `m3d_netlist::io`,
//! `m3d_part::write_partition`, and `m3d_tdf::write_failure_log`.
//! `inject`/`diagnose` derive the TDF pattern set deterministically from
//! `--pattern-seed`, so a log injected with the same seed diagnoses
//! correctly without shipping pattern files.
//!
//! `train` runs the crash-safe Tier-predictor training loop of
//! `m3d-resilient`: it checkpoints into `--checkpoint-dir` every
//! `--checkpoint-every` epochs, `--resume` continues an interrupted run
//! bit-identically (the printed `weights digest` matches an uninterrupted
//! run's), `--halt-after K` simulates a crash after `K` epochs, and
//! `--guard-policy` selects how NaN/Inf losses or gradients are handled.

use std::collections::HashMap;
use std::process::ExitCode;

use m3d_fault_diagnosis::dft::{ObsMode, ScanChains, ScanConfig};
use m3d_fault_diagnosis::diagnosis::{Diagnoser, DiagnosisConfig};
use m3d_fault_diagnosis::fault_localization::{
    generate_samples, DiagSample, FaultLocalizer, FrameworkConfig, InjectionKind, TestEnv,
};
use m3d_fault_diagnosis::netlist::generate::{Benchmark, GenParams};
use m3d_fault_diagnosis::netlist::io::{read_netlist, write_netlist};
use m3d_fault_diagnosis::netlist::{Netlist, SiteId};
use m3d_fault_diagnosis::part::{read_partition, write_partition, M3dDesign, PartitionAlgo};
use m3d_fault_diagnosis::serve::{
    render_bench_json, run_load, spawn_server, AdmissionConfig, BundleSource, BundleSpec,
    LoadConfig, ServeConfig,
};
use m3d_fault_diagnosis::tdf::{
    generate_patterns, read_failure_log, write_failure_log, AtpgConfig, FailureLog, Fault,
    FaultSim, Polarity,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("m3d-diag: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag parser: `--key value` pairs plus boolean flags.
struct Flags {
    values: HashMap<String, String>,
    bools: Vec<String>,
}

impl Flags {
    /// Parses `args` against a command's declared flags: `value_flags`
    /// take the next argument, `bool_flags` stand alone, and any other
    /// flag is an error naming it.
    fn parse(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<Flags, String> {
        let mut values = HashMap::new();
        let mut bools = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .or_else(|| a.strip_prefix('-'))
                .ok_or_else(|| format!("unexpected argument `{a}`"))?;
            if bool_flags.contains(&key) {
                bools.push(key.to_owned());
            } else if value_flags.contains(&key) {
                let v = it
                    .next()
                    .ok_or_else(|| format!("flag `--{key}` needs a value"))?;
                values.insert(key.to_owned(), v.clone());
            } else {
                return Err(format!("unknown flag `{a}`"));
            }
        }
        Ok(Flags { values, bools })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing `--{key}`"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for `--{key}`: `{v}`")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.bools.iter().any(|b| b == key)
    }
}

/// Destinations for the global `--trace` / `--metrics` flags.
#[derive(Default)]
struct ObsSinks {
    trace: Option<std::path::PathBuf>,
    metrics: Option<std::path::PathBuf>,
}

impl ObsSinks {
    fn wanted(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// Writes whichever JSONL sinks were requested (a failed command
    /// still flushes — a trace of the failure is exactly what you want).
    fn flush(&self) -> Result<(), String> {
        if let Some(path) = &self.trace {
            m3d_obs::write_trace(path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        if let Some(path) = &self.metrics {
            m3d_obs::write_metrics(path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// Strips the global `--trace FILE` / `--metrics FILE` / `--threads N`
/// flags out of the argument list (any position) so per-command parsers
/// never see them.
fn extract_global_flags(args: &[String]) -> Result<(Vec<String>, ObsSinks, Option<usize>), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut sinks = ObsSinks::default();
    let mut threads = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            let v = it
                .next()
                .ok_or_else(|| format!("flag `{a}` needs a value"))?;
            threads = Some(
                v.parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad value for `--threads`: `{v}`"))?,
            );
            continue;
        }
        let slot = match a.as_str() {
            "--trace" => &mut sinks.trace,
            "--metrics" => &mut sinks.metrics,
            _ => {
                rest.push(a.clone());
                continue;
            }
        };
        let path = it
            .next()
            .ok_or_else(|| format!("flag `{a}` needs a value"))?;
        *slot = Some(path.into());
    }
    Ok((rest, sinks, threads))
}

fn run(args: &[String]) -> Result<(), String> {
    let (args, sinks, threads) = extract_global_flags(args)?;
    if sinks.wanted() {
        m3d_obs::set_enabled(true);
    }
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    let run_cmd = || {
        // One root span named after the command, so the report's tree has
        // a stable top-level node (inert unless --trace/--metrics given).
        let _root = m3d_obs::span(root_span_name(cmd));
        match cmd.as_str() {
            "gen" => cmd_gen(rest),
            "partition" => cmd_partition(rest),
            "stats" => cmd_stats(rest),
            "inject" => cmd_inject(rest),
            "diagnose" => cmd_diagnose(rest),
            "train" => cmd_train(rest),
            "demo" => cmd_demo(rest),
            "lint" => cmd_lint(rest),
            "serve" => cmd_serve(rest),
            "load" => cmd_load(rest),
            "watch" => cmd_watch(rest),
            "report" => cmd_report(rest),
            "help" | "--help" | "-h" => cmd_help(rest),
            other => Err(format!("unknown command `{other}`\n{}", usage())),
        }
    };
    // `--threads N` pins the worker pool for the whole command (the same
    // effect as M3D_THREADS=N, but per invocation). Every parallel stage
    // is bitwise deterministic in the pool width, so this only changes
    // wall time, never output.
    //
    // The command runs under `catch_unwind` so that abnormal termination —
    // a panic escaping a long-running `serve` loop, say — still flushes the
    // requested `--trace`/`--metrics` JSONL before the process dies: the
    // trace of a crash is the most valuable trace there is.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match threads {
        Some(n) => m3d_par::with_threads(n, run_cmd),
        None => run_cmd(),
    }));
    let result = match outcome {
        Ok(r) => r,
        Err(payload) => {
            if sinks.wanted() {
                let _ = sinks.flush();
            }
            std::panic::resume_unwind(payload);
        }
    };
    let flushed = if sinks.wanted() {
        sinks.flush()
    } else {
        Ok(())
    };
    // A command error outranks a flush error.
    result.and(flushed)
}

/// The `&'static` span name for a command's root span.
fn root_span_name(cmd: &str) -> &'static str {
    match cmd {
        "gen" => "gen",
        "partition" => "partition",
        "stats" => "stats",
        "inject" => "inject",
        "diagnose" => "diagnose",
        "train" => "train",
        "demo" => "demo",
        "lint" => "lint",
        "serve" => "serve",
        "load" => "load",
        "watch" => "watch",
        "report" => "report",
        _ => "cli",
    }
}

fn usage() -> String {
    let mut out = String::from(
        "usage: m3d-diag <command> [flags]\n\
         \n\
         commands:\n",
    );
    for cmd in COMMANDS {
        out.push_str(&format!("  {:<10} {}\n", cmd.name, cmd.summary));
    }
    out.push_str(
        "\nglobal flags (any command):\n  \
         --trace FILE    write a hierarchical span trace as JSON-lines\n  \
         --metrics FILE  write counters/gauges/histograms as JSON-lines\n  \
         --threads N     pin the worker-pool width (like M3D_THREADS=N;\n                  \
         outputs are bitwise identical at any width)\n\
         \nrun `m3d-diag help <command>` for per-command flags",
    );
    out
}

/// One entry of the command reference: name, one-line summary, and the
/// per-command flag help printed by `m3d-diag help <command>`.
struct CommandHelp {
    name: &'static str,
    summary: &'static str,
    flags: &'static str,
}

const COMMANDS: &[CommandHelp] = &[
    CommandHelp {
        name: "gen",
        summary: "generate a scaled benchmark netlist",
        flags: "  --bench NAME      benchmark: aes|tate|netcard|leon3mp (required)\n  \
                --target N        approximate gate-count target\n  \
                --synth-seed S    synthesis seed (default 1)\n  \
                -o FILE           write the netlist to FILE (default stdout)",
    },
    CommandHelp {
        name: "partition",
        summary: "partition a netlist into two tiers",
        flags: "  --netlist FILE    input netlist (required)\n  \
                --algo NAME       mincut|levelbanded|random (default mincut)\n  \
                --seed S          partitioning seed (default 1)\n  \
                -o FILE           write the partition to FILE (default stdout)",
    },
    CommandHelp {
        name: "stats",
        summary: "print netlist (and optional partition) statistics",
        flags: "  --netlist FILE    input netlist (required)\n  \
                --partition FILE  also report MIV count and tier balance",
    },
    CommandHelp {
        name: "inject",
        summary: "inject a delay fault and emit its tester failure log",
        flags: "  --netlist FILE    input netlist (required)\n  \
                --partition FILE  tier assignment (required)\n  \
                --site K          fault site index (required)\n  \
                --fall            slow-to-fall instead of slow-to-rise\n  \
                --patterns N      ATPG pattern cap (default 1024)\n  \
                --pattern-seed S  ATPG seed (default 1)\n  \
                --compacted       compacted (MISR-style) observation mode\n  \
                -o FILE           write the failure log to FILE (default stdout)",
    },
    CommandHelp {
        name: "diagnose",
        summary: "diagnose a failure log into ranked fault candidates",
        flags: "  --netlist FILE    input netlist (required)\n  \
                --partition FILE  tier assignment (required)\n  \
                --log FILE        tester failure log (required)\n  \
                --patterns N      ATPG pattern cap (default 1024)\n  \
                --pattern-seed S  ATPG seed (default 1)\n  \
                --compacted       compacted (MISR-style) observation mode",
    },
    CommandHelp {
        name: "train",
        summary: "crash-safe Tier-predictor training with checkpoints",
        flags: "  --checkpoint-dir D    checkpoint directory (required)\n  \
                --bench NAME          benchmark (default aes)\n  \
                --target N            approximate gate-count target\n  \
                --samples N           diagnosis samples to generate (default 60)\n  \
                --epochs N            training epochs (default 8)\n  \
                --seed S              sample-generation seed (default 1)\n  \
                --model-seed S        weight-init seed (default 7)\n  \
                --checkpoint-every N  checkpoint cadence in epochs (default 1)\n  \
                --resume              continue from the latest checkpoint\n  \
                --guard-policy P      abort|skip|rollback (default abort)\n  \
                --halt-after K        simulate a crash after K epochs\n  \
                --compacted           compacted observation mode",
    },
    CommandHelp {
        name: "demo",
        summary: "end-to-end inject → diagnose → GNN-enhance walkthrough",
        flags: "  --bench NAME      benchmark (default aes)\n  \
                --target N        approximate gate-count target\n  \
                --compacted       compacted observation mode",
    },
    CommandHelp {
        name: "lint",
        summary: "structural static analysis over benchmarks or files",
        flags: "  --bench NAME      all|aes|tate|netcard|leon3mp (default all)\n  \
                --target N        benchmark gate-count target (default 400)\n  \
                --samples N       diagnosis samples per benchmark (default 4)\n  \
                --seed S          sample seed (default 1)\n  \
                --netlist FILE    lint a netlist file instead of benchmarks\n  \
                --partition FILE  with --netlist: lint the full design\n  \
                --json            machine-readable report\n  \
                --deny            exit nonzero on any finding (not just errors)\n  \
                --baseline FILE   waive the findings listed in FILE\n  \
                --write-baseline FILE  write the current findings as a baseline\n  \
                --compacted       compacted observation mode",
    },
    CommandHelp {
        name: "serve",
        summary: "long-running TCP diagnosis service (length-prefixed JSONL)",
        flags: "  --addr A              bind address (default 127.0.0.1:7433; :0 picks a port)\n  \
                --bench NAME          generated benchmark source (default aes)\n  \
                --target N            benchmark gate-count target (default 300)\n  \
                --design-dir D        CRC-verified bundle directory instead of --bench\n  \
                --compacted           compacted observation mode\n  \
                --enhance-samples N   train GNN enhancement on N samples (0 = baseline only)\n  \
                --epochs N            enhancement training epochs (default 25)\n  \
                --sample-seed S       training-sample seed (default 1)\n  \
                --model-seed S        model-init seed (default 7)\n  \
                --model-cache F       checkpoint file caching the trained weights\n  \
                --width N             scoring workers, each one job at a time, and the pool\n                        width one job's scoring may use (default 1)\n  \
                --queue N             admission queue capacity (default 64)\n  \
                --watermark N         shed watermark: degrade past this depth (default 48)\n  \
                --default-deadline-ms N  budget when the request names none (default 2000)\n  \
                --max-deadline-ms N   hard cap on requested budgets (default 10000)\n  \
                --frame-timeout-ms N  slow-peer timeout: partial frames, and stalled replies\n                        once shutting down (default 2000)\n  \
                --chaos-panic-every N chaos hook: panic every Nth job's worker\n  \
                --telemetry-addr A    bind the live telemetry exporter (:0 picks a port)\n  \
                --flight-dir D        flight-recorder dump directory (panic/poison/storm/shutdown)\n  \
                --slo SPEC            SLO spec, e.g. availability>=0.99,p99_ms<=250,degraded_frac<=0.1",
    },
    CommandHelp {
        name: "load",
        summary: "deterministic load generator + chaos client for the service",
        flags: "  --addr A              target an external server (default: in-process per width)\n  \
                --clients N           concurrent client sessions per width (default 1000)\n  \
                --requests N          clean exchanges per client (default 2)\n  \
                --widths LIST         server --width values to phase through (default 1,4)\n  \
                --chaos-seed S        chaos schedule seed (default 1)\n  \
                --chaos-rate X        per-request fault probability 0..1 (default 0)\n  \
                --deadline-ms N       per-request budget sent to the server\n  \
                --log-pool N          distinct synthetic failure logs (default 32)\n  \
                --server-panic-every N  in-process chaos: panic every Nth job\n  \
                --queue N / --watermark N   in-process admission knobs\n  \
                --frame-timeout-ms N  in-process slow-writer timeout (default 400)\n  \
                --telemetry           run + scrape a telemetry exporter on in-process servers\n  \
                --flight-dir D        verify flight dumps land here (w<width> subdirs)\n  \
                --bench/--target/--design-dir/--compacted/--enhance-samples/...\n                        \
                artifact spec, as for `serve` (must match an external server)\n  \
                -o FILE               write the BENCH_serve.json report to FILE",
    },
    CommandHelp {
        name: "watch",
        summary: "live terminal view over a server's telemetry exporter",
        flags: "  --addr A          the exporter address printed by `serve` (required)\n  \
                --interval-ms N   scrape cadence (default 1000)\n  \
                --once            print one snapshot and exit",
    },
    CommandHelp {
        name: "report",
        summary: "render --trace/--metrics/flight JSONL into a profiling report",
        flags:
            "  FILE.jsonl…       one or more JSONL files written by --trace,\n                    \
                --metrics, or the flight recorder; files are merged as\n                    \
                tagged sources with a stable total order\n  \
                --flight          render only the causal flight timeline",
    },
    CommandHelp {
        name: "help",
        summary: "show this overview or per-command flags",
        flags: "  COMMAND           the command to describe",
    },
];

/// `m3d-diag help [command]`.
fn cmd_help(args: &[String]) -> Result<(), String> {
    match args.first() {
        None => {
            println!("{}", usage());
            Ok(())
        }
        Some(name) => {
            let cmd = COMMANDS
                .iter()
                .find(|c| c.name == name.as_str())
                .ok_or_else(|| format!("unknown command `{name}`\n{}", usage()))?;
            println!(
                "usage: m3d-diag {} — {}\n\nflags:\n{}",
                cmd.name, cmd.summary, cmd.flags
            );
            println!(
                "\nglobal flags:\n  --trace FILE    write a span trace (JSON-lines)\n  \
                 --metrics FILE  write metrics (JSON-lines)"
            );
            Ok(())
        }
    }
}

/// `m3d-diag watch`: a live terminal view over a running server's
/// telemetry exporter — request rates, queue depth, shed/degraded and
/// deadline counters, sliding latency quantiles, pool utilization, and
/// SLO burn, one block per scrape.
fn cmd_watch(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["addr", "interval-ms"], &["once"])?;
    let addr: std::net::SocketAddr = flags
        .require("addr")?
        .parse()
        .map_err(|e| format!("bad --addr: {e}"))?;
    let interval_ms: u64 = flags.num("interval-ms", 1_000u64)?;
    loop {
        match m3d_fault_diagnosis::serve::scrape(addr) {
            Ok(snap) => print!("{}", render_watch(&snap)),
            // A single-shot scrape that fails is a failure; the live
            // view keeps retrying through exporter restarts.
            Err(e) if flags.flag("once") => return Err(format!("watch {addr}: {e}")),
            Err(e) => eprintln!("watch: {e}"),
        }
        if flags.flag("once") {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

/// Formats one telemetry snapshot as the `watch` terminal block.
fn render_watch(snap: &m3d_fault_diagnosis::obs::Json) -> String {
    let num = |path: &[&str]| -> f64 {
        let mut cur = snap;
        for k in path {
            match cur.get(k) {
                Some(v) => cur = v,
                None => return 0.0,
            }
        }
        cur.as_f64().unwrap_or(0.0)
    };
    let breached = snap
        .get("slo")
        .and_then(|s| s.get("breached"))
        .is_some_and(|b| matches!(b, m3d_fault_diagnosis::obs::Json::Bool(true)));
    let mut out = format!(
        "t={:.1}s gen {} | req/s 1s/10s/60s: {:.1}/{:.1}/{:.1} | queue {} (watermark dist {})\n",
        num(&["t_ms"]) / 1e3,
        num(&["stats", "generation"]),
        num(&["rates", "serve.completed", "1s"]),
        num(&["rates", "serve.completed", "10s"]),
        num(&["rates", "serve.completed", "60s"]),
        num(&["stats", "queue_depth"]),
        num(&["gauges", "serve.shed_watermark_distance"]),
    );
    out.push_str(&format!(
        "completed {} (degraded {}) | shed {} | deadline {} | proto-errs {} | panics {} | conns {}\n",
        num(&["stats", "completed"]),
        num(&["stats", "degraded"]),
        num(&["stats", "overloaded"]),
        num(&["stats", "deadline_exceeded"]),
        num(&["stats", "protocol_errors"]),
        num(&["stats", "panics_contained"]),
        num(&["stats", "connections"]),
    ));
    out.push_str(&format!(
        "latency ms p50/p95/p99: {:.2}/{:.2}/{:.2} | stage us queue/exec p50: {:.0}/{:.0} | \
         pool util {:.1}% | exporter {:.2}%\n",
        num(&["quantiles", "serve.latency_ms", "p50"]),
        num(&["quantiles", "serve.latency_ms", "p95"]),
        num(&["quantiles", "serve.latency_ms", "p99"]),
        num(&["quantiles", "par.queue_us", "p50"]),
        num(&["quantiles", "par.exec_us", "p50"]),
        num(&["pool", "utilization_10s_pct"]),
        num(&["exporter", "overhead_pct"]),
    ));
    out.push_str(&format!(
        "slo burn avail/p99/degraded: {:.2}/{:.2}/{:.2} [{}]\n\n",
        num(&["slo", "burn_availability"]),
        num(&["slo", "burn_p99"]),
        num(&["slo", "burn_degraded"]),
        if breached { "BREACHED" } else { "OK" },
    ));
    out
}

/// `m3d-diag report`: renders JSONL trace/metrics/flight files into the
/// top-down profiling report of `m3d_obs::report`. Multiple inputs are
/// merged with a stable total order: each file becomes a tagged
/// [`Source`](m3d_obs::report::Source), span ids are re-allocated so
/// sources can never collide, and metric names gain a `tag:` prefix when
/// more than one file is given. `--flight` renders only the causal
/// flight-recorder timeline (for `flight-*.jsonl` crash artifacts).
fn cmd_report(args: &[String]) -> Result<(), String> {
    if let Some(bad) = args.iter().find(|a| a.starts_with('-') && *a != "--flight") {
        return Err(format!("unknown flag `{bad}`"));
    }
    let flight_only = args.iter().any(|a| a == "--flight");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
    if paths.is_empty() {
        return Err("usage: m3d-diag report [--flight] FILE.jsonl [MORE.jsonl…]".to_owned());
    }
    let mut sources = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let events = m3d_fault_diagnosis::obs::report::parse_jsonl(&text)
            .map_err(|e| format!("{path}: {e}"))?;
        let tag = std::path::Path::new(path)
            .file_stem()
            .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned());
        sources.push(m3d_fault_diagnosis::obs::report::Source { tag, events });
    }
    if flight_only {
        let merged = m3d_fault_diagnosis::obs::report::merge_sources(&sources);
        print!(
            "{}",
            m3d_fault_diagnosis::obs::report::render_flight_timeline(&merged)
        );
    } else {
        print!(
            "{}",
            m3d_fault_diagnosis::obs::report::render_merged_report(&sources)
        );
    }
    Ok(())
}

fn parse_bench(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown benchmark `{name}` (aes|tate|netcard|leon3mp)"))
}

fn load_netlist(flags: &Flags) -> Result<Netlist, String> {
    let path = flags.require("netlist")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    read_netlist(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_design(flags: &Flags) -> Result<M3dDesign, String> {
    let nl = load_netlist(flags)?;
    let path = flags.require("partition")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let part = read_partition(&nl, &text)?;
    Ok(M3dDesign::new(nl, part))
}

fn emit(flags: &Flags, text: &str) -> Result<(), String> {
    match flags.get("o") {
        None => {
            print!("{text}");
            Ok(())
        }
        Some(path) => std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}")),
    }
}

fn mode_of(flags: &Flags) -> ObsMode {
    if flags.flag("compacted") {
        ObsMode::Compacted
    } else {
        ObsMode::Bypass
    }
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["bench", "target", "synth-seed", "o"], &[])?;
    let bench = parse_bench(flags.require("bench")?)?;
    let mut params = GenParams::new(flags.num("synth-seed", 1u64)?);
    if let Some(t) = flags.get("target") {
        params = params.with_target(t.parse().map_err(|_| format!("bad --target `{t}`"))?);
    }
    let nl = bench.generate(&params);
    emit(&flags, &write_netlist(&nl))
}

fn cmd_partition(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["netlist", "algo", "seed", "o"], &[])?;
    let nl = load_netlist(&flags)?;
    let algo = match flags.get("algo").unwrap_or("mincut") {
        "mincut" => PartitionAlgo::MinCut,
        "levelbanded" => PartitionAlgo::LevelBanded,
        "random" => PartitionAlgo::Random,
        other => return Err(format!("unknown --algo `{other}`")),
    };
    let part = algo.partition(&nl, flags.num("seed", 1u64)?);
    emit(&flags, &write_partition(&part))
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["netlist", "partition"], &[])?;
    let nl = load_netlist(&flags)?;
    let s = nl.stats();
    println!("design {}", nl.name());
    println!("  gates          {}", s.gates);
    println!("  combinational  {}", s.combinational);
    println!("  flops          {}", s.flops);
    println!("  PIs / POs      {} / {}", s.inputs, s.outputs);
    println!("  nets           {}", s.nets);
    println!("  depth          {}", s.depth);
    println!("  area (NAND2)   {:.0}", s.area);
    if let Some(path) = flags.get("partition") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let part = read_partition(&nl, &text)?;
        let design = M3dDesign::new(nl, part);
        println!("  MIVs           {}", design.miv_count());
        println!(
            "  area imbalance {:.1}%",
            design.partition().imbalance(design.netlist()) * 100.0
        );
    }
    Ok(())
}

fn test_setup(
    design: &M3dDesign,
    flags: &Flags,
) -> Result<(ScanChains, m3d_fault_diagnosis::tdf::TestSet), String> {
    let scan = ScanChains::new(
        design.netlist(),
        ScanConfig::for_flop_count(design.netlist().flops().len()),
    );
    let max_patterns = flags.num("patterns", 1024usize)?;
    let seed = flags.num("pattern-seed", 1u64)?;
    let ts = generate_patterns(design, &AtpgConfig::new(seed, max_patterns));
    Ok((scan, ts))
}

fn cmd_inject(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "netlist",
            "partition",
            "site",
            "patterns",
            "pattern-seed",
            "o",
        ],
        &["compacted", "fall"],
    )?;
    let design = load_design(&flags)?;
    let site: usize = flags.require("site")?.parse().map_err(|_| "bad --site")?;
    if site >= design.sites().len() {
        return Err(format!(
            "site {site} out of range (design has {} sites)",
            design.sites().len()
        ));
    }
    let polarity = if flags.flag("fall") {
        Polarity::SlowToFall
    } else {
        Polarity::SlowToRise
    };
    let (scan, ts) = test_setup(&design, &flags)?;
    let fsim = FaultSim::new(&design, &ts.patterns);
    let fault = Fault::new(SiteId::new(site), polarity);
    let dets = fsim.detections(&mut fsim.detector(), &[fault]);
    let log = FailureLog::from_detections(&dets, &scan, mode_of(&flags));
    eprintln!(
        "injected {fault:?}: {} erroneous responses over {} patterns (FC {:.1}%)",
        log.len(),
        ts.pattern_count(),
        ts.fault_coverage * 100.0
    );
    emit(&flags, &write_failure_log(&log))
}

fn cmd_diagnose(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["netlist", "partition", "log", "patterns", "pattern-seed"],
        &["compacted"],
    )?;
    let design = load_design(&flags)?;
    let log_path = flags.require("log")?;
    let log_text =
        std::fs::read_to_string(log_path).map_err(|e| format!("reading {log_path}: {e}"))?;
    let log = read_failure_log(&log_text).map_err(|e| format!("{log_path}: {e}"))?;
    let (scan, ts) = test_setup(&design, &flags)?;
    let fsim = FaultSim::new(&design, &ts.patterns);
    let diagnoser = Diagnoser::new(&fsim, &scan, mode_of(&flags), DiagnosisConfig::default());
    let report = diagnoser.diagnose(&log);
    print!("{report}");
    Ok(())
}

/// The stable identity of a diagnostic in a baseline file:
/// `target<TAB>code<TAB>span`. Messages are excluded on purpose — they
/// carry counts and measures that legitimately drift.
fn diag_key(target: &str, d: &m3d_fault_diagnosis::lint::Diagnostic) -> String {
    format!("{target}\t{}\t{}", d.code, d.span)
}

/// Drops every report diagnostic whose key appears in the baseline file
/// (blank lines and `#` comments ignored). Returns the waived count.
fn apply_baseline(
    reports: &mut [m3d_fault_diagnosis::lint::LintReport],
    path: &str,
) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let waivers: std::collections::HashSet<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut waived = 0usize;
    for report in reports {
        let target = report.target().to_owned();
        report.retain(|d| {
            let known = waivers.contains(diag_key(&target, d).as_str());
            waived += usize::from(known);
            !known
        });
    }
    Ok(waived)
}

/// Writes every current diagnostic's key, one per line, as a baseline.
fn write_baseline(
    reports: &[m3d_fault_diagnosis::lint::LintReport],
    path: &str,
) -> Result<(), String> {
    let mut out = String::from("# m3d-diag baseline: target\tcode\tspan\n");
    for report in reports {
        for d in report.diagnostics() {
            out.push_str(&diag_key(report.target(), d));
            out.push('\n');
        }
    }
    std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))
}

/// `m3d-diag lint`: static analysis over generated benchmarks or files.
///
/// Without `--netlist`, builds each selected benchmark archetype end to
/// end (design, scan, a few diagnosis samples, and a TPI variant of the
/// netlist) and lints the lot. With `--netlist` (and optionally
/// `--partition`), lints the given files instead. Exits nonzero when any
/// target carries error-severity diagnostics — or, under `--deny`, any
/// diagnostic at all that `--baseline` does not waive.
fn cmd_lint(args: &[String]) -> Result<(), String> {
    use m3d_fault_diagnosis::lint::{LintReport, LintRunner, LintTarget};

    let flags = Flags::parse(
        args,
        &[
            "bench",
            "target",
            "samples",
            "seed",
            "netlist",
            "partition",
            "baseline",
            "write-baseline",
        ],
        &["json", "compacted", "deny"],
    )?;
    let runner = LintRunner::new();
    let mut reports: Vec<LintReport> = Vec::new();

    if flags.get("netlist").is_some() {
        if flags.get("partition").is_some() {
            let design = load_design(&flags)?;
            let target = LintTarget::new(design.netlist().name()).design(&design);
            reports.push(runner.run(&target));
        } else {
            let nl = load_netlist(&flags)?;
            reports.push(runner.run(&LintTarget::new(nl.name()).netlist(&nl)));
        }
    } else {
        let benches: Vec<Benchmark> = match flags.get("bench").unwrap_or("all") {
            "all" => Benchmark::ALL.to_vec(),
            name => vec![parse_bench(name)?],
        };
        let target_size = flags.num("target", 400usize)?;
        let n_samples = flags.num("samples", 4usize)?;
        let seed = flags.num("seed", 1u64)?;
        let mode = mode_of(&flags);
        for bench in benches {
            let env = TestEnv::build(
                bench,
                m3d_fault_diagnosis::part::DesignConfig::Syn1,
                Some(target_size),
            );
            let fsim = env.fault_sim();
            let samples =
                generate_samples(&env, &fsim, mode, InjectionKind::Single, n_samples, seed);
            let target = LintTarget::new(bench.name())
                .design(&env.design)
                .scan(&env.scan)
                .samples(&samples);
            reports.push(runner.run(&target));
            let tpi = m3d_fault_diagnosis::netlist::tpi::insert_test_points(
                env.design.netlist().clone(),
                0.01,
                seed,
            );
            let tpi_target = LintTarget::new(tpi.name()).netlist(&tpi);
            reports.push(runner.run(&tpi_target));
        }
    }

    if let Some(path) = flags.get("write-baseline") {
        write_baseline(&reports, path)?;
        eprintln!("baseline written to {path}");
    }
    if let Some(path) = flags.get("baseline") {
        let waived = apply_baseline(&mut reports, path)?;
        eprintln!("baseline {path}: {waived} finding(s) waived");
    }
    if flags.flag("json") {
        let body: Vec<String> = reports.iter().map(LintReport::render_json).collect();
        println!("[{}]", body.join(","));
    } else {
        for r in &reports {
            print!("{}", r.render_text());
        }
    }
    let errors: usize = reports.iter().map(LintReport::error_count).sum();
    if errors > 0 {
        return Err(format!("lint found {errors} error(s)"));
    }
    if flags.flag("deny") {
        let total: usize = reports.iter().map(|r| r.diagnostics().len()).sum();
        if total > 0 {
            return Err(format!("lint found {total} finding(s) under --deny"));
        }
    }
    Ok(())
}

/// `m3d-diag train`: the crash-safe Tier-predictor training loop.
///
/// Builds a benchmark test environment, generates tier-labelled diagnosis
/// samples, and trains the Tier-predictor GCN through
/// `m3d_resilient::train_resilient` — guarded epochs, periodic atomic
/// checkpoints, and bit-exact resume. The final `weights digest` line is
/// the stable hook for resume-equivalence checks: an interrupted run
/// (`--halt-after`) continued with `--resume` prints the same digest as an
/// uninterrupted one.
fn cmd_train(args: &[String]) -> Result<(), String> {
    use m3d_fault_diagnosis::gnn::{
        GcnClassifier, GraphData, GuardConfig, GuardPolicy, TrainConfig, Trainable,
    };
    use m3d_fault_diagnosis::hetgraph::FEATURE_DIM;
    use m3d_fault_diagnosis::resilient::{train_resilient, weights_digest, CheckpointConfig};

    let flags = Flags::parse(
        args,
        &[
            "checkpoint-dir",
            "bench",
            "target",
            "samples",
            "epochs",
            "seed",
            "model-seed",
            "checkpoint-every",
            "guard-policy",
            "halt-after",
        ],
        &["compacted", "resume"],
    )?;
    let bench = parse_bench(flags.get("bench").unwrap_or("aes"))?;
    let target = flags
        .get("target")
        .map(|t| t.parse().map_err(|_| "bad --target"))
        .transpose()?;
    let mode = mode_of(&flags);
    let n = flags.num("samples", 60usize)?;
    let seed = flags.num("seed", 1u64)?;
    let policy: GuardPolicy = flags.get("guard-policy").unwrap_or("abort").parse()?;
    let ckpt = CheckpointConfig {
        dir: flags.require("checkpoint-dir")?.into(),
        every: flags.num("checkpoint-every", 1usize)?,
    };
    let halt_after = flags
        .get("halt-after")
        .map(|v| v.parse().map_err(|_| format!("bad --halt-after `{v}`")))
        .transpose()?;
    let cfg = TrainConfig {
        epochs: flags.num("epochs", 8usize)?,
        ..TrainConfig::default()
    };

    eprintln!("building {} and generating {n} samples…", bench.name());
    let env = TestEnv::build(bench, m3d_fault_diagnosis::part::DesignConfig::Syn1, target);
    let fsim = env.fault_sim();
    let samples = generate_samples(&env, &fsim, mode, InjectionKind::Single, n, seed);
    let data: Vec<(&GraphData, usize)> = samples
        .iter()
        .filter(|s| s.tier_trainable())
        .map(|s| {
            (
                &s.subgraph.as_ref().expect("tier_trainable").data,
                s.faulty_tier.expect("tier_trainable").index(),
            )
        })
        .collect();
    if data.is_empty() {
        return Err("no tier-trainable samples; raise --samples or --target".to_owned());
    }
    eprintln!(
        "training on {} tier-labelled samples ({} epochs, {:?})…",
        data.len(),
        cfg.epochs,
        policy
    );
    let mut model = GcnClassifier::new(FEATURE_DIM, 16, 2, 2, flags.num("model-seed", 7u64)?);
    let outcome = train_resilient(
        &mut model,
        &data,
        &cfg,
        &GuardConfig::new(policy),
        &ckpt,
        flags.flag("resume"),
        halt_after,
    )
    .map_err(|e| e.to_string())?;
    if let Some(epoch) = outcome.resumed_from {
        println!("resumed from checkpoint at epoch {epoch}");
    }
    println!(
        "epochs run: {} of {}",
        outcome.report.epochs_run, cfg.epochs
    );
    println!("guard interventions: {}", outcome.report.interventions());
    println!("checkpoints written: {}", outcome.checkpoints_written);
    println!("final loss: {:.6}", outcome.report.final_loss);
    println!(
        "weights digest: {:08x}",
        weights_digest(&model.flat_params())
    );
    if let Some(epoch) = outcome.halted_at {
        println!("halted after epoch {epoch} (simulated crash); continue with --resume");
        return Ok(());
    }
    // Held-out evaluation of the finished model's environment: one fresh
    // sample through parallel fault simulation and cause-effect diagnosis.
    // This also exercises the remaining instrumented pipeline stages, so a
    // single `train --trace` run profiles the whole Fig. 2 flow.
    let probe = &generate_samples(&env, &fsim, mode, InjectionKind::Single, 1, 0xE7A1)[0];
    let detections = fsim.detections_par(&probe.injected);
    let diagnoser = Diagnoser::new(&fsim, &env.scan, mode, DiagnosisConfig::default());
    let report = diagnoser.diagnose(&probe.log);
    println!(
        "eval: {} detections, {} diagnosis candidate(s) on a held-out sample",
        detections.len(),
        report.candidates().len()
    );
    Ok(())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["bench", "target"], &["compacted"])?;
    let bench = parse_bench(flags.get("bench").unwrap_or("aes"))?;
    let target = flags
        .get("target")
        .map(|t| t.parse().map_err(|_| "bad --target"))
        .transpose()?;
    let mode = mode_of(&flags);
    eprintln!("building {} ({:?})…", bench.name(), mode);
    let env = TestEnv::build(bench, m3d_fault_diagnosis::part::DesignConfig::Syn1, target);
    let fsim = env.fault_sim();
    eprintln!("training framework…");
    let train = generate_samples(&env, &fsim, mode, InjectionKind::Single, 120, 1);
    let refs: Vec<&DiagSample> = train.iter().collect();
    let fw = FaultLocalizer::train(&refs, &FrameworkConfig::default());
    let chip = &generate_samples(&env, &fsim, mode, InjectionKind::Single, 1, 0xD431)[0];
    let diagnoser = Diagnoser::new(&fsim, &env.scan, mode, DiagnosisConfig::default());
    let report = diagnoser.diagnose(&chip.log);
    let outcome = fw.enhance(&env.design, &report, chip);
    println!("ground truth: {:?}", chip.injected);
    if let Some((tier, p)) = outcome.predicted_tier {
        println!(
            "predicted faulty tier: {tier} (p = {p:.3}, Tp = {:.3})",
            fw.tp_threshold
        );
    }
    println!("action: {:?}", outcome.action);
    print!("{}", outcome.report);
    Ok(())
}

/// The artifact-spec flags [`bundle_spec_of`] reads (plus `--compacted`).
const BUNDLE_FLAGS: &[&str] = &[
    "design-dir",
    "bench",
    "target",
    "enhance-samples",
    "epochs",
    "sample-seed",
    "model-seed",
    "model-cache",
];

/// The admission flags [`admission_of`] reads.
const ADMISSION_FLAGS: &[&str] = &[
    "queue",
    "watermark",
    "default-deadline-ms",
    "max-deadline-ms",
];

/// Builds the serve/load artifact spec from the shared bundle flags.
fn bundle_spec_of(flags: &Flags) -> Result<BundleSpec, String> {
    let d = BundleSpec::default();
    let source = match flags.get("design-dir") {
        Some(dir) => BundleSource::Directory(dir.into()),
        None => BundleSource::Generated {
            bench: parse_bench(flags.get("bench").unwrap_or("aes"))?,
            target: Some(flags.num("target", 300usize)?),
        },
    };
    Ok(BundleSpec {
        source,
        compacted: flags.flag("compacted"),
        enhance_samples: flags.num("enhance-samples", d.enhance_samples)?,
        epochs: flags.num("epochs", d.epochs)?,
        sample_seed: flags.num("sample-seed", d.sample_seed)?,
        model_seed: flags.num("model-seed", d.model_seed)?,
        model_path: flags.get("model-cache").map(Into::into),
    })
}

/// Builds the admission knobs from flags (shared by `serve` and the
/// in-process servers `load` spawns).
fn admission_of(flags: &Flags) -> Result<AdmissionConfig, String> {
    let d = AdmissionConfig::default();
    Ok(AdmissionConfig {
        queue_capacity: flags.num("queue", d.queue_capacity)?,
        shed_watermark: flags.num("watermark", d.shed_watermark)?,
        default_deadline_ms: flags.num("default-deadline-ms", d.default_deadline_ms)?,
        max_deadline_ms: flags.num("max-deadline-ms", d.max_deadline_ms)?,
    })
}

/// `m3d-diag serve`: the long-running diagnosis service. Loads (or trains)
/// the artifact bundle once, then serves framed requests until a client
/// sends `shutdown`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let own: &[&str] = &[
        "addr",
        "width",
        "frame-timeout-ms",
        "chaos-panic-every",
        "telemetry-addr",
        "flight-dir",
        "slo",
    ];
    let flags = Flags::parse(
        args,
        &[own, BUNDLE_FLAGS, ADMISSION_FLAGS].concat(),
        &["compacted"],
    )?;
    let spec = bundle_spec_of(&flags)?;
    let d = ServeConfig::default();
    let cfg = ServeConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:7433").to_owned(),
        pool_width: flags.num("width", d.pool_width)?,
        admission: admission_of(&flags)?,
        frame_timeout_ms: flags.num("frame-timeout-ms", d.frame_timeout_ms)?,
        chaos_panic_every: flags
            .get("chaos-panic-every")
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad --chaos-panic-every `{v}`"))
            })
            .transpose()?,
        telemetry_addr: flags.get("telemetry-addr").map(str::to_owned),
        flight_dir: flags.get("flight-dir").map(Into::into),
        slo: flags.get("slo").map(str::to_owned),
    };
    let server = spawn_server(&spec, &cfg)?;
    eprintln!(
        "m3d-serve listening on {} ({} scoring workers, queue {}, watermark {}) — loading artifacts…",
        server.addr(),
        cfg.pool_width,
        cfg.admission.queue_capacity,
        cfg.admission.shed_watermark
    );
    if let Some(taddr) = server.telemetry_addr() {
        eprintln!("telemetry exporter on {taddr} (scrape with `m3d-diag watch --addr {taddr}`)");
    }
    let summary = server.join()?;
    let s = &summary.stats;
    println!(
        "served {} generation(s): {} completed ({} degraded), {} overloaded, \
         {} deadline-exceeded, {} protocol errors, {} panics contained, {} connections",
        summary.generations,
        s.completed,
        s.degraded,
        s.overloaded,
        s.deadline_exceeded,
        s.protocol_errors,
        s.panics_contained,
        s.connections
    );
    Ok(())
}

/// `m3d-diag load`: the deterministic load generator + chaos client.
/// Exits nonzero when any width phase saw a crashed clean connection or a
/// report that differs from the offline diagnosis.
fn cmd_load(args: &[String]) -> Result<(), String> {
    let own: &[&str] = &[
        "addr",
        "clients",
        "requests",
        "widths",
        "chaos-seed",
        "chaos-rate",
        "deadline-ms",
        "log-pool",
        "server-panic-every",
        "frame-timeout-ms",
        "flight-dir",
        "o",
    ];
    let flags = Flags::parse(
        args,
        &[own, BUNDLE_FLAGS, ADMISSION_FLAGS].concat(),
        &["compacted", "telemetry"],
    )?;
    let widths = flags
        .get("widths")
        .unwrap_or("1,4")
        .split(',')
        .map(|w| {
            w.trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("bad --widths entry `{w}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let dl = LoadConfig::default();
    let cfg = LoadConfig {
        spec: bundle_spec_of(&flags)?,
        clients: flags.num("clients", dl.clients)?,
        requests_per_client: flags.num("requests", dl.requests_per_client)?,
        widths,
        chaos_seed: flags.num("chaos-seed", dl.chaos_seed)?,
        chaos_rate: flags.num("chaos-rate", dl.chaos_rate)?,
        deadline_ms: flags
            .get("deadline-ms")
            .map(|v| v.parse().map_err(|_| format!("bad --deadline-ms `{v}`")))
            .transpose()?,
        log_pool: flags.num("log-pool", dl.log_pool)?,
        server_panic_every: flags
            .get("server-panic-every")
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad --server-panic-every `{v}`"))
            })
            .transpose()?,
        admission: admission_of(&flags)?,
        frame_timeout_ms: flags.num("frame-timeout-ms", dl.frame_timeout_ms)?,
        addr: flags.get("addr").map(str::to_owned),
        telemetry: flags.flag("telemetry"),
        flight_dir: flags.get("flight-dir").map(Into::into),
    };
    eprintln!(
        "load: {} clients × {} requests over widths {:?} (chaos rate {})…",
        cfg.clients, cfg.requests_per_client, cfg.widths, cfg.chaos_rate
    );
    let report = run_load(&cfg)?;
    for w in &report.widths {
        let rate = if w.wall_secs > 0.0 {
            w.completed as f64 / w.wall_secs
        } else {
            0.0
        };
        eprintln!(
            "width {}: {} completed in {:.2}s ({:.1} diagnoses/s), p50 {:.1} ms, p99 {:.1} ms, \
             {} crashed, {} mismatches, {} overloaded, {} deadline-exceeded, {} degraded, \
             {} protocol rejections, {} panics contained, {} gave up",
            w.width,
            w.completed,
            w.wall_secs,
            rate,
            w.p50_ms,
            w.p99_ms,
            w.crashed_connections,
            w.mismatches,
            w.overloaded,
            w.deadline_exceeded,
            w.degraded,
            w.protocol_rejections,
            w.panics_contained,
            w.gave_up
        );
        if w.telemetry_scrapes > 0 || w.flight_dumps > 0 || w.telemetry_errors > 0 {
            eprintln!(
                "width {}: {} telemetry scrapes ({} errors), {} flight dumps, \
                 exporter overhead {:.2}%",
                w.width,
                w.telemetry_scrapes,
                w.telemetry_errors,
                w.flight_dumps,
                w.exporter_overhead_pct
            );
        }
    }
    emit(&flags, &render_bench_json(&report))?;
    if !report.clean() {
        let detail = report
            .widths
            .iter()
            .find_map(|w| w.first_mismatch.as_deref())
            .unwrap_or("crashed clean connections");
        return Err(format!("chaos invariant violated: {detail}"));
    }
    if let Some(w) = report.widths.iter().find(|w| w.telemetry_errors > 0) {
        return Err(format!(
            "telemetry plane violated at width {}: {} scrape/flight-dump errors",
            w.width, w.telemetry_errors
        ));
    }
    Ok(())
}
