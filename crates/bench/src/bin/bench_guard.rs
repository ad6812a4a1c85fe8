//! Throughput-regression guard over `BENCH_pipeline.json`.
//!
//! Usage: `bench_guard [slo] <current.json> [<baseline.json>]`
//!
//! With one argument it validates the run's invariants: every stage
//! reported `deterministic: true`, the file says `all_deterministic:
//! true`, and — when the run was configured with more than one pool
//! thread — at least one stage actually dispatched more than one worker
//! (`effective_threads > 1`) and no stage of measurable length ran
//! slower at the configured width than at one thread (the 1.05× rule).
//! The slower-than-serial rule is skipped when the run reports
//! `oversubscribed: true` (pool width above the host's core count):
//! speedup floors on a host that cannot run the workers concurrently
//! compare scheduler interleaving, not the code.
//!
//! With a second argument it additionally compares against the committed
//! baseline: every baseline stage must be present in the run and reach at
//! least `tolerance × baseline` throughput. A `default` or `paper_scale`
//! baseline recorded on a 1-core host (`host_threads: 1`) or with
//! `oversubscribed: true` is refused: its numbers say nothing about
//! parallel throughput. `tolerance` comes from
//! `M3D_BENCH_TOLERANCE` (default 0.25 — a wide band, because CI runners
//! vary several-fold in single-core speed; the guard exists to catch
//! algorithmic regressions, not scheduler noise).
//!
//! The `serve` tier (`BENCH_serve.json`, written by `m3d-diag load`)
//! adds service-level invariants on top: every stage must report zero
//! `crashed_connections` and zero `mismatches` — a single served report
//! that diverges from the offline diagnosis fails the run outright —
//! and, against a baseline, each stage's p99 latency may grow to at
//! most `baseline / tolerance` (the latency mirror of the throughput
//! floor). Serve stages omit `secs_1t`/`secs_nt`, so the
//! slower-than-serial rule exempts them automatically.
//!
//! The `slo` mode (`bench_guard slo <serve.json> [<baseline.json>]`)
//! turns the declarative SLO grammar of DESIGN.md §17 into a CI gate:
//! each serve stage is replayed through [`m3d_obs::slo::evaluate`] with
//! the spec from `M3D_SLO` (default
//! `availability>=0.99,p99_ms<=1000,degraded_frac<=0.95` — wide enough
//! for a chaos run that deliberately sheds). Any burn rate above 1.0
//! fails the run, as does telemetry exporter overhead above 2% of served
//! wall time. Against a baseline, a stage's worst burn may grow by at
//! most `1 / tolerance` — a burn-rate regression fails even while the
//! absolute objective still holds.
//!
//! The parser reads only the fixed line-oriented layout `bench_pipeline`
//! itself writes (one stage object per line, one scalar key per line)
//! and ignores keys it does not know, so adding report fields never
//! breaks an old guard; the workspace deliberately has no JSON
//! dependency.

use std::process::ExitCode;

use m3d_obs::slo::{evaluate, SloInputs, SloSpec};

/// Stages shorter than this at one thread are exempt from the
/// slower-than-serial rule: their wall time is timer noise.
const PENALTY_MIN_SECS: f64 = 0.01;

/// A stage at the configured width may be at most this factor slower
/// than its own one-thread run before the guard fails the run.
const PENALTY_FACTOR: f64 = 1.05;

#[derive(Debug, PartialEq)]
struct StageRow {
    /// `stage` in the default tier, `archetype/stage` in the paper tier.
    key: String,
    throughput: f64,
    effective_threads: u64,
    deterministic: bool,
    /// Wall seconds at one thread / at the configured width. Zero when
    /// the file predates these fields (old baselines stay parseable).
    secs_1t: f64,
    secs_nt: f64,
    /// Serve-tier counters; zero in the offline tiers.
    crashed_connections: u64,
    mismatches: u64,
    /// Serve-tier tail latency; zero in the offline tiers.
    p99_ms: f64,
    /// Serve-tier outcome counts feeding the SLO replay; zero in the
    /// offline tiers.
    completed: u64,
    gave_up: u64,
    deadline_exceeded: u64,
    degraded: u64,
    /// Telemetry exporter overhead as a percentage of served wall time;
    /// zero when the run had no exporter (or predates the field).
    exporter_overhead_pct: f64,
}

#[derive(Debug, Default)]
struct Report {
    /// `"default"`, `"paper_scale"`, or `"serve"`; empty in files that
    /// predate the field.
    tier: String,
    /// The host's core count; zero in files that predate the field.
    host_threads: u64,
    configured_threads: u64,
    all_deterministic: bool,
    /// Pool width above the host's core count; speedup-floor checks are
    /// meaningless there and are skipped.
    oversubscribed: bool,
    stages: Vec<StageRow>,
}

/// Extracts the value after `"key": ` on `line`, up to the next comma or
/// closing brace.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn str_field(line: &str, key: &str) -> Option<String> {
    Some(field(line, key)?.trim_matches('"').to_string())
}

/// Parses the fixed format written by `bench_pipeline`. Stage objects
/// occupy one line each; the paper tier nests them under an archetype
/// whose `"name"` appears alone on a preceding line. Unknown keys are
/// ignored.
fn parse_report(text: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let mut arch: Option<String> = None;
    for line in text.lines() {
        let trimmed = line.trim();
        if !trimmed.starts_with('{') {
            if let Some(v) = str_field(trimmed, "tier") {
                report.tier = v;
            }
        }
        if let Some(v) = field(trimmed, "host_threads") {
            report.host_threads = v.parse().map_err(|e| format!("host_threads: {e}"))?;
        }
        if let Some(v) = field(trimmed, "configured_threads") {
            report.configured_threads =
                v.parse().map_err(|e| format!("configured_threads: {e}"))?;
        }
        if let Some(v) = field(trimmed, "all_deterministic") {
            report.all_deterministic = v == "true";
        }
        if !trimmed.starts_with('{') {
            if let Some(v) = field(trimmed, "oversubscribed") {
                report.oversubscribed = v == "true";
            }
        }
        if trimmed.starts_with("{\"name\":") {
            let stage = str_field(trimmed, "name").ok_or("stage line without name")?;
            let key = match &arch {
                Some(a) => format!("{a}/{stage}"),
                None => stage,
            };
            let secs = |k: &str| -> Result<f64, String> {
                field(trimmed, k).map_or(Ok(0.0), |v| v.parse().map_err(|e| format!("{k}: {e}")))
            };
            let count = |k: &str| -> Result<u64, String> {
                field(trimmed, k).map_or(Ok(0), |v| v.parse().map_err(|e| format!("{k}: {e}")))
            };
            report.stages.push(StageRow {
                key,
                throughput: field(trimmed, "throughput_nt")
                    .ok_or("stage line without throughput_nt")?
                    .parse()
                    .map_err(|e| format!("throughput_nt: {e}"))?,
                effective_threads: field(trimmed, "effective_threads")
                    .ok_or("stage line without effective_threads")?
                    .parse()
                    .map_err(|e| format!("effective_threads: {e}"))?,
                deterministic: field(trimmed, "deterministic") == Some("true"),
                secs_1t: secs("secs_1t")?,
                secs_nt: secs("secs_nt")?,
                crashed_connections: count("crashed_connections")?,
                mismatches: count("mismatches")?,
                p99_ms: secs("p99_ms")?,
                completed: count("completed")?,
                gave_up: count("gave_up")?,
                deadline_exceeded: count("deadline_exceeded")?,
                degraded: count("degraded")?,
                exporter_overhead_pct: secs("exporter_overhead_pct")?,
            });
        } else if trimmed.starts_with("\"name\":") {
            arch = str_field(trimmed, "name");
        }
    }
    if report.stages.is_empty() {
        return Err("no stage rows found".to_string());
    }
    Ok(report)
}

fn check(current: &Report, baseline: Option<&Report>, tolerance: f64) -> Result<(), String> {
    if !current.all_deterministic {
        return Err("all_deterministic is not true".to_string());
    }
    if let Some(bad) = current.stages.iter().find(|s| !s.deterministic) {
        return Err(format!("stage {} is not deterministic", bad.key));
    }
    if current.tier == "serve" {
        // The chaos invariant, CI-enforced: no clean connection may
        // crash, and no served report may diverge from the offline
        // diagnosis — at any pool width, under any chaos schedule.
        for s in &current.stages {
            if s.crashed_connections > 0 {
                return Err(format!(
                    "stage {}: {} clean connection(s) crashed",
                    s.key, s.crashed_connections
                ));
            }
            if s.mismatches > 0 {
                return Err(format!(
                    "stage {}: {} served report(s) diverged from the offline diagnosis",
                    s.key, s.mismatches
                ));
            }
        }
    }
    if current.configured_threads > 1 && !current.stages.iter().any(|s| s.effective_threads > 1) {
        return Err(format!(
            "configured {} pool threads but no stage dispatched more than one worker",
            current.configured_threads
        ));
    }
    if current.configured_threads > 1 && !current.oversubscribed {
        // On a genuinely multicore host, fanning out must never make a
        // measurable stage slower than its own serial run.
        for s in &current.stages {
            if s.secs_1t >= PENALTY_MIN_SECS && s.secs_nt > PENALTY_FACTOR * s.secs_1t {
                return Err(format!(
                    "stage {}: {:.3}s at {} threads vs {:.3}s serial (> {PENALTY_FACTOR}x)",
                    s.key, s.secs_nt, current.configured_threads, s.secs_1t
                ));
            }
        }
    } else if current.oversubscribed {
        println!("bench_guard: oversubscribed run; speedup-floor checks skipped");
    }
    let Some(base) = baseline else {
        return Ok(());
    };
    if matches!(base.tier.as_str(), "default" | "paper_scale")
        && (base.oversubscribed || base.host_threads == 1)
    {
        return Err(format!(
            "baseline recorded with host_threads {} and oversubscribed {}; \
             re-record it on a multicore host at a pool width within its core count",
            base.host_threads, base.oversubscribed
        ));
    }
    let mut compared = 0;
    for b in &base.stages {
        let Some(c) = current.stages.iter().find(|s| s.key == b.key) else {
            return Err(format!("stage {} missing from current run", b.key));
        };
        let floor = tolerance * b.throughput;
        if c.throughput < floor {
            return Err(format!(
                "stage {}: throughput {:.1} below {:.0}% of baseline {:.1}",
                b.key,
                c.throughput,
                100.0 * tolerance,
                b.throughput
            ));
        }
        compared += 1;
        if current.tier == "serve" && b.p99_ms > 0.0 && c.p99_ms > 0.0 {
            // The latency mirror of the throughput floor: the same wide
            // tolerance band, applied as a ceiling.
            let ceiling = b.p99_ms / tolerance;
            if c.p99_ms > ceiling {
                return Err(format!(
                    "stage {}: p99 {:.1}ms above {:.1}ms ({:.0}% band over baseline {:.1}ms)",
                    b.key,
                    c.p99_ms,
                    ceiling,
                    100.0 * tolerance,
                    b.p99_ms
                ));
            }
            compared += 1;
        }
    }
    println!("bench_guard: {compared} metrics within tolerance {tolerance}");
    Ok(())
}

/// Ceiling on the telemetry exporter's self-reported overhead in `slo`
/// mode: the plane must observe the service, not tax it.
const OVERHEAD_MAX_PCT: f64 = 2.0;

/// SLO applied when `M3D_SLO` is unset: wide enough for a chaos run that
/// deliberately overloads and sheds, tight enough that a hung or failing
/// service cannot pass.
const DEFAULT_SLO: &str = "availability>=0.99,p99_ms<=1000,degraded_frac<=0.95";

/// Replays each serve stage through the SLO evaluator. A burn rate above
/// 1.0 on any stage fails; exporter overhead above [`OVERHEAD_MAX_PCT`]
/// fails; against a baseline, a stage's worst burn growing by more than
/// `1 / tolerance` fails even below the absolute ceiling.
fn check_slo(
    current: &Report,
    baseline: Option<&Report>,
    spec: &SloSpec,
    tolerance: f64,
) -> Result<(), String> {
    if current.tier != "serve" {
        return Err(format!(
            "slo mode needs a serve-tier report, got tier {:?}",
            current.tier
        ));
    }
    let burn_of = |s: &StageRow| {
        evaluate(
            spec,
            &SloInputs {
                completed: s.completed,
                failed: s.gave_up + s.crashed_connections + s.deadline_exceeded,
                degraded: s.degraded,
                p99_ms: (s.p99_ms > 0.0).then_some(s.p99_ms),
            },
        )
    };
    let mut checked = 0;
    for s in &current.stages {
        let status = burn_of(s);
        if status.breached() {
            return Err(format!(
                "stage {}: SLO breached (worst burn {:.2}; availability {:?}, p99 {:?}, degraded {:?})",
                s.key,
                status.worst_burn(),
                status.burn_availability,
                status.burn_p99,
                status.burn_degraded
            ));
        }
        if s.exporter_overhead_pct > OVERHEAD_MAX_PCT {
            return Err(format!(
                "stage {}: telemetry exporter overhead {:.2}% above {OVERHEAD_MAX_PCT}%",
                s.key, s.exporter_overhead_pct
            ));
        }
        checked += 1;
        if let Some(base) = baseline {
            let Some(b) = base.stages.iter().find(|b| b.key == s.key) else {
                continue;
            };
            let (cur, was) = (status.worst_burn(), burn_of(b).worst_burn());
            // Burn-rate regression: growing 1/tolerance-fold over the
            // baseline is a fire even while still inside the objective.
            if was > 0.0 && cur > was / tolerance {
                return Err(format!(
                    "stage {}: worst burn {cur:.3} more than {:.0}x baseline {was:.3}",
                    s.key,
                    1.0 / tolerance
                ));
            }
            checked += 1;
        }
    }
    println!(
        "bench_guard: slo `{}` holds over {checked} check(s)",
        spec.render()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let slo_mode = args.first().is_some_and(|a| a == "slo");
    if slo_mode {
        args.remove(0);
    }
    if args.is_empty() || args.len() > 2 {
        eprintln!("usage: bench_guard [slo] <current.json> [<baseline.json>]");
        return ExitCode::FAILURE;
    }
    let tolerance = std::env::var("M3D_BENCH_TOLERANCE")
        .ok()
        .map(|v| v.parse().expect("M3D_BENCH_TOLERANCE must be a number"))
        .unwrap_or(0.25);
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        parse_report(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
    };
    let current = read(&args[0]);
    let baseline = args.get(1).map(|p| read(p));
    let result = if slo_mode {
        let spec_text = std::env::var("M3D_SLO").unwrap_or_else(|_| DEFAULT_SLO.to_string());
        match SloSpec::parse(&spec_text) {
            Ok(spec) => check_slo(&current, baseline.as_ref(), &spec, tolerance),
            Err(e) => Err(format!("M3D_SLO: {e}")),
        }
    } else {
        check(&current, baseline.as_ref(), tolerance)
    };
    match result {
        Ok(()) => {
            println!("bench_guard: OK ({})", args[0]);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_guard: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEFAULT_TIER: &str = r#"{
  "tier": "default",
  "host_threads": 4,
  "configured_threads": 4,
  "oversubscribed": false,
  "stages": [
    {"name": "gnn_fit", "secs_1t": 0.04, "secs_nt": 0.02, "secs_nt_obs": 0.02, "effective_threads": 4, "speedup": 2.0, "scaling_efficiency": 0.5, "obs_overhead_pct": 1.0, "noise_floor_pct": 2.0, "obs_noise": true, "throughput_nt": 3000.0, "unit": "epochs/s", "deterministic": true},
    {"name": "fault_simulation", "secs_1t": 0.04, "secs_nt": 0.02, "secs_nt_obs": 0.02, "effective_threads": 4, "speedup": 2.0, "scaling_efficiency": 0.5, "obs_overhead_pct": 1.0, "noise_floor_pct": 2.0, "obs_noise": true, "throughput_nt": 150000.0, "unit": "faults/s", "deterministic": true}
  ],
  "all_deterministic": true
}
"#;

    #[test]
    fn parses_and_accepts_a_clean_default_tier() {
        let r = parse_report(DEFAULT_TIER).unwrap();
        assert_eq!(r.host_threads, 4);
        assert_eq!(r.configured_threads, 4);
        assert!(!r.oversubscribed);
        assert_eq!(r.stages.len(), 2);
        assert_eq!(r.stages[0].key, "gnn_fit");
        assert_eq!(r.stages[0].secs_1t, 0.04);
        assert_eq!(r.stages[1].throughput, 150000.0);
        check(&r, Some(&r), 0.25).unwrap();
    }

    #[test]
    fn unknown_fields_and_missing_optional_fields_are_tolerated() {
        // Future fields on stage and scalar lines must be ignored, and
        // stage rows from reports that predate secs_1t/secs_nt must
        // still parse (they default to zero, exempting the 1.05x rule).
        let text = r#"{
  "tier": "default",
  "configured_threads": 4,
  "frobnication_level": 9,
  "stages": [
    {"name": "gnn_fit", "effective_threads": 4, "novel_metric": 1.5, "throughput_nt": 3000.0, "unit": "epochs/s", "deterministic": true}
  ],
  "all_deterministic": true
}
"#;
        let r = parse_report(text).unwrap();
        assert_eq!(r.stages[0].secs_1t, 0.0);
        assert_eq!(r.stages[0].secs_nt, 0.0);
        check(&r, None, 0.25).unwrap();
    }

    #[test]
    fn paper_tier_stages_are_keyed_by_archetype() {
        let text = r#"{
  "tier": "paper_scale",
  "configured_threads": 4,
  "oversubscribed": false,
  "archetypes": [
    {
      "name": "aes",
      "stages": [
        {"name": "atpg", "effective_threads": 4, "throughput_nt": 100.0, "deterministic": true}
      ]
    }
  ],
  "all_deterministic": true
}
"#;
        let r = parse_report(text).unwrap();
        assert_eq!(r.stages[0].key, "aes/atpg");
    }

    #[test]
    fn flags_throughput_regression_and_lost_determinism() {
        let base = parse_report(DEFAULT_TIER).unwrap();
        let mut cur = parse_report(DEFAULT_TIER).unwrap();
        cur.stages[1].throughput = 1000.0; // far below 0.25 × 150000
        assert!(check(&cur, Some(&base), 0.25)
            .unwrap_err()
            .contains("below"));
        cur.stages[1].throughput = 150000.0;
        cur.all_deterministic = false;
        assert!(check(&cur, Some(&base), 0.25).is_err());
    }

    #[test]
    fn flags_baseline_stage_missing_from_current_run() {
        let base = parse_report(DEFAULT_TIER).unwrap();
        let mut cur = parse_report(DEFAULT_TIER).unwrap();
        cur.stages.remove(1);
        assert!(check(&cur, Some(&base), 0.25)
            .unwrap_err()
            .contains("stage fault_simulation missing from current run"));
        // A stage only the run has is not compared: adding one is fine.
        check(&base, Some(&cur), 0.25).unwrap();
    }

    #[test]
    fn flags_serial_fallback_at_configured_width() {
        let mut cur = parse_report(DEFAULT_TIER).unwrap();
        for s in &mut cur.stages {
            s.effective_threads = 1;
        }
        assert!(check(&cur, None, 0.25)
            .unwrap_err()
            .contains("no stage dispatched"));
    }

    #[test]
    fn flags_stage_slower_at_width_than_serial() {
        let mut cur = parse_report(DEFAULT_TIER).unwrap();
        cur.stages[0].secs_1t = 0.10;
        cur.stages[0].secs_nt = 0.12; // > 1.05 × 0.10 on a multicore host
        assert!(check(&cur, None, 0.25).unwrap_err().contains("serial"));
        // ... but sub-10ms stages are timer noise, not evidence.
        cur.stages[0].secs_1t = 0.005;
        cur.stages[0].secs_nt = 0.009;
        check(&cur, None, 0.25).unwrap();
    }

    const SERVE_TIER: &str = r#"{
  "tier": "serve",
  "configured_threads": 4,
  "clients": 1000,
  "requests_per_client": 2,
  "stages": [
    {"name": "serve_w1", "effective_threads": 1, "throughput_nt": 800.0, "unit": "diagnoses/s", "p50_ms": 20.0, "p99_ms": 40.0, "crashed_connections": 0, "mismatches": 0, "overloaded": 3, "deadline_exceeded": 0, "degraded": 1, "protocol_rejections": 5, "panics_contained": 2, "gave_up": 0, "completed": 2000, "wall_secs": 2.5, "deterministic": true},
    {"name": "serve_w4", "effective_threads": 4, "throughput_nt": 2400.0, "unit": "diagnoses/s", "p50_ms": 8.0, "p99_ms": 15.0, "crashed_connections": 0, "mismatches": 0, "overloaded": 0, "deadline_exceeded": 0, "degraded": 0, "protocol_rejections": 4, "panics_contained": 2, "gave_up": 0, "completed": 2000, "wall_secs": 0.8, "deterministic": true}
  ],
  "all_deterministic": true
}
"#;

    #[test]
    fn serve_tier_parses_and_accepts_a_clean_run() {
        let r = parse_report(SERVE_TIER).unwrap();
        assert_eq!(r.tier, "serve");
        assert_eq!(r.stages.len(), 2);
        assert_eq!(r.stages[0].key, "serve_w1");
        assert_eq!(r.stages[1].p99_ms, 15.0);
        // Serve stages omit secs_1t/secs_nt, so the slower-than-serial
        // rule self-exempts even at configured_threads = 4.
        assert_eq!(r.stages[0].secs_1t, 0.0);
        check(&r, Some(&r), 0.25).unwrap();
    }

    #[test]
    fn serve_tier_fails_on_crashes_and_mismatches() {
        let base = parse_report(SERVE_TIER).unwrap();
        let mut cur = parse_report(SERVE_TIER).unwrap();
        cur.stages[0].crashed_connections = 1;
        assert!(check(&cur, None, 0.25).unwrap_err().contains("crashed"));
        cur.stages[0].crashed_connections = 0;
        cur.stages[1].mismatches = 1;
        // A single diverged report fails even without a baseline — the
        // chaos invariant is unconditional.
        assert!(check(&cur, None, 0.25).unwrap_err().contains("diverged"));
        assert!(check(&cur, Some(&base), 0.25).is_err());
    }

    #[test]
    fn serve_tier_holds_p99_to_the_baseline_ceiling() {
        let base = parse_report(SERVE_TIER).unwrap();
        let mut cur = parse_report(SERVE_TIER).unwrap();
        cur.stages[1].p99_ms = 100.0; // above 15.0 / 0.25 = 60ms
        assert!(check(&cur, Some(&base), 0.25).unwrap_err().contains("p99"));
        cur.stages[1].p99_ms = 55.0; // inside the band
        check(&cur, Some(&base), 0.25).unwrap();
        // Offline tiers never trip the latency ceiling.
        let dbase = parse_report(DEFAULT_TIER).unwrap();
        check(&dbase, Some(&dbase), 0.25).unwrap();
    }

    fn default_slo() -> SloSpec {
        SloSpec::parse(DEFAULT_SLO).unwrap()
    }

    #[test]
    fn slo_mode_parses_outcome_counts_and_accepts_a_clean_run() {
        let r = parse_report(SERVE_TIER).unwrap();
        assert_eq!(r.stages[0].completed, 2000);
        assert_eq!(r.stages[0].gave_up, 0);
        assert_eq!(r.stages[0].deadline_exceeded, 0);
        assert_eq!(r.stages[0].degraded, 1);
        // Reports that predate the exporter default to zero overhead.
        assert_eq!(r.stages[0].exporter_overhead_pct, 0.0);
        check_slo(&r, Some(&r), &default_slo(), 0.25).unwrap();
        // Offline tiers have no outcomes to replay.
        let offline = parse_report(DEFAULT_TIER).unwrap();
        assert!(check_slo(&offline, None, &default_slo(), 0.25)
            .unwrap_err()
            .contains("serve-tier"));
    }

    #[test]
    fn slo_mode_fails_burned_objectives_and_exporter_overhead() {
        let mut cur = parse_report(SERVE_TIER).unwrap();
        cur.stages[0].degraded = 1990; // 99.5% degraded vs the 95% ceiling
        assert!(check_slo(&cur, None, &default_slo(), 0.25)
            .unwrap_err()
            .contains("breached"));
        cur.stages[0].degraded = 1;
        cur.stages[1].exporter_overhead_pct = 3.5; // above the 2% ceiling
        assert!(check_slo(&cur, None, &default_slo(), 0.25)
            .unwrap_err()
            .contains("overhead"));
    }

    #[test]
    fn slo_mode_flags_burn_rate_regressions_inside_the_objective() {
        let base = parse_report(SERVE_TIER).unwrap();
        let mut cur = parse_report(SERVE_TIER).unwrap();
        // p99 40ms → 900ms: burn 0.04 → 0.90, still inside the 1000ms
        // objective but 22x the baseline burn — a fire, not a pass.
        cur.stages[0].p99_ms = 900.0;
        assert!(check_slo(&cur, None, &default_slo(), 0.25).is_ok());
        assert!(check_slo(&cur, Some(&base), &default_slo(), 0.25)
            .unwrap_err()
            .contains("baseline"));
    }

    #[test]
    fn refuses_a_single_core_or_oversubscribed_baseline() {
        let cur = parse_report(DEFAULT_TIER).unwrap();
        let mut base = parse_report(DEFAULT_TIER).unwrap();
        base.oversubscribed = true;
        assert!(check(&cur, Some(&base), 0.25)
            .unwrap_err()
            .contains("multicore"));
        base.oversubscribed = false;
        base.host_threads = 1;
        assert!(check(&cur, Some(&base), 0.25)
            .unwrap_err()
            .contains("multicore"));
        // The same file is still a valid *current* run to check alone.
        check(&base, None, 0.25).unwrap();
    }

    #[test]
    fn oversubscribed_run_skips_speedup_floor_checks() {
        let mut cur = parse_report(DEFAULT_TIER).unwrap();
        cur.stages[0].secs_1t = 0.10;
        cur.stages[0].secs_nt = 0.30; // 4 workers time-slicing one core
        assert!(check(&cur, None, 0.25).is_err());
        cur.oversubscribed = true;
        check(&cur, None, 0.25).unwrap();
    }
}
