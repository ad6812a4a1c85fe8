//! The load generator and chaos client: thousands of concurrent synthetic
//! tester sessions with seeded fault injection.
//!
//! Each client thread owns a [`ChaosSchedule`] seeded from its index, so a
//! run is reproducible: the same seed yields the same interleaving of
//! clean exchanges, garbled and truncated frames, slow writers, mid-stream
//! disconnects, duplicated requests, and retry storms (exponential backoff
//! with deterministic jitter after every `Overloaded`).
//!
//! Before any client starts, the harness computes the *offline* expected
//! report for every synthetic failure log — plain, shed-degraded, and
//! enhanced variants — straight from [`Diagnoser`] and
//! [`FaultLocalizer::enhance`]. Every served report is compared
//! bit-for-bit (display text, candidate list, degraded tag) against those
//! expectations; a `mismatch` is the harness's strongest failure signal.
//! `crashed_connections` counts unexpected EOFs during *clean* exchanges
//! only — chaos-injected disconnects are the client's own doing and are
//! not crashes.
//!
//! [`FaultLocalizer::enhance`]: m3d_fault_localization::FaultLocalizer::enhance

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use m3d_diagnosis::{Diagnoser, DiagnosisConfig};
use m3d_fault_localization::{try_generate_samples, InjectionKind};
use m3d_resilient::chaos::{ChaosAction, ChaosSchedule};
use m3d_tdf::write_failure_log;

use crate::admission::AdmissionConfig;
use crate::artifacts::{ArtifactBundle, BundleSpec};
use crate::proto::{
    encode_frame, read_frame, wire_candidates, write_frame, Decoder, ProtoError, Request, Response,
    WireCandidate,
};
use crate::server::{spawn_server, RunningServer, ServeConfig};

/// Load-harness configuration.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Artifact spec (must match the server's when `addr` targets an
    /// external one, or the expected reports will not line up).
    pub spec: BundleSpec,
    /// Concurrent client threads per width phase.
    pub clients: usize,
    /// Clean diagnosis exchanges each client must complete.
    pub requests_per_client: usize,
    /// Pool widths to phase through (one in-process server per width).
    pub widths: Vec<usize>,
    /// Chaos seed (client `i` uses `chaos_seed + i`).
    pub chaos_seed: u64,
    /// Per-request chaos probability in `[0, 1]`; `0.0` is a pure load
    /// run.
    pub chaos_rate: f64,
    /// Per-request deadline sent to the server (`None` = server default).
    pub deadline_ms: Option<u64>,
    /// Distinct synthetic failure logs to cycle through.
    pub log_pool: usize,
    /// Forwarded to [`ServeConfig::chaos_panic_every`] on in-process
    /// servers.
    pub server_panic_every: Option<u64>,
    /// Admission knobs for in-process servers.
    pub admission: AdmissionConfig,
    /// Frame timeout for in-process servers; the slow-writer chaos action
    /// sleeps past it on purpose.
    pub frame_timeout_ms: u64,
    /// Target an already-running server instead of spawning one per
    /// width (the width then only labels the phase).
    pub addr: Option<String>,
    /// Run a telemetry exporter on each in-process server and scrape it
    /// continuously while the clients storm (mid-load snapshots feed the
    /// exporter-overhead and bit-neutrality checks).
    pub telemetry: bool,
    /// Flight-dump directory for in-process servers (each width phase
    /// uses a `w<width>` subdirectory). After the phase the harness
    /// verifies every `flight-panic-*.jsonl` artifact parses and renders
    /// and that each contained worker panic left one.
    pub flight_dir: Option<PathBuf>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            spec: BundleSpec::default(),
            clients: 1000,
            requests_per_client: 2,
            widths: vec![1, 4],
            chaos_seed: 1,
            chaos_rate: 0.0,
            deadline_ms: None,
            log_pool: 32,
            server_panic_every: None,
            admission: AdmissionConfig::default(),
            frame_timeout_ms: 400,
            addr: None,
            telemetry: false,
            flight_dir: None,
        }
    }
}

/// Aggregated outcome of one pool-width phase.
#[derive(Clone, Debug, Default)]
pub struct WidthResult {
    /// The pool width this phase ran at.
    pub width: usize,
    /// Wall-clock seconds of the client phase.
    pub wall_secs: f64,
    /// Clean exchanges completed and verified.
    pub completed: u64,
    /// Median clean-exchange latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile clean-exchange latency in milliseconds.
    pub p99_ms: f64,
    /// Unexpected EOFs during clean exchanges — must be zero.
    pub crashed_connections: u64,
    /// Served reports differing from the offline expectation — must be
    /// zero.
    pub mismatches: u64,
    /// Typed `Overloaded` rejections observed (retried with backoff).
    pub overloaded: u64,
    /// Typed `DeadlineExceeded` outcomes observed.
    pub deadline_exceeded: u64,
    /// Degraded reports served (shed ladder engaged).
    pub degraded: u64,
    /// Chaos frames the server rejected with a typed protocol error.
    pub protocol_rejections: u64,
    /// Worker panics the server contained: an in-process server's own
    /// count, or, for a server at [`LoadConfig::addr`], the typed
    /// `internal` errors its clients received. Never the sum of the two,
    /// which would count a contained panic once per side.
    pub panics_contained: u64,
    /// Requests abandoned after exhausting retries (never silent: each
    /// received only typed Overloaded/DeadlineExceeded answers).
    pub gave_up: u64,
    /// Telemetry snapshots scraped mid-load (0 when telemetry is off).
    pub telemetry_scrapes: u64,
    /// Scrapes that failed to parse, plus flight-dump verification
    /// failures (missing, unparsable, or unrenderable artifacts) — must
    /// be zero.
    pub telemetry_errors: u64,
    /// `flight-panic-*.jsonl` artifacts found and verified after the
    /// phase.
    pub flight_dumps: u64,
    /// The exporter's self-reported busy percentage from the last scrape.
    pub exporter_overhead_pct: f64,
    /// First mismatch description, for diagnosis.
    pub first_mismatch: Option<String>,
}

/// The full harness outcome.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// One entry per width phase.
    pub widths: Vec<WidthResult>,
    /// Clients per phase.
    pub clients: usize,
    /// Clean exchanges demanded of each client.
    pub requests_per_client: usize,
}

impl LoadReport {
    /// Whether every phase upheld the chaos invariant (no crashed clean
    /// connections, no report mismatches).
    pub fn clean(&self) -> bool {
        self.widths
            .iter()
            .all(|w| w.crashed_connections == 0 && w.mismatches == 0)
    }
}

/// One synthetic log with its precomputed offline expectations.
struct Expected {
    log_text: String,
    plain_text: String,
    plain_cands: Vec<WireCandidate>,
    plain_degraded: bool,
    shed_text: String,
    shed_cands: Vec<WireCandidate>,
    enhanced: Option<ExpectedEnhanced>,
}

struct ExpectedEnhanced {
    text: String,
    cands: Vec<WireCandidate>,
    degraded: bool,
    action: String,
}

/// Runs the harness: precompute expectations, then one phase per width.
///
/// # Errors
///
/// Setup failures (artifact load, sample generation, bind, a server that
/// never becomes ready). Chaos-invariant violations are *not* errors —
/// they are reported in the [`LoadReport`] so the caller can both write
/// the bench file and fail the run.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let mut sp = m3d_obs::span("serve_load");
    sp.add("clients", cfg.clients as u64);
    let expected = Arc::new(compute_expected(cfg)?);
    let mut report = LoadReport {
        widths: Vec::new(),
        clients: cfg.clients,
        requests_per_client: cfg.requests_per_client,
    };
    for &width in &cfg.widths {
        report.widths.push(run_width(cfg, width, &expected)?);
    }
    Ok(report)
}

/// Builds the synthetic log pool and its offline expected reports.
fn compute_expected(cfg: &LoadConfig) -> Result<Vec<Expected>, String> {
    let bundle = ArtifactBundle::load(&cfg.spec)?;
    let fsim = bundle.env.fault_sim();
    let diagnoser = Diagnoser::new(
        &fsim,
        &bundle.env.scan,
        bundle.mode,
        DiagnosisConfig::default(),
    );
    let samples = try_generate_samples(
        &bundle.env,
        &fsim,
        bundle.mode,
        InjectionKind::Single,
        cfg.log_pool.max(1),
        cfg.spec.sample_seed ^ 0x5eed_10ad,
    )
    .map_err(|e| format!("log-pool generation: {e}"))?;
    Ok(samples
        .iter()
        .map(|s| {
            let plain = diagnoser.diagnose(&s.log);
            let mut shed = plain.clone();
            shed.mark_degraded();
            let enhanced = bundle.localizer.as_ref().map(|loc| {
                let sample = bundle.sample_for(&fsim, &s.log);
                let outcome = loc.enhance(&bundle.env.design, &plain, &sample);
                ExpectedEnhanced {
                    text: outcome.report.to_string(),
                    cands: wire_candidates(&outcome.report),
                    degraded: outcome.report.degraded(),
                    action: outcome.action.wire_name().to_string(),
                }
            });
            Expected {
                log_text: write_failure_log(&s.log),
                plain_text: plain.to_string(),
                plain_cands: wire_candidates(&plain),
                plain_degraded: plain.degraded(),
                shed_text: shed.to_string(),
                shed_cands: wire_candidates(&shed),
                enhanced,
            }
        })
        .collect())
}

/// One width phase: spawn (or target) a server, storm it, aggregate.
fn run_width(
    cfg: &LoadConfig,
    width: usize,
    expected: &Arc<Vec<Expected>>,
) -> Result<WidthResult, String> {
    let phase_flight_dir = cfg.flight_dir.as_ref().map(|d| d.join(format!("w{width}")));
    let (addr, server): (SocketAddr, Option<RunningServer>) = match &cfg.addr {
        Some(a) => (
            a.parse().map_err(|e| format!("bad --addr `{a}`: {e}"))?,
            None,
        ),
        None => {
            let scfg = ServeConfig {
                pool_width: width,
                admission: cfg.admission,
                frame_timeout_ms: cfg.frame_timeout_ms,
                chaos_panic_every: cfg.server_panic_every,
                telemetry_addr: cfg.telemetry.then(|| "127.0.0.1:0".into()),
                flight_dir: phase_flight_dir.clone(),
                ..ServeConfig::default()
            };
            let rs = spawn_server(&cfg.spec, &scfg)?;
            (rs.addr(), Some(rs))
        }
    };
    let telemetry_addr = server.as_ref().and_then(RunningServer::telemetry_addr);
    wait_ready(addr, Duration::from_secs(600))?;

    // Scrape the exporter continuously while the clients storm: the
    // snapshots must parse, and serving must stay bit-identical under
    // concurrent snapshotting.
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scraper = telemetry_addr.map(|taddr| {
        let stop = Arc::clone(&scrape_stop);
        thread::spawn(move || {
            let (mut scrapes, mut errors, mut overhead) = (0u64, 0u64, 0.0f64);
            let mut req_rate = 0.0f64;
            while !stop.load(Ordering::Relaxed) {
                match crate::telemetry::scrape(taddr) {
                    Ok(snap) => {
                        // A reply that is not a well-formed snapshot is a
                        // plane violation, not a scrape.
                        let shaped = snap.get("type").and_then(m3d_obs::Json::as_str)
                            == Some("telemetry")
                            && ["stats", "counters", "rates", "quantiles", "slo"]
                                .iter()
                                .all(|k| snap.get(k).is_some());
                        if !shaped {
                            errors += 1;
                        } else {
                            scrapes += 1;
                            if let Some(pct) = snap
                                .get("exporter")
                                .and_then(|e| e.get("overhead_pct"))
                                .and_then(m3d_obs::Json::as_f64)
                            {
                                overhead = pct;
                            }
                            if let Some(r) = snap
                                .get("rates")
                                .and_then(|r| r.get("serve.completed"))
                                .and_then(|w| w.get("10s"))
                                .and_then(m3d_obs::Json::as_f64)
                            {
                                req_rate = req_rate.max(r);
                            }
                        }
                    }
                    Err(_) => errors += 1,
                }
                thread::sleep(Duration::from_millis(50));
            }
            (scrapes, errors, overhead, req_rate)
        })
    });

    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(cfg.clients);
    for i in 0..cfg.clients {
        let expected = Arc::clone(expected);
        let cfg = cfg.clone();
        let handle = thread::Builder::new()
            .name(format!("m3d-load-{i}"))
            .stack_size(256 * 1024)
            .spawn(move || run_client(i, addr, &cfg, &expected))
            .map_err(|e| format!("spawning client {i}: {e}"))?;
        handles.push(handle);
    }
    let mut stats = ClientStats::default();
    for h in handles {
        match h.join() {
            Ok(s) => stats.merge(s),
            Err(_) => stats.crashed += 1, // a panicking client is a crash
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();

    scrape_stop.store(true, Ordering::Relaxed);
    let scraping = telemetry_addr.is_some();
    let (telemetry_scrapes, mut telemetry_errors, exporter_overhead_pct, req_rate) = scraper
        .and_then(|h| h.join().ok())
        .unwrap_or((0, 0, 0.0, 0.0));
    // Liveness, not just well-formedness: a scraped run must land at
    // least one snapshot, and — once anything completed — at least one
    // snapshot must have shown a nonzero completion rate.
    if scraping && (telemetry_scrapes == 0 || (stats.completed > 0 && req_rate <= 0.0)) {
        telemetry_errors += 1;
    }

    // An in-process server counts its own contained panics; a server at
    // `--addr` is seen only through its clients' typed `internal` errors.
    let server_panics = match server {
        Some(rs) => {
            shutdown_server(addr);
            Some(rs.join()?.stats.panics_contained)
        }
        None => None,
    };

    // Post-mortem: every contained worker panic must have left one
    // parsable, renderable `flight-panic-*.jsonl` artifact naming the
    // poisoned request.
    let mut flight_dumps = 0u64;
    if let Some(dir) = &phase_flight_dir {
        let (verified, failures) = verify_flight_dumps(dir, server_panics.unwrap_or(0));
        flight_dumps = verified;
        telemetry_errors += failures;
    }

    stats.latencies_us.sort_unstable();
    let pct = |p: f64| -> f64 {
        if stats.latencies_us.is_empty() {
            return 0.0;
        }
        let idx = ((stats.latencies_us.len() as f64 - 1.0) * p).round() as usize;
        stats.latencies_us[idx.min(stats.latencies_us.len() - 1)] as f64 / 1e3
    };
    Ok(WidthResult {
        width,
        wall_secs,
        completed: stats.completed,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        crashed_connections: stats.crashed,
        mismatches: stats.mismatches,
        overloaded: stats.overloaded,
        deadline_exceeded: stats.deadline_exceeded,
        degraded: stats.degraded_seen,
        protocol_rejections: stats.protocol_rejections,
        panics_contained: server_panics.unwrap_or(stats.panic_errors),
        gave_up: stats.gave_up,
        telemetry_scrapes,
        telemetry_errors,
        flight_dumps,
        exporter_overhead_pct,
        first_mismatch: stats.first_mismatch,
    })
}

/// Counts and verifies `flight-panic-*.jsonl` artifacts in `dir`: each
/// must parse as flight events, render as a timeline, and contain the
/// `panic_contained` event naming the poisoned request. Returns
/// `(verified, failures)`, where `failures` includes a shortfall against
/// the server's contained-panic count.
fn verify_flight_dumps(dir: &std::path::Path, panics_contained: u64) -> (u64, u64) {
    let mut verified = 0u64;
    let mut failures = 0u64;
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        // No directory means no dumps were written: a failure only if
        // panics were actually contained.
        Err(_) => return (0, u64::from(panics_contained > 0)),
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("flight-panic-") && name.ends_with(".jsonl")) {
            continue;
        }
        let ok = std::fs::read_to_string(entry.path())
            .ok()
            .and_then(|text| m3d_obs::report::parse_jsonl(&text).ok())
            .is_some_and(|events| {
                let named = events.iter().any(|e| {
                    matches!(e, m3d_obs::Event::Flight { kind, .. } if kind == "panic_contained")
                });
                named && !m3d_obs::report::render_flight_timeline(&events).is_empty()
            });
        if ok {
            verified += 1;
        } else {
            failures += 1;
        }
    }
    if verified < panics_contained {
        failures += panics_contained - verified;
    }
    (verified, failures)
}

/// Renders the bench file in the line-oriented layout `bench_guard`
/// parses (one stage object per line; serve-specific keys ride along and
/// old guards ignore them).
pub fn render_bench_json(report: &LoadReport) -> String {
    let max_width = report.widths.iter().map(|w| w.width).max().unwrap_or(1);
    let mut out = String::from("{\n");
    out.push_str("  \"tier\": \"serve\",\n");
    out.push_str(&format!("  \"configured_threads\": {max_width},\n"));
    out.push_str(&format!("  \"clients\": {},\n", report.clients));
    out.push_str(&format!(
        "  \"requests_per_client\": {},\n",
        report.requests_per_client
    ));
    out.push_str("  \"stages\": [\n");
    for (i, w) in report.widths.iter().enumerate() {
        let throughput = if w.wall_secs > 0.0 {
            w.completed as f64 / w.wall_secs
        } else {
            0.0
        };
        let deterministic = w.crashed_connections == 0 && w.mismatches == 0;
        out.push_str(&format!(
            "    {{\"name\": \"serve_w{}\", \"effective_threads\": {}, \"throughput_nt\": {:.3}, \
             \"unit\": \"diagnoses/s\", \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"crashed_connections\": {}, \"mismatches\": {}, \"overloaded\": {}, \
             \"deadline_exceeded\": {}, \"degraded\": {}, \"protocol_rejections\": {}, \
             \"panics_contained\": {}, \"gave_up\": {}, \"completed\": {}, \"wall_secs\": {:.3}, \
             \"telemetry_scrapes\": {}, \"telemetry_errors\": {}, \"flight_dumps\": {}, \
             \"exporter_overhead_pct\": {:.3}, \"deterministic\": {}}}{}\n",
            w.width,
            w.width,
            throughput,
            w.p50_ms,
            w.p99_ms,
            w.crashed_connections,
            w.mismatches,
            w.overloaded,
            w.deadline_exceeded,
            w.degraded,
            w.protocol_rejections,
            w.panics_contained,
            w.gave_up,
            w.completed,
            w.wall_secs,
            w.telemetry_scrapes,
            w.telemetry_errors,
            w.flight_dumps,
            w.exporter_overhead_pct,
            deterministic,
            if i + 1 < report.widths.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"all_deterministic\": {}\n", report.clean()));
    out.push_str("}\n");
    out
}

/// Per-client tallies, merged across the fleet after the phase.
#[derive(Debug, Default)]
struct ClientStats {
    latencies_us: Vec<u64>,
    completed: u64,
    crashed: u64,
    mismatches: u64,
    overloaded: u64,
    deadline_exceeded: u64,
    degraded_seen: u64,
    protocol_rejections: u64,
    panic_errors: u64,
    gave_up: u64,
    first_mismatch: Option<String>,
}

impl ClientStats {
    fn merge(&mut self, other: ClientStats) {
        self.latencies_us.extend(other.latencies_us);
        self.completed += other.completed;
        self.crashed += other.crashed;
        self.mismatches += other.mismatches;
        self.overloaded += other.overloaded;
        self.deadline_exceeded += other.deadline_exceeded;
        self.degraded_seen += other.degraded_seen;
        self.protocol_rejections += other.protocol_rejections;
        self.panic_errors += other.panic_errors;
        self.gave_up += other.gave_up;
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
    }

    fn note_mismatch(&mut self, why: String) {
        self.mismatches += 1;
        if self.first_mismatch.is_none() {
            self.first_mismatch = Some(why);
        }
    }
}

/// A framed client connection.
struct Wire {
    stream: TcpStream,
    dec: Decoder,
}

impl Wire {
    fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Wire {
            stream,
            dec: Decoder::new(),
        })
    }

    /// Connects with retries (the kernel may drop SYNs under a 1000-client
    /// storm; a listener mid-generation-swap answers late).
    fn connect_retry(addr: SocketAddr, budget: Duration) -> std::io::Result<Wire> {
        let t0 = Instant::now();
        loop {
            match Wire::connect(addr) {
                Ok(w) => return Ok(w),
                Err(e) if t0.elapsed() >= budget => return Err(e),
                Err(_) => thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        write_frame(&mut self.stream, line)
    }

    fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    fn recv(&mut self) -> Result<Response, ProtoError> {
        match read_frame(&mut self.stream, &mut self.dec)? {
            Some(line) => Response::parse(&line),
            None => Err(ProtoError::Io("connection closed".into())),
        }
    }

    /// Reads and discards whatever the server still says (bounded), used
    /// after a chaos action whose aftermath we do not care about.
    fn drain(&mut self) {
        self.stream
            .set_read_timeout(Some(Duration::from_millis(250)))
            .ok();
        for _ in 0..10 {
            if self.recv().is_err() {
                break;
            }
        }
    }
}

/// Pings until the server answers (it may still be training models).
fn wait_ready(addr: SocketAddr, budget: Duration) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        if let Ok(mut wire) = Wire::connect(addr) {
            if wire.send(&Request::Ping { id: 0 }.encode()).is_ok()
                && matches!(wire.recv(), Ok(Response::Pong { .. }))
            {
                return Ok(());
            }
        }
        if t0.elapsed() >= budget {
            return Err(format!("server at {addr} never became ready"));
        }
        thread::sleep(Duration::from_millis(100));
    }
}

/// Asks an in-process server to drain and stop (best-effort).
fn shutdown_server(addr: SocketAddr) {
    if let Ok(mut wire) = Wire::connect(addr) {
        let _ = wire.send(&Request::Shutdown { id: 0 }.encode());
        let _ = wire.recv();
    }
}

/// One client session: `requests_per_client` clean exchanges, each
/// optionally preceded by a chaos action.
fn run_client(
    index: usize,
    addr: SocketAddr,
    cfg: &LoadConfig,
    expected: &[Expected],
) -> ClientStats {
    let mut stats = ClientStats::default();
    let mut schedule =
        ChaosSchedule::with_rate(cfg.chaos_seed.wrapping_add(index as u64), cfg.chaos_rate);
    let mut next_id = (index as u64) * 1_000_000;
    let mut alloc_id = move || {
        next_id += 1;
        next_id
    };
    let Ok(mut wire) = Wire::connect_retry(addr, Duration::from_secs(30)) else {
        stats.crashed += 1;
        return stats;
    };
    for r in 0..cfg.requests_per_client {
        let exp = &expected[(index.wrapping_mul(31) + r.wrapping_mul(7)) % expected.len()];
        let action = schedule.next_action();
        let duplicate = matches!(action, ChaosAction::Duplicate);
        if !matches!(
            action,
            ChaosAction::Clean | ChaosAction::PanicWorker | ChaosAction::Duplicate
        ) {
            wire = inject_chaos(action, wire, addr, exp, &mut schedule, &mut stats, cfg);
        }
        clean_exchange(
            &mut wire,
            addr,
            cfg,
            exp,
            duplicate,
            &mut schedule,
            &mut alloc_id,
            &mut stats,
        );
    }
    stats
}

/// Performs one protocol-hostile action and returns a fresh connection.
fn inject_chaos(
    action: ChaosAction,
    mut wire: Wire,
    addr: SocketAddr,
    exp: &Expected,
    schedule: &mut ChaosSchedule,
    stats: &mut ClientStats,
    cfg: &LoadConfig,
) -> Wire {
    let frame = encode_frame(
        &Request::Diagnose {
            id: 0,
            log: exp.log_text.clone(),
            deadline_ms: cfg.deadline_ms,
            no_enhance: false,
        }
        .encode(),
    );
    match action {
        ChaosAction::GarbleFrame => {
            let mut bytes = frame;
            schedule.garble(&mut bytes);
            let _ = wire.send_raw(&bytes);
            stats.protocol_rejections += 1;
            wire.drain();
        }
        ChaosAction::TruncateFrame => {
            let keep = schedule.truncate_at(frame.len());
            let _ = wire.send_raw(&frame[..keep]);
            stats.protocol_rejections += 1;
            // Drop mid-frame: the server sees a truncated frame.
        }
        ChaosAction::SlowWrite => {
            // A slowloris writer: stall inside a frame for longer than the
            // server's frame timeout, then try to finish it.
            let split = schedule.split_at(frame.len());
            let _ = wire.send_raw(&frame[..split]);
            thread::sleep(Duration::from_millis(cfg.frame_timeout_ms + 100));
            let _ = wire.send_raw(&frame[split..]);
            stats.protocol_rejections += 1;
            wire.drain();
        }
        ChaosAction::Disconnect => {
            // Send a complete request, vanish before the answer.
            let _ = wire.send_raw(&frame);
        }
        ChaosAction::Clean | ChaosAction::Duplicate | ChaosAction::PanicWorker => {}
    }
    drop(wire);
    Wire::connect_retry(addr, Duration::from_secs(30)).unwrap_or_else(|_| {
        stats.crashed += 1;
        // One more attempt without a budget so the session can go on; a
        // server that truly died will fail every subsequent exchange too.
        Wire::connect_retry(addr, Duration::from_secs(5)).expect("server unreachable")
    })
}

/// Awaits the response for `id`, skipping stale replies (duplicates from
/// earlier chaos, protocol notices) up to a bound.
fn await_id(wire: &mut Wire, id: u64) -> Result<Response, ProtoError> {
    for _ in 0..64 {
        let resp = wire.recv()?;
        let rid = match &resp {
            Response::Report { id, .. }
            | Response::Pong { id, .. }
            | Response::Overloaded { id, .. }
            | Response::DeadlineExceeded { id, .. }
            | Response::Stats { id, .. }
            | Response::Reloaded { id, .. }
            | Response::ShuttingDown { id } => Some(*id),
            Response::Error { id, .. } => *id,
        };
        match rid {
            Some(r) if r == id => return Ok(resp),
            // An un-attributed error means the server is about to close
            // this connection (protocol violation we caused earlier).
            None => return Ok(resp),
            _ => {} // stale reply to an older id — skip
        }
    }
    Err(ProtoError::BadMessage("no reply within 64 frames".into()))
}

/// Checks a served report against the offline expectation, bit for bit.
fn verify_report(
    exp: &Expected,
    degraded: bool,
    enhanced: bool,
    action: Option<&str>,
    text: &str,
    candidates: &[WireCandidate],
) -> Result<(), String> {
    let (want_text, want_cands, want_degraded, want_action): (
        &str,
        &[WireCandidate],
        bool,
        Option<&str>,
    ) = if enhanced {
        match &exp.enhanced {
            Some(e) => (&e.text, &e.cands, e.degraded, Some(e.action.as_str())),
            None => return Err("server enhanced but no model was configured".into()),
        }
    } else if degraded && !exp.plain_degraded {
        (&exp.shed_text, &exp.shed_cands, true, None)
    } else {
        (&exp.plain_text, &exp.plain_cands, exp.plain_degraded, None)
    };
    if text != want_text {
        return Err(format!(
            "report text mismatch:\n--- served\n{text}\n--- expected\n{want_text}"
        ));
    }
    if candidates != want_cands {
        return Err("candidate list mismatch".into());
    }
    if degraded != want_degraded {
        return Err(format!(
            "degraded tag mismatch: served {degraded}, expected {want_degraded}"
        ));
    }
    if action != want_action {
        return Err(format!(
            "action mismatch: served {action:?}, expected {want_action:?}"
        ));
    }
    Ok(())
}

/// One clean exchange with retry-storm semantics: resend with seeded
/// exponential backoff after typed Overloaded/DeadlineExceeded/internal
/// answers; count a crash only on an unexpected EOF.
#[allow(clippy::too_many_arguments)]
fn clean_exchange(
    wire: &mut Wire,
    addr: SocketAddr,
    cfg: &LoadConfig,
    exp: &Expected,
    duplicate: bool,
    schedule: &mut ChaosSchedule,
    alloc_id: &mut impl FnMut() -> u64,
    stats: &mut ClientStats,
) {
    let mut attempt = 0u32;
    loop {
        let id = alloc_id();
        let line = Request::Diagnose {
            id,
            log: exp.log_text.clone(),
            deadline_ms: cfg.deadline_ms,
            no_enhance: false,
        }
        .encode();
        wire.stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok();
        let t0 = Instant::now();
        let sent = if duplicate {
            wire.send(&line).and_then(|()| wire.send(&line))
        } else {
            wire.send(&line)
        };
        if sent.is_err() {
            attempt += 1;
            if attempt > 12 {
                stats.crashed += 1;
                return;
            }
            if let Ok(fresh) = Wire::connect_retry(addr, Duration::from_secs(10)) {
                *wire = fresh;
            }
            continue;
        }
        match await_id(wire, id) {
            Ok(Response::Report {
                degraded,
                enhanced,
                action,
                text,
                candidates,
                ..
            }) => {
                stats
                    .latencies_us
                    .push(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                if degraded {
                    stats.degraded_seen += 1;
                }
                match verify_report(
                    exp,
                    degraded,
                    enhanced,
                    action.as_deref(),
                    &text,
                    &candidates,
                ) {
                    Ok(()) => stats.completed += 1,
                    Err(why) => stats.note_mismatch(why),
                }
                if duplicate {
                    // The duplicated request is a distinct admission with
                    // the same id; its answer must verify identically
                    // (allowing a different shed/typed outcome under
                    // load).
                    wire.stream
                        .set_read_timeout(Some(Duration::from_millis(2_000)))
                        .ok();
                    // Any other typed outcome (or a slow reply) is fine;
                    // only a Report that diverges counts against us.
                    if let Ok(Response::Report {
                        degraded,
                        enhanced,
                        action,
                        text,
                        candidates,
                        ..
                    }) = await_id(wire, id)
                    {
                        if let Err(why) = verify_report(
                            exp,
                            degraded,
                            enhanced,
                            action.as_deref(),
                            &text,
                            &candidates,
                        ) {
                            stats.note_mismatch(why);
                        }
                    }
                }
                return;
            }
            Ok(Response::Overloaded { retry_after_ms, .. }) => {
                stats.overloaded += 1;
                attempt += 1;
                if attempt > 10 {
                    stats.gave_up += 1;
                    return;
                }
                let ms = schedule.backoff_ms(attempt, retry_after_ms.max(1), 500);
                thread::sleep(Duration::from_millis(ms));
            }
            Ok(Response::DeadlineExceeded { .. }) => {
                stats.deadline_exceeded += 1;
                attempt += 1;
                if attempt > 10 {
                    stats.gave_up += 1;
                    return;
                }
            }
            Ok(Response::Error { kind, .. }) if kind == "internal" => {
                stats.panic_errors += 1;
                attempt += 1;
                if attempt > 10 {
                    stats.gave_up += 1;
                    return;
                }
            }
            Ok(other) => {
                stats.note_mismatch(format!("unexpected response to a clean request: {other:?}"));
                return;
            }
            Err(_) => {
                stats.crashed += 1;
                attempt += 1;
                if attempt > 3 {
                    return;
                }
                if let Ok(fresh) = Wire::connect_retry(addr, Duration::from_secs(10)) {
                    *wire = fresh;
                }
            }
        }
    }
}
