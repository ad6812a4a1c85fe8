//! The server: a generation loop around an acceptor, a reader and a
//! writer thread per connection, and `pool_width` scoring workers that
//! each take one admitted job at a time.
//!
//! # Ownership: the generation loop
//!
//! [`m3d_diagnosis::Diagnoser`] borrows a `FaultSim`, which borrows the
//! design — a deliberately borrow-heavy design that this workspace cannot
//! paper over with self-referential tricks (`unsafe` is denied). The
//! server therefore runs *generations*: each iteration owns one
//! [`ArtifactBundle`], builds the simulator and diagnoser on the stack,
//! and opens a [`std::thread::scope`] in which every worker borrows them.
//! Hot reload is a generation swap: the reloading connection loads and
//! validates the **new** bundle first (the old generation keeps serving
//! throughout), parks it, and asks the scope to wind down; the loop then
//! swaps bundles and re-enters. A failed load is a typed error to the
//! requesting client and nothing else changes — reload is atomic.
//!
//! # Failure containment
//!
//! * A malformed frame is a typed [`ProtoError`] response and a closed
//!   connection — never a panic (`tests/proto_fuzz.rs`).
//! * A panicking connection handler is caught, counted, and closes only
//!   its own socket.
//! * A panicking diagnosis is caught by the `m3d_par` `try_*`
//!   containment: the poisoned request gets a typed `internal` error and
//!   its worker goes on to the next job.
//! * A request past its budget is answered with `DeadlineExceeded`:
//!   unscored if it expired while queued, and from mid-score once the
//!   scoring loops see its deadline pass.
//!
//! The invariant the service tests pin down: for every well-formed
//! request, the served report is bit-identical to an offline
//! [`Diagnoser::diagnose`] run — at any pool width, under any chaos
//! schedule.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, ScopedJoinHandle};
use std::time::{Duration, Instant};

use m3d_diagnosis::{Cancelled, Diagnoser, DiagnosisConfig};
use m3d_obs::SloSpec;
use m3d_tdf::{read_failure_log, FailureLog, FaultSim};

use crate::admission::{Admission, AdmissionConfig, Job};
use crate::artifacts::{ArtifactBundle, BundleSpec};
use crate::proto::{
    encode_frame, wire_candidates, Decoder, ProtoError, Request, Response, StatsSnapshot,
};
use crate::telemetry::{self, TelemetryConfig};

/// How long a connection's reader blocks on the socket before it looks at
/// the exit flags and the slow-writer clock again, and how long a write
/// to a client that is not reading blocks before the writer looks at the
/// exit flag. Replies never wait on it: the connection's writer sends
/// each one as soon as it is ready.
const READ_TICK: Duration = Duration::from_millis(5);

/// Stack of a connection's writer thread, which only encodes and writes
/// frames.
const WRITER_STACK: usize = 64 * 1024;

/// Most replies a connection may owe before its reader stops reading
/// requests. Every request frame earns exactly one reply, so the reader
/// owes one per frame it dispatched until the writer has written it. A
/// client that never reads fills its socket, its writer blocks, and its
/// further requests then wait in the kernel instead of queueing replies
/// in server memory.
const MAX_OWED: usize = 64;

/// Server configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Scoring workers, each taking one job at a time; also the `m3d_par`
    /// pool width one job's scoring may fan out to.
    pub pool_width: usize,
    /// Admission / scheduling knobs.
    pub admission: AdmissionConfig,
    /// A *partial* frame older than this is a slow-writer attack: the
    /// connection gets a typed protocol error and is closed. Idle
    /// connections at a frame boundary are unaffected. Once a shutdown or
    /// reload has begun, a reply that has not moved for this long closes
    /// its connection too, so a client that never reads cannot stall it.
    pub frame_timeout_ms: u64,
    /// Chaos hook: every Nth admitted job panics inside its diagnosis
    /// worker (`None` in production). Drives the panic-containment tests.
    pub chaos_panic_every: Option<u64>,
    /// Bind address for the telemetry exporter (`None` disables it;
    /// `127.0.0.1:0` picks a free port). See [`crate::telemetry`].
    pub telemetry_addr: Option<String>,
    /// Directory for flight-recorder dumps (`None` disables dumping).
    /// Panics, frame poison, deadline storms, and shutdown each leave a
    /// `flight-*.jsonl` artifact here via the atomic-write path.
    pub flight_dir: Option<PathBuf>,
    /// SLO spec evaluated by the exporter, e.g.
    /// `availability>=0.99,p99_ms<=250,degraded_frac<=0.1`.
    pub slo: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            pool_width: 1,
            admission: AdmissionConfig::default(),
            frame_timeout_ms: 2_000,
            chaos_panic_every: None,
            telemetry_addr: None,
            flight_dir: None,
            slo: None,
        }
    }
}

/// Monotonic service counters, shared across generations.
#[derive(Debug, Default)]
struct Counters {
    generation: AtomicU64,
    completed: AtomicU64,
    degraded: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    protocol_errors: AtomicU64,
    panics_contained: AtomicU64,
    connections: AtomicU64,
}

impl Counters {
    fn bump(&self, field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, queue_depth: u64) -> StatsSnapshot {
        StatsSnapshot {
            generation: self.generation.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            queue_depth,
        }
    }
}

/// What a server run amounted to, returned after shutdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeSummary {
    /// Artifact generations served (1 + reloads).
    pub generations: u64,
    /// Final counter values.
    pub stats: StatsSnapshot,
}

/// A server running on a background thread (the in-process mode the load
/// harness and the service tests use).
pub struct RunningServer {
    addr: SocketAddr,
    telemetry_addr: Option<SocketAddr>,
    join: thread::JoinHandle<Result<ServeSummary, String>>,
}

impl RunningServer {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The telemetry exporter's bound address, when one was configured.
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.telemetry_addr
    }

    /// Waits for the server to shut down (send it a `shutdown` request).
    ///
    /// # Errors
    ///
    /// The server's fatal error, if it died instead of draining.
    pub fn join(self) -> Result<ServeSummary, String> {
        self.join
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

/// Binds and serves on the calling thread until a `shutdown` request.
///
/// # Errors
///
/// Bind or initial artifact-load failure.
pub fn serve(spec: &BundleSpec, cfg: &ServeConfig) -> Result<ServeSummary, String> {
    let listener = bind(cfg)?;
    let telemetry_listener = bind_telemetry_opt(cfg)?;
    serve_on(listener, telemetry_listener, spec, cfg)
}

/// Spawns a server on a background thread, returning once it is bound and
/// accepting.
///
/// # Errors
///
/// Bind failure (artifact-load failures surface through
/// [`RunningServer::join`]).
pub fn spawn_server(spec: &BundleSpec, cfg: &ServeConfig) -> Result<RunningServer, String> {
    let listener = bind(cfg)?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let telemetry_listener = bind_telemetry_opt(cfg)?;
    let telemetry_addr = match &telemetry_listener {
        Some(l) => Some(l.local_addr().map_err(|e| e.to_string())?),
        None => None,
    };
    let spec = spec.clone();
    let cfg = cfg.clone();
    let join = thread::Builder::new()
        .name("m3d-serve".into())
        .spawn(move || serve_on(listener, telemetry_listener, &spec, &cfg))
        .map_err(|e| e.to_string())?;
    Ok(RunningServer {
        addr,
        telemetry_addr,
        join,
    })
}

fn bind(cfg: &ServeConfig) -> Result<TcpListener, String> {
    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("binding {}: {e}", cfg.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking listener: {e}"))?;
    Ok(listener)
}

fn bind_telemetry_opt(cfg: &ServeConfig) -> Result<Option<TcpListener>, String> {
    cfg.telemetry_addr
        .as_deref()
        .map(telemetry::bind_telemetry)
        .transpose()
}

fn serve_on(
    listener: TcpListener,
    telemetry_listener: Option<TcpListener>,
    spec: &BundleSpec,
    cfg: &ServeConfig,
) -> Result<ServeSummary, String> {
    let slo = match &cfg.slo {
        Some(text) => SloSpec::parse(text).map_err(|e| format!("bad --slo spec: {e}"))?,
        None => SloSpec::default(),
    };
    let mut bundle = ArtifactBundle::load(spec)?;
    let counters = Arc::new(Counters::default());
    let shutdown = Arc::new(AtomicBool::new(false));

    // The telemetry plane needs metrics; a plain server run should not
    // start accumulating an unbounded trace. Leave everything alone when
    // the operator already enabled recording (e.g. `--trace`).
    if telemetry_listener.is_some() || cfg.flight_dir.is_some() {
        if !m3d_obs::enabled() {
            m3d_obs::set_enabled(true);
            m3d_obs::set_trace_enabled(false);
        }
        m3d_obs::set_flight_enabled(true);
    }
    let telemetry_join = telemetry_listener.map(|tl| {
        let c = Arc::clone(&counters);
        telemetry::spawn_telemetry(
            tl,
            Arc::new(move || c.snapshot(0)),
            TelemetryConfig {
                slo,
                flight_dir: cfg.flight_dir.clone(),
                storm_per_s: telemetry::STORM_PER_S,
            },
            Arc::clone(&shutdown),
        )
    });

    let mut generations = 0u64;
    loop {
        generations += 1;
        counters.generation.store(generations, Ordering::Relaxed);
        let next = run_generation(&listener, &bundle, spec, cfg, &counters, &shutdown);
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        match next {
            Some(fresh) => bundle = fresh,
            // Generation ended without a successor or a shutdown — only
            // reachable if every exit path raced; treat as shutdown.
            None => break,
        }
    }
    shutdown.store(true, Ordering::Relaxed);
    if let Some(j) = telemetry_join {
        let _ = j.join();
    }
    // The drain-path stand-in for a SIGTERM handler (std offers no signal
    // API): a protocol `shutdown` lands here and leaves a final dump.
    if let Some(dir) = &cfg.flight_dir {
        let _ = telemetry::dump_flight(dir, "shutdown");
    }
    Ok(ServeSummary {
        generations,
        stats: counters.snapshot(0),
    })
}

/// Everything a connection handler borrows from its generation.
struct GenCtx<'g> {
    spec: &'g BundleSpec,
    cfg: &'g ServeConfig,
    counters: &'g Counters,
    shutdown: &'g AtomicBool,
    gen_exit: &'g AtomicBool,
    pending_bundle: &'g Mutex<Option<ArtifactBundle>>,
    admission: &'g Admission,
    active_conns: &'g AtomicUsize,
}

/// Runs one generation to completion; returns the next bundle on reload.
fn run_generation(
    listener: &TcpListener,
    bundle: &ArtifactBundle,
    spec: &BundleSpec,
    cfg: &ServeConfig,
    counters: &Counters,
    shutdown: &AtomicBool,
) -> Option<ArtifactBundle> {
    let fsim = bundle.env.fault_sim();
    let diagnoser = Diagnoser::new(
        &fsim,
        &bundle.env.scan,
        bundle.mode,
        DiagnosisConfig::default(),
    );
    let admission = Admission::new(cfg.admission);
    let gen_exit = AtomicBool::new(false);
    let pending_bundle = Mutex::new(None);
    let active_conns = AtomicUsize::new(0);
    let ctx = GenCtx {
        spec,
        cfg,
        counters,
        shutdown,
        gen_exit: &gen_exit,
        pending_bundle: &pending_bundle,
        admission: &admission,
        active_conns: &active_conns,
    };

    thread::scope(|s| {
        for _ in 0..cfg.pool_width.max(1) {
            s.spawn(|| run_worker(&ctx, &diagnoser, bundle, &fsim));
        }

        // Acceptor: polls the nonblocking listener so it can observe the
        // exit flags (std offers no unblockable accept).
        loop {
            if gen_exit.load(Ordering::Relaxed) || shutdown.load(Ordering::Relaxed) {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let conn_id = counters.connections.fetch_add(1, Ordering::Relaxed) + 1;
                    m3d_obs::counter("serve.connections", 1);
                    active_conns.fetch_add(1, Ordering::Relaxed);
                    let ctx = &ctx;
                    let spawned = thread::Builder::new()
                        .name("m3d-serve-conn".into())
                        .stack_size(256 * 1024)
                        .spawn_scoped(s, move || {
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                handle_conn(stream, ctx, conn_id)
                            }));
                            if result.is_err() {
                                // The handler panicked: contained here, so
                                // one poisoned connection cannot take the
                                // process (or its siblings) down.
                                ctx.counters.bump(&ctx.counters.panics_contained);
                                m3d_obs::counter("serve.panics_contained", 1);
                            }
                            ctx.active_conns.fetch_sub(1, Ordering::Relaxed);
                        });
                    if let Err(e) = spawned {
                        spawn_failed(&format!("conn-{conn_id}"), "reader", &e);
                        active_conns.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(_) => thread::sleep(Duration::from_millis(5)),
            }
        }
        // The scope now joins the workers and every live connection
        // handler before the borrows of `bundle` end.
    });

    let next = pending_bundle.lock().expect("pending bundle").take();
    next
}

/// A scoring worker: takes the oldest admitted job, answers it unscored if
/// its deadline has passed, and scores it otherwise. Returns once the
/// generation winds down and no handler is left to admit another job; a
/// handler ends only after every job it admitted has replied, so none is
/// left queued.
fn run_worker(
    ctx: &GenCtx<'_>,
    diagnoser: &Diagnoser<'_>,
    bundle: &ArtifactBundle,
    fsim: &FaultSim<'_>,
) {
    let width = ctx.cfg.pool_width.max(1);
    loop {
        let Some(job) = ctx.admission.take(Duration::from_millis(10)) else {
            if ctx.gen_exit.load(Ordering::Relaxed) && ctx.active_conns.load(Ordering::Relaxed) == 0
            {
                return;
            }
            continue;
        };
        let resp = if Instant::now() >= job.deadline {
            deadline_exceeded(&job)
        } else {
            // A one-job map runs inline on this thread, so the job's own
            // scoring can still fan out to `width` threads, and a panic in
            // it is contained to this job.
            let scored = m3d_par::with_threads(width, || {
                m3d_par::try_par_map(std::slice::from_ref(&job), |job| {
                    run_job(job, ctx, diagnoser, bundle, fsim)
                })
            });
            match scored {
                Ok(mut responses) => responses.pop().expect("one job in, one response out"),
                Err(p) => contained_panic(&job, &p, ctx),
            }
        };
        finish_job(&job, resp, ctx);
    }
}

/// Accounts for a panic contained while scoring `job`, and returns the
/// typed `internal` error that answers it.
fn contained_panic(job: &Job, p: &m3d_par::WorkerPanic, ctx: &GenCtx<'_>) -> Response {
    ctx.counters.bump(&ctx.counters.panics_contained);
    m3d_obs::counter("serve.panics_contained", 1);
    m3d_obs::counter("serve.internal_errors", 1);
    m3d_obs::flight_record(
        "serve",
        "panic_contained",
        format!("id={} seq={}: {}", job.id, job.seq, p.message),
    );
    // A contained worker panic is exactly what the flight recorder exists
    // for: dump unconditionally, one artifact per poisoned sequence number.
    if let Some(dir) = &ctx.cfg.flight_dir {
        let _ = telemetry::dump_flight(dir, &format!("panic-seq{}", job.seq));
    }
    Response::Error {
        id: Some(job.id),
        kind: "internal".into(),
        message: format!("diagnosis worker panicked: {}", p.message),
    }
}

/// The answer to a job whose budget ran out.
fn deadline_exceeded(job: &Job) -> Response {
    Response::DeadlineExceeded {
        id: job.id,
        budget_ms: job.budget_ms,
    }
}

/// Scores one job inside a pool worker. Runs under `try_par_map`, so a
/// panic here (chaos hook included) is contained per job.
fn run_job(
    job: &Job,
    ctx: &GenCtx<'_>,
    diagnoser: &Diagnoser<'_>,
    bundle: &ArtifactBundle,
    fsim: &FaultSim<'_>,
) -> Response {
    let mut sp = m3d_obs::span("serve_request");
    sp.add("entries", job.log.len() as u64);
    // Recorded *before* the chaos panic point, so a worker that dies here
    // leaves the identity of the request that killed it in the ring.
    m3d_obs::flight_record(
        "pool",
        "job",
        format!("id={} seq={} entries={}", job.id, job.seq, job.log.len()),
    );
    if let Some(every) = ctx.cfg.chaos_panic_every {
        if every > 0 && job.seq.is_multiple_of(every) {
            panic!("chaos: injected worker panic (seq {})", job.seq);
        }
    }
    // The budget covers enhancement too.
    let report = match diagnoser.try_diagnose(&job.log, Some(job.deadline)) {
        Ok(report) if Instant::now() < job.deadline => report,
        Ok(_) | Err(Cancelled) => return deadline_exceeded(job),
    };
    let (report, enhanced, action) = if job.degrade {
        // Shedding rung two: admitted past the watermark, so the optional
        // enhancement stage is skipped and the baseline ranking is served,
        // tagged so the client knows it may retry later for the full path.
        let mut r = report;
        r.mark_degraded();
        sp.add("shed_degraded", 1);
        (r, false, None)
    } else {
        match (&bundle.localizer, job.no_enhance) {
            (Some(loc), false) => {
                let sample = bundle.sample_for(fsim, &job.log);
                let outcome = loc.enhance(&bundle.env.design, &report, &sample);
                let action = outcome.action.wire_name().to_string();
                (outcome.report, true, Some(action))
            }
            _ => (report, false, None),
        }
    };
    Response::Report {
        id: job.id,
        degraded: report.degraded(),
        enhanced,
        action,
        text: report.to_string(),
        candidates: wire_candidates(&report),
    }
}

/// Accounts for a finished job and hands its response to the connection.
fn finish_job(job: &Job, resp: Response, ctx: &GenCtx<'_>) {
    match &resp {
        Response::Report { degraded, .. } => {
            ctx.counters.bump(&ctx.counters.completed);
            m3d_obs::counter("serve.completed", 1);
            if *degraded {
                ctx.counters.bump(&ctx.counters.degraded);
                m3d_obs::counter("serve.degraded", 1);
            }
        }
        Response::DeadlineExceeded { .. } => {
            ctx.counters.bump(&ctx.counters.deadline_exceeded);
            m3d_obs::counter("serve.deadline_exceeded", 1);
        }
        _ => {}
    }
    m3d_obs::observe_with(
        "serve.latency_ms",
        &m3d_obs::LATENCY_MS_BOUNDS,
        job.enqueued.elapsed().as_secs_f64() * 1e3,
    );
    // The handler (and its client) may already be gone — that is its
    // problem, not the worker's.
    let _ = job.reply.send(resp);
}

/// One connection: this thread reads and dispatches frames, and a writer
/// thread of its own writes every response. Returns once both are done.
fn handle_conn(stream: TcpStream, ctx: &GenCtx<'_>, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let (replies, reply_rx) = channel::<Response>();
    let written = &AtomicUsize::new(0);
    thread::scope(|s| {
        let writer = stream.try_clone().and_then(|out| {
            thread::Builder::new()
                .name("m3d-serve-write".into())
                .stack_size(WRITER_STACK)
                .spawn_scoped(s, move || write_replies(out, reply_rx, written, ctx))
        });
        match writer {
            Ok(writer) => read_requests(stream, ctx, conn_id, replies, written, &writer),
            Err(e) => spawn_failed(&format!("conn-{conn_id}"), "writer", &e),
        }
    });
}

/// Counts and records a thread the server could not start (most likely a
/// thread limit under many connections); its connection closes unanswered.
fn spawn_failed(source: &str, thread: &str, err: &std::io::Error) {
    m3d_obs::counter("serve.spawn_failures", 1);
    m3d_obs::flight_record(source, "spawn_failed", format!("{thread}: {err}"));
}

/// The connection's only writer: each response is written the moment it
/// arrives, in arrival order, and counted in `written`. Returns when the
/// client goes away or stalls a winding-down generation (see
/// [`write_reply`]), or when every sender is gone: the reader has stopped
/// and no admitted job is outstanding, so dropping `out` closes the
/// connection.
fn write_replies(
    mut out: TcpStream,
    replies: Receiver<Response>,
    written: &AtomicUsize,
    ctx: &GenCtx<'_>,
) {
    let _ = out.set_write_timeout(Some(READ_TICK));
    for resp in replies {
        if write_reply(&mut out, &encode_frame(&resp.encode()), ctx).is_err() {
            return; // client went away; remaining replies are moot
        }
        written.fetch_add(1, Ordering::Relaxed);
    }
}

/// Writes one whole frame. While the generation is live, it waits for as
/// long as the client takes to read. Once the generation winds down, it
/// gives up after `frame_timeout_ms` without progress, so a client that
/// never reads cannot hold a shutdown or a reload open.
fn write_reply(out: &mut TcpStream, mut frame: &[u8], ctx: &GenCtx<'_>) -> std::io::Result<()> {
    let mut stalled_since: Option<Instant> = None;
    while !frame.is_empty() {
        match out.write(frame) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                frame = &frame[n..];
                stalled_since = None;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                let since = *stalled_since.get_or_insert_with(Instant::now);
                if ctx.gen_exit.load(Ordering::Relaxed)
                    && since.elapsed() >= Duration::from_millis(ctx.cfg.frame_timeout_ms)
                {
                    return Err(e);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The connection's reader: decodes frames and dispatches them until the
/// client closes, a frame is rejected, or the generation winds down. It
/// never writes, and it stops reading while the connection owes more than
/// [`MAX_OWED`] replies. Once it returns, its sender is gone and only
/// admitted jobs hold one, so the writer ends after the last outstanding
/// reply.
fn read_requests(
    mut stream: TcpStream,
    ctx: &GenCtx<'_>,
    conn_id: u64,
    replies: Sender<Response>,
    written: &AtomicUsize,
    writer: &ScopedJoinHandle<'_, ()>,
) {
    let mut dec = Decoder::new();
    let mut chunk = [0u8; 4096];
    let mut partial_since: Option<Instant> = None;
    // Counted before each dispatch, so it never trails `written`.
    let mut owed = 0usize;

    while !ctx.gen_exit.load(Ordering::Relaxed) {
        if owed - written.load(Ordering::Relaxed) > MAX_OWED {
            // Backpressure: the client is not taking its replies. Leave
            // its requests unread until the writer catches up, or stop
            // once the writer has given up on the socket.
            if writer.is_finished() {
                return;
            }
            thread::sleep(READ_TICK);
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if dec.has_partial() {
                    // Mid-frame disconnect: a truncated frame.
                    ctx.counters.bump(&ctx.counters.protocol_errors);
                    m3d_obs::counter("serve.protocol_errors", 1);
                    m3d_obs::flight_record(
                        &format!("conn-{conn_id}"),
                        "reject",
                        "mid-frame disconnect",
                    );
                }
                return;
            }
            Ok(n) => {
                dec.push(&chunk[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(frame)) => {
                            partial_since = None;
                            owed += 1;
                            if !handle_frame(&frame, ctx, &replies, conn_id) {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            protocol_reject(&replies, ctx, &e, conn_id);
                            return;
                        }
                    }
                }
                if dec.has_partial() {
                    partial_since.get_or_insert_with(Instant::now);
                } else {
                    partial_since = None;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle tick. A *partial* frame that has stopped making
                // progress for longer than the frame timeout is a
                // slow-writer (slowloris) attack: reject and close.
                if let Some(since) = partial_since {
                    if since.elapsed() >= Duration::from_millis(ctx.cfg.frame_timeout_ms) {
                        protocol_reject(&replies, ctx, &ProtoError::Timeout, conn_id);
                        return;
                    }
                }
            }
            Err(_) => return,
        }
    }
}

/// Counts and reports a protocol violation (best-effort) before the
/// caller closes the connection.
fn protocol_reject(replies: &Sender<Response>, ctx: &GenCtx<'_>, err: &ProtoError, conn_id: u64) {
    ctx.counters.bump(&ctx.counters.protocol_errors);
    m3d_obs::counter("serve.protocol_errors", 1);
    m3d_obs::flight_record(&format!("conn-{conn_id}"), "reject", err.to_string());
    // Frame poison is a dump trigger, rate-limited so a hostile client
    // spraying garbage cannot turn the recorder into a disk-filler.
    if let Some(dir) = &ctx.cfg.flight_dir {
        let _ = telemetry::dump_flight_limited(dir, "poison", Duration::from_millis(500));
    }
    let _ = replies.send(Response::Error {
        id: None,
        kind: "protocol".into(),
        message: err.to_string(),
    });
}

/// Dispatches one parsed frame; returns `false` when the connection must
/// close (protocol violation, server wind-down, or a writer that stopped
/// on a dead socket).
fn handle_frame(frame: &str, ctx: &GenCtx<'_>, replies: &Sender<Response>, conn_id: u64) -> bool {
    let req = match Request::parse(frame) {
        Ok(req) => req,
        Err(e) => {
            protocol_reject(replies, ctx, &e, conn_id);
            return false;
        }
    };
    match req {
        Request::Ping { id } => replies
            .send(Response::Pong {
                id,
                generation: ctx.counters.generation.load(Ordering::Relaxed),
            })
            .is_ok(),
        Request::Stats { id } => {
            let snapshot = ctx.counters.snapshot(ctx.admission.depth() as u64);
            replies.send(Response::Stats { id, snapshot }).is_ok()
        }
        Request::Shutdown { id } => {
            m3d_obs::flight_record(
                "serve",
                "shutdown",
                format!("drain requested by conn-{conn_id}"),
            );
            ctx.shutdown.store(true, Ordering::Relaxed);
            ctx.gen_exit.store(true, Ordering::Relaxed);
            let _ = replies.send(Response::ShuttingDown { id });
            false
        }
        Request::Reload { id } => {
            // Load and validate the *new* bundle before anything changes;
            // the current generation keeps serving while this runs.
            match ArtifactBundle::load(ctx.spec) {
                Ok(fresh) => {
                    *ctx.pending_bundle.lock().expect("pending bundle") = Some(fresh);
                    ctx.gen_exit.store(true, Ordering::Relaxed);
                    let _ = replies.send(Response::Reloaded {
                        id,
                        generation: ctx.counters.generation.load(Ordering::Relaxed) + 1,
                    });
                    false
                }
                Err(message) => replies
                    .send(Response::Error {
                        id: Some(id),
                        kind: "reload_failed".into(),
                        message,
                    })
                    .is_ok(),
            }
        }
        Request::Diagnose {
            id,
            log,
            deadline_ms,
            no_enhance,
        } => {
            let log: FailureLog = match read_failure_log(&log) {
                Ok(log) => log,
                Err(e) => {
                    // A well-framed request with an unreadable log is a
                    // client data error, not a protocol violation: answer
                    // typed and keep the connection.
                    return replies
                        .send(Response::Error {
                            id: Some(id),
                            kind: "bad_log".into(),
                            message: e.to_string(),
                        })
                        .is_ok();
                }
            };
            match ctx
                .admission
                .admit(id, log, deadline_ms, no_enhance, replies.clone())
            {
                Ok(()) => {
                    m3d_obs::flight_record(
                        &format!("conn-{conn_id}"),
                        "admit",
                        format!("id={id} deadline_ms={}", deadline_ms.unwrap_or(0)),
                    );
                    true
                }
                Err(resp) => {
                    if matches!(resp, Response::Overloaded { .. }) {
                        ctx.counters.bump(&ctx.counters.overloaded);
                        m3d_obs::counter("serve.overloaded", 1);
                    }
                    replies.send(resp).is_ok()
                }
            }
        }
    }
}
