//! Service-level tests: the chaos invariant, hot reload, typed overload
//! and deadline outcomes, the shed ladder, pipelined requests, and
//! shutdown drain.
//!
//! The invariant everything here defends: for every well-formed request,
//! the served report is **bit-identical** to an offline
//! [`Diagnoser::diagnose`] run — at any pool width, under any chaos
//! schedule. Infrastructure failure is only ever visible as a typed
//! protocol outcome.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use m3d_diagnosis::{Diagnoser, DiagnosisConfig};
use m3d_fault_localization::{try_generate_samples, InjectionKind};
use m3d_netlist::generate::Benchmark;
use m3d_serve::proto::{encode_frame, read_frame, write_frame, Decoder, Request, Response};
use m3d_serve::{
    run_load, spawn_server, AdmissionConfig, ArtifactBundle, BundleSource, BundleSpec, LoadConfig,
    ServeConfig,
};
use m3d_tdf::{read_failure_log, write_failure_log, FailureLog};

fn spec(target: usize, enhance_samples: usize) -> BundleSpec {
    BundleSpec {
        source: BundleSource::Generated {
            bench: Benchmark::Aes,
            target: Some(target),
        },
        enhance_samples,
        epochs: 2,
        ..BundleSpec::default()
    }
}

/// A leon3mp bundle without models: its multi-fault logs keep a scoring
/// worker busy for milliseconds (`target` 6,000) to tens of milliseconds
/// (30,000) in a release build.
fn leon3mp_spec(target: usize) -> BundleSpec {
    BundleSpec {
        source: BundleSource::Generated {
            bench: Benchmark::Leon3mp,
            target: Some(target),
        },
        enhance_samples: 0,
        ..BundleSpec::default()
    }
}

fn cfg_with(admission: AdmissionConfig) -> ServeConfig {
    ServeConfig {
        admission,
        ..ServeConfig::default()
    }
}

/// A minimal framed test client.
struct Client {
    stream: TcpStream,
    dec: Decoder,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        // Generous: the server may still be building artifacts in a debug
        // build when the first request lands.
        stream
            .set_read_timeout(Some(Duration::from_secs(300)))
            .expect("timeout");
        Client {
            stream,
            dec: Decoder::new(),
        }
    }

    fn send(&mut self, req: &Request) {
        write_frame(&mut self.stream, &req.encode()).expect("send");
    }

    fn recv(&mut self) -> Response {
        let line = read_frame(&mut self.stream, &mut self.dec)
            .expect("read frame")
            .expect("response before EOF");
        Response::parse(&line).expect("parse response")
    }

    fn call(&mut self, req: &Request) -> Response {
        self.send(req);
        self.recv()
    }
}

/// One synthetic failure log plus its offline expected reports.
struct Offline {
    log_text: String,
    plain_text: String,
    shed_text: String,
    /// Whether a candidate explains the log perfectly (the single-fault
    /// ranking ran, not the multi-fault cover).
    perfect: bool,
}

/// Computes the offline ground truth the served reports must match, for
/// `n` chips with `kind` faults.
fn offline_chips(spec: &BundleSpec, kind: InjectionKind, n: usize) -> Vec<Offline> {
    let bundle = ArtifactBundle::load(spec).expect("offline bundle");
    let fsim = bundle.env.fault_sim();
    let diagnoser = Diagnoser::new(
        &fsim,
        &bundle.env.scan,
        bundle.mode,
        DiagnosisConfig::default(),
    );
    try_generate_samples(&bundle.env, &fsim, bundle.mode, kind, n, 0xBEEF)
        .expect("samples")
        .iter()
        .map(|sample| {
            let plain = diagnoser.diagnose(&sample.log);
            let mut shed = plain.clone();
            shed.mark_degraded();
            Offline {
                log_text: write_failure_log(&sample.log),
                plain_text: plain.to_string(),
                shed_text: shed.to_string(),
                perfect: plain.candidates().iter().any(|c| c.score.is_perfect()),
            }
        })
        .collect()
}

/// [`offline_chips`] for one chip.
fn offline_expected(spec: &BundleSpec, kind: InjectionKind) -> Offline {
    offline_chips(spec, kind, 1).pop().expect("one chip")
}

/// The tentpole invariant, end to end: ≥ 48 chaos-ridden client sessions
/// per pool width, every served report bit-compared against the offline
/// diagnosis, worker panics injected and contained, zero crashed clean
/// connections.
#[test]
fn served_reports_match_offline_at_any_width_under_chaos() {
    let cfg = LoadConfig {
        spec: spec(220, 6),
        clients: 24,
        requests_per_client: 2,
        widths: vec![1, 4],
        chaos_seed: 7,
        chaos_rate: 0.35,
        deadline_ms: None,
        log_pool: 6,
        server_panic_every: Some(5),
        admission: AdmissionConfig::default(),
        frame_timeout_ms: 200,
        ..LoadConfig::default()
    };
    let report = run_load(&cfg).expect("load run");
    for w in &report.widths {
        assert_eq!(
            w.crashed_connections, 0,
            "width {}: clean connections crashed",
            w.width
        );
        assert_eq!(
            w.mismatches, 0,
            "width {}: served report diverged from offline: {:?}",
            w.width, w.first_mismatch
        );
        assert!(w.completed > 0, "width {}: nothing completed", w.width);
    }
    let panics: u64 = report.widths.iter().map(|w| w.panics_contained).sum();
    assert!(panics > 0, "the chaos panic hook never fired");
    assert!(report.clean());
}

/// Hot reload is a generation swap: the reloading client gets a typed ack
/// naming the new generation, fresh connections see it, and diagnoses stay
/// bit-identical across the swap. Shutdown then drains cleanly.
#[test]
fn reload_swaps_generations_and_preserves_reports() {
    let spec = spec(200, 0);
    let offline = offline_expected(&spec, InjectionKind::Single);
    let server = spawn_server(&spec, &ServeConfig::default()).expect("spawn");
    let addr = server.addr();

    let mut c = Client::connect(addr);
    match c.call(&Request::Ping { id: 1 }) {
        Response::Pong { generation, .. } => assert_eq!(generation, 1),
        other => panic!("expected pong, got {other:?}"),
    }
    match c.call(&Request::Diagnose {
        id: 2,
        log: offline.log_text.clone(),
        deadline_ms: None,
        no_enhance: false,
    }) {
        Response::Report {
            text,
            degraded,
            enhanced,
            ..
        } => {
            assert_eq!(text, offline.plain_text, "generation 1 diverged");
            assert!(!degraded && !enhanced);
        }
        other => panic!("expected report, got {other:?}"),
    }
    match c.call(&Request::Reload { id: 3 }) {
        Response::Reloaded { generation, .. } => assert_eq!(generation, 2),
        other => panic!("expected reloaded, got {other:?}"),
    }

    // The reloading connection closes; the swapped generation serves new
    // ones, bit-identically (same spec → same bundle).
    let mut c = Client::connect(addr);
    match c.call(&Request::Ping { id: 4 }) {
        Response::Pong { generation, .. } => assert_eq!(generation, 2),
        other => panic!("expected pong, got {other:?}"),
    }
    match c.call(&Request::Diagnose {
        id: 5,
        log: offline.log_text.clone(),
        deadline_ms: None,
        no_enhance: false,
    }) {
        Response::Report { text, .. } => assert_eq!(text, offline.plain_text, "reload diverged"),
        other => panic!("expected report, got {other:?}"),
    }

    let mut c = Client::connect(addr);
    match c.call(&Request::Shutdown { id: 6 }) {
        Response::ShuttingDown { id } => assert_eq!(id, 6),
        other => panic!("expected shutting_down, got {other:?}"),
    }
    let summary = server.join().expect("clean shutdown");
    assert_eq!(summary.generations, 2);
    assert_eq!(summary.stats.completed, 2);
}

/// A burst into a capacity-1 queue: most requests are refused with typed
/// `Overloaded` (with a backoff hint), the rest complete bit-identically —
/// nothing hangs, nothing is silently dropped.
#[test]
fn full_queues_refuse_with_typed_backpressure() {
    let spec = spec(200, 0);
    let offline = offline_expected(&spec, InjectionKind::Single);
    let server = spawn_server(
        &spec,
        &cfg_with(AdmissionConfig {
            queue_capacity: 1,
            shed_watermark: 1,
            ..AdmissionConfig::default()
        }),
    )
    .expect("spawn");

    let mut c = Client::connect(server.addr());
    const BURST: u64 = 30;
    for id in 0..BURST {
        c.send(&Request::Diagnose {
            id,
            log: offline.log_text.clone(),
            deadline_ms: None,
            no_enhance: false,
        });
    }
    let (mut reports, mut overloaded) = (0u64, 0u64);
    for _ in 0..BURST {
        match c.recv() {
            Response::Report { text, .. } => {
                // Above the watermark the report is the shed (degraded)
                // baseline; below it, the plain one. Both must be
                // bit-identical to their offline variant.
                assert!(
                    text == offline.plain_text || text == offline.shed_text,
                    "burst report diverged from offline:\n{text}"
                );
                reports += 1;
            }
            Response::Overloaded { retry_after_ms, .. } => {
                assert!(retry_after_ms >= 10, "hint must scale from the base");
                overloaded += 1;
            }
            Response::DeadlineExceeded { .. } => {}
            other => panic!("untyped outcome in a burst: {other:?}"),
        }
    }
    assert!(
        overloaded > 0,
        "a capacity-1 queue must refuse some of {BURST}"
    );
    assert!(reports > 0, "admitted requests must still complete");

    let mut c = Client::connect(server.addr());
    c.call(&Request::Shutdown { id: 99 });
    server.join().expect("clean shutdown");
}

/// Requests carrying a 1 ms budget against a serial queue (one worker):
/// jobs expire while queued or mid-scoring and are answered with typed
/// `DeadlineExceeded` echoing the budget — never a hang, never a stale
/// report after cancellation.
///
/// The log is a multi-fault chip's that no single candidate explains, so
/// its diagnosis runs the phase-2 cover and scores every suspect; a
/// single-fault log skips most of its suspects and can finish a 20-deep
/// burst before any 1 ms budget expires.
#[test]
fn expired_budgets_are_typed_deadline_exceeded() {
    let spec = spec(200, 0);
    let offline = offline_expected(&spec, InjectionKind::MultiSameTier);
    assert!(
        !offline.perfect,
        "the log must reach the cover: no candidate explains it perfectly"
    );
    let server = spawn_server(
        &spec,
        &cfg_with(AdmissionConfig {
            queue_capacity: 64,
            shed_watermark: 64,
            ..AdmissionConfig::default()
        }),
    )
    .expect("spawn");

    let mut c = Client::connect(server.addr());
    const BURST: u64 = 20;
    for id in 0..BURST {
        c.send(&Request::Diagnose {
            id,
            log: offline.log_text.clone(),
            deadline_ms: Some(1),
            no_enhance: false,
        });
    }
    let mut expired = 0u64;
    for _ in 0..BURST {
        match c.recv() {
            Response::DeadlineExceeded { budget_ms, .. } => {
                assert_eq!(budget_ms, 1, "the response echoes the budget");
                expired += 1;
            }
            Response::Report { text, .. } => {
                assert_eq!(text, offline.plain_text, "pre-deadline report diverged");
            }
            Response::Overloaded { .. } => {}
            other => panic!("untyped outcome: {other:?}"),
        }
    }
    assert!(
        expired > 0,
        "1 ms budgets behind a serial queue must expire some of {BURST}"
    );

    let mut c = Client::connect(server.addr());
    c.call(&Request::Shutdown { id: 99 });
    server.join().expect("clean shutdown");
}

/// The shed ladder's middle rung: with the watermark at zero every
/// admitted request skips enhancement and serves the baseline ranking
/// tagged `degraded` — bit-identical to the offline baseline, never a
/// half-enhanced hybrid.
#[test]
fn shed_requests_serve_the_degraded_baseline() {
    let spec = spec(220, 6);
    let offline = offline_expected(&spec, InjectionKind::Single);
    let server = spawn_server(
        &spec,
        &cfg_with(AdmissionConfig {
            shed_watermark: 0,
            ..AdmissionConfig::default()
        }),
    )
    .expect("spawn");

    let mut c = Client::connect(server.addr());
    match c.call(&Request::Diagnose {
        id: 1,
        log: offline.log_text.clone(),
        deadline_ms: None,
        no_enhance: false,
    }) {
        Response::Report {
            degraded,
            enhanced,
            action,
            text,
            ..
        } => {
            assert!(degraded, "shed reports carry the degraded tag");
            assert!(!enhanced, "shedding skips the enhancement stage");
            assert_eq!(action, None);
            assert_eq!(text, offline.shed_text, "shed report diverged from offline");
        }
        other => panic!("expected report, got {other:?}"),
    }

    c.call(&Request::Shutdown { id: 2 });
    let summary = server.join().expect("clean shutdown");
    assert_eq!(summary.stats.degraded, 1);
}

/// A log entry naming a pattern and a scan cell that do not exist (an
/// untrusted tester datalog) degrades the report on the enhanced path too:
/// the served report is the offline enhanced report of the sanitized
/// diagnosis, tagged `degraded`, and no worker panics.
#[test]
fn junk_log_entries_serve_a_degraded_enhanced_report() {
    let spec = spec(220, 6);
    let offline = offline_expected(&spec, InjectionKind::Single);
    let log_text = format!(
        "{}fail pattern 4294967295 flop 4294967295\n",
        offline.log_text
    );

    let server = spawn_server(&spec, &ServeConfig::default()).expect("spawn");
    let mut c = Client::connect(server.addr());
    let served = c.call(&Request::Diagnose {
        id: 1,
        log: log_text.clone(),
        deadline_ms: None,
        no_enhance: false,
    });
    c.call(&Request::Shutdown { id: 2 });
    let summary = server.join().expect("clean shutdown");
    let Response::Report {
        degraded,
        enhanced,
        text,
        ..
    } = served
    else {
        panic!("expected a degraded report, got {served:?}");
    };
    assert!(degraded, "sanitized reports carry the degraded tag");
    assert!(enhanced, "the enhancement stage ran");
    assert_eq!(summary.stats.panics_contained, 0);
    assert_eq!(summary.stats.degraded, 1);

    let bundle = ArtifactBundle::load(&spec).expect("offline bundle");
    let fsim = bundle.env.fault_sim();
    let log = read_failure_log(&log_text).expect("well-formed text");
    let report = Diagnoser::new(
        &fsim,
        &bundle.env.scan,
        bundle.mode,
        DiagnosisConfig::default(),
    )
    .diagnose(&log);
    let expected = bundle
        .localizer
        .as_ref()
        .expect("enhancement is on")
        .enhance(&bundle.env.design, &report, &bundle.sample_for(&fsim, &log))
        .report;
    assert!(expected.degraded());
    assert_eq!(
        text,
        expected.to_string(),
        "served report diverged from offline"
    );
}

/// One connection writes several diagnoses, a ping and a stats request
/// before it reads anything, then half-closes. Every request gets exactly
/// one reply with its own id, in any order, each report equals its log's
/// offline text, and EOF comes only after the last reply: the server
/// drains a connection's outstanding replies before it closes it.
///
/// The logs are multi-fault on a mid-size design, a few milliseconds of
/// scoring each, so most of them are still queued or running when the
/// server reads the half-close.
#[test]
fn pipelined_requests_are_all_answered_before_a_half_close_ends() {
    let spec = leon3mp_spec(6_000);
    let chips = offline_chips(&spec, InjectionKind::MultiSameTier, 6);
    let server = spawn_server(&spec, &ServeConfig::default()).expect("spawn");

    let mut c = Client::connect(server.addr());
    let n = chips.len() as u64;
    for (id, chip) in (0..).zip(&chips) {
        c.send(&Request::Diagnose {
            id,
            log: chip.log_text.clone(),
            deadline_ms: None,
            no_enhance: false,
        });
    }
    c.send(&Request::Ping { id: n });
    c.send(&Request::Stats { id: n + 1 });
    c.stream.shutdown(Shutdown::Write).expect("half-close");

    let mut answered = vec![false; chips.len() + 2];
    while let Some(line) = read_frame(&mut c.stream, &mut c.dec).expect("read frame") {
        let resp = Response::parse(&line).expect("parse response");
        let id = match &resp {
            Response::Report { id, text, .. } => {
                let chip = usize::try_from(*id).ok().and_then(|k| chips.get(k));
                let chip = chip.unwrap_or_else(|| panic!("report for unknown id {id}"));
                assert_eq!(text, &chip.plain_text, "report {id} diverged from offline");
                *id
            }
            Response::Pong { id, .. } if *id == n => *id,
            Response::Stats { id, .. } if *id == n + 1 => *id,
            other => panic!("unexpected reply: {other:?}"),
        };
        let slot = &mut answered[id as usize];
        assert!(!*slot, "request {id} was answered twice");
        *slot = true;
    }
    let missing: Vec<usize> = (0..answered.len()).filter(|&k| !answered[k]).collect();
    assert!(missing.is_empty(), "EOF before the replies to {missing:?}");

    let mut c = Client::connect(server.addr());
    c.call(&Request::Shutdown { id: 99 });
    let summary = server.join().expect("clean shutdown");
    assert_eq!(summary.stats.completed, n);
}

/// Connects a client that writes pings and never reads the replies, until
/// a write has blocked for 2 s. Returns `None` if the server instead read
/// 64 MiB of them, far more than the socket buffers of both ends hold.
fn client_blocked_by_unread_replies(addr: SocketAddr) -> Option<Client> {
    const MAX_SENT: usize = 64 << 20;
    let mut c = Client::connect(addr);
    c.call(&Request::Ping { id: 0 });
    c.stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .expect("write timeout");
    let burst: Vec<u8> = (1..=1_000)
        .flat_map(|id| encode_frame(&Request::Ping { id }.encode()))
        .collect();
    let mut sent = 0;
    while sent < MAX_SENT {
        match c.stream.write_all(&burst) {
            Ok(()) => sent += burst.len(),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Some(c)
            }
            Err(e) => panic!("write failed after {sent} bytes: {e}"),
        }
    }
    None
}

/// A client that writes requests and never reads its replies has its own
/// writes blocked: once the socket toward it is full, the server stops
/// reading its requests instead of queueing their replies in memory.
#[test]
fn a_client_that_never_reads_has_its_writes_blocked() {
    let server = spawn_server(&spec(200, 0), &ServeConfig::default()).expect("spawn");
    let blocked = client_blocked_by_unread_replies(server.addr());
    assert!(
        blocked.is_some(),
        "the server read 64 MiB of pings from a client that never reads"
    );
    drop(blocked);

    let mut c = Client::connect(server.addr());
    c.call(&Request::Shutdown { id: 1 });
    server.join().expect("clean shutdown");
}

/// A shutdown completes while a client that never reads stays connected:
/// once the generation winds down, the writer blocked on that client
/// gives up after `frame_timeout_ms` (2 s by default) without progress,
/// so `join` returns well within its 20 s bound. A writer that waits on
/// the client forever holds the generation open until the client leaves.
#[test]
fn shutdown_completes_while_a_client_never_reads() {
    let server = spawn_server(&spec(200, 0), &ServeConfig::default()).expect("spawn");
    let blocked = client_blocked_by_unread_replies(server.addr()).expect("writes blocked");
    let mut c = Client::connect(server.addr());
    let ack = c.call(&Request::Shutdown { id: 1 });
    assert!(matches!(ack, Response::ShuttingDown { id: 1 }), "{ack:?}");

    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.join()));
    let outcome = joined.recv_timeout(Duration::from_secs(20));
    // Dropping the client ends the server in either case, so a failure
    // leaves no thread behind.
    drop(blocked);
    let summary = outcome.expect("join had not returned 20 s after the shutdown ack");
    summary.expect("clean shutdown");
}

/// A deadline cancels a job mid-score: on an idle server, a log whose
/// diagnosis takes tens of milliseconds gets a budget of a tenth of its
/// offline time. A worker takes the job long before that budget runs out,
/// so only the scoring loops, which read the clock against the job's
/// deadline, can turn the reply into `DeadlineExceeded`.
///
/// The multi-fault log runs the cover over many suspects: about 40 ms in
/// a release build and 0.3 s in a debug build on a 2-core host.
#[test]
fn a_deadline_cancels_a_job_mid_score() {
    let spec = leon3mp_spec(30_000);
    let bundle = ArtifactBundle::load(&spec).expect("offline bundle");
    let fsim = bundle.env.fault_sim();
    let diagnoser = Diagnoser::new(
        &fsim,
        &bundle.env.scan,
        bundle.mode,
        DiagnosisConfig::default(),
    );
    let sample = try_generate_samples(
        &bundle.env,
        &fsim,
        bundle.mode,
        InjectionKind::MultiSameTier,
        1,
        0xBEEF,
    )
    .expect("sample")
    .remove(0);
    // The fastest of three runs: contention from parallel tests only
    // lengthens a run, and a shorter time gives a tighter budget.
    let offline_ms = (0..3)
        .map(|_| {
            let start = Instant::now();
            let report = diagnoser.diagnose(&sample.log);
            assert!(
                !report.candidates().iter().any(|c| c.score.is_perfect()),
                "the log must reach the cover: no candidate explains it perfectly"
            );
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    let budget_ms = ((offline_ms / 10.0) as u64).max(1);

    let server = spawn_server(&spec, &ServeConfig::default()).expect("spawn");
    let mut c = Client::connect(server.addr());
    match c.call(&Request::Diagnose {
        id: 1,
        log: write_failure_log(&sample.log),
        deadline_ms: Some(budget_ms),
        no_enhance: true,
    }) {
        Response::DeadlineExceeded { id, budget_ms: got } => {
            assert_eq!(id, 1);
            assert_eq!(got, budget_ms, "the response echoes the budget");
        }
        other => panic!(
            "a {budget_ms} ms budget on a {offline_ms:.1} ms diagnosis must be cancelled, \
             got {other:?}"
        ),
    }
    c.call(&Request::Shutdown { id: 2 });
    let summary = server.join().expect("clean shutdown");
    assert_eq!(summary.stats.deadline_exceeded, 1);
    assert_eq!(summary.stats.completed, 0);
}

/// A short request does not wait behind a long one: at `pool_width` 2, a
/// single-fault log sent on a second connection while a multi-fault log
/// is being scored gets its report while the long one is still pending.
/// A server that scores one job at a time, or replies to a batch only
/// once all of it is scored, answers the short request after the long one.
///
/// Both logs are timed offline at the server's pool width: about 40 ms
/// against 3 ms in a release build, and 0.4 s against 25 ms in a debug
/// build, on a 2-core host. The margin check keeps the long diagnosis
/// several times longer than the short one, so it is still running when
/// the short reply arrives (8–18 ms in release, 40–130 ms in debug).
#[test]
fn a_short_request_is_answered_while_a_long_one_is_scored() {
    const WIDTH: usize = 2;
    let spec = leon3mp_spec(30_000);
    let bundle = ArtifactBundle::load(&spec).expect("offline bundle");
    let fsim = bundle.env.fault_sim();
    let diagnoser = Diagnoser::new(
        &fsim,
        &bundle.env.scan,
        bundle.mode,
        DiagnosisConfig::default(),
    );
    let chip = |kind| {
        try_generate_samples(&bundle.env, &fsim, bundle.mode, kind, 1, 0xBEEF)
            .expect("sample")
            .remove(0)
            .log
    };
    // The report text and the fastest of three runs, in milliseconds.
    let offline = |log: &FailureLog| {
        let text = diagnoser.diagnose(log).to_string();
        let ms = (0..3)
            .map(|_| {
                let start = Instant::now();
                m3d_par::with_threads(WIDTH, || diagnoser.diagnose(log));
                start.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        (text, ms)
    };
    let (long, short) = (
        chip(InjectionKind::MultiSameTier),
        chip(InjectionKind::Single),
    );
    let ((long_text, long_ms), (short_text, short_ms)) = (offline(&long), offline(&short));
    assert!(
        long_ms >= 4.0 * short_ms,
        "the multi-fault log ({long_ms:.1} ms) must take far longer than the single-fault \
         one ({short_ms:.1} ms)"
    );

    let server = spawn_server(
        &spec,
        &ServeConfig {
            pool_width: WIDTH,
            ..ServeConfig::default()
        },
    )
    .expect("spawn");
    let mut first = Client::connect(server.addr());
    let mut second = Client::connect(server.addr());
    first.send(&Request::Diagnose {
        id: 1,
        log: write_failure_log(&long),
        deadline_ms: None,
        no_enhance: false,
    });
    // The reader answers the ping only after admitting the diagnosis.
    let pong = first.call(&Request::Ping { id: 2 });
    assert!(matches!(pong, Response::Pong { id: 2, .. }), "{pong:?}");

    let sent = Instant::now();
    let reply = second.call(&Request::Diagnose {
        id: 3,
        log: write_failure_log(&short),
        deadline_ms: None,
        no_enhance: false,
    });
    let waited_ms = sent.elapsed().as_secs_f64() * 1e3;
    first.stream.set_nonblocking(true).expect("nonblocking");
    let peeked = first.stream.peek(&mut [0u8; 1]);
    first.stream.set_nonblocking(false).expect("blocking");
    match reply {
        Response::Report { text, .. } => assert_eq!(text, short_text, "short report diverged"),
        other => panic!("expected the short report, got {other:?}"),
    }
    assert!(
        matches!(&peeked, Err(e) if e.kind() == ErrorKind::WouldBlock),
        "the short request ({short_ms:.1} ms offline) was answered after {waited_ms:.1} ms, \
         once the long one ({long_ms:.1} ms offline) had replied: {peeked:?}"
    );
    match first.recv() {
        Response::Report { id, text, .. } => {
            assert_eq!(id, 1);
            assert_eq!(text, long_text, "long report diverged");
        }
        other => panic!("expected the long report, got {other:?}"),
    }

    second.call(&Request::Shutdown { id: 4 });
    let summary = server.join().expect("clean shutdown");
    assert_eq!(summary.stats.completed, 2);
}
