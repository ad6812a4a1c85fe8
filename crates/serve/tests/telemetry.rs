//! Telemetry-plane tests: the exporter is observable without being
//! influential.
//!
//! Two invariants layered on top of the §16 chaos contract:
//!
//! 1. **Bit-neutrality** — hammering the telemetry exporter with scrapes
//!    mid-load must not perturb a single served byte: the chaos run
//!    still reports zero mismatches and zero crashed clean connections.
//! 2. **Crash forensics** — every chaos-injected worker panic leaves a
//!    `flight-panic-*.jsonl` artifact that parses back into flight
//!    events naming the panicking request and renders as a causal
//!    timeline (the loadgen verifies each artifact; the run fails on
//!    any shortfall).

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use m3d_netlist::generate::Benchmark;
use m3d_serve::proto::{read_frame, write_frame, Decoder, Request, Response};
use m3d_serve::{
    run_load, scrape, spawn_server, AdmissionConfig, BundleSource, BundleSpec, LoadConfig,
    ServeConfig,
};

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

/// A unique scratch directory under the system temp dir; tests clean up
/// after themselves on success.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("m3d-telemetry-{tag}-{}-{n}", std::process::id()))
}

/// A live server with `--telemetry-addr` answers scrapes with a parsable
/// snapshot carrying the registry counters, rolling rates, sliding
/// quantiles, SLO burns, and the exporter's own overhead gauge — and the
/// scrape path never disturbs request handling.
#[test]
fn exporter_serves_parsable_snapshots_from_a_live_server() {
    let spec = spec(200, 0);
    let cfg = ServeConfig {
        telemetry_addr: Some("127.0.0.1:0".into()),
        slo: Some("availability>=0.5,p99_ms<=60000,degraded_frac<=1.0".into()),
        ..ServeConfig::default()
    };
    let server = spawn_server(&spec, &cfg).expect("spawn");
    let taddr = server.telemetry_addr().expect("telemetry bound");

    // Drive a little traffic so the counters move.
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .expect("timeout");
    let mut stream = stream;
    let mut dec = Decoder::new();
    for id in 0..3u64 {
        write_frame(&mut stream, &Request::Ping { id }.encode()).expect("send");
        let line = read_frame(&mut stream, &mut dec)
            .expect("read")
            .expect("pong");
        assert!(matches!(
            Response::parse(&line).expect("parse"),
            Response::Pong { .. }
        ));
    }

    // Give the 100 ms sampler a couple of ticks, then scrape repeatedly:
    // every answer must be a well-formed snapshot.
    std::thread::sleep(Duration::from_millis(350));
    let mut last = None;
    for _ in 0..5 {
        let snap = scrape(taddr).expect("scrape");
        assert_eq!(snap.get("type").and_then(|t| t.as_str()), Some("telemetry"));
        for key in ["stats", "counters", "gauges", "rates", "quantiles", "slo"] {
            assert!(snap.get(key).is_some(), "snapshot missing {key:?}");
        }
        let overhead = snap
            .get("exporter")
            .and_then(|e| e.get("overhead_pct"))
            .and_then(|v| v.as_f64())
            .expect("exporter overhead gauge");
        assert!((0.0..=100.0).contains(&overhead), "overhead {overhead}");
        last = Some(snap);
    }
    let snap = last.expect("at least one scrape");
    let conns = snap
        .get("counters")
        .and_then(|c| c.get("serve.connections"))
        .and_then(|v| v.as_u64())
        .expect("connections counter");
    assert!(conns >= 1, "the driven connection must be counted");
    assert!(
        snap.get("slo")
            .and_then(|s| s.get("breached"))
            .is_some_and(|b| b == &m3d_obs::Json::Bool(false)),
        "a wide-open SLO must not read as breached"
    );

    // The scraped server still serves and drains cleanly.
    write_frame(&mut stream, &Request::Shutdown { id: 9 }.encode()).expect("send");
    let _ = read_frame(&mut stream, &mut dec);
    server.join().expect("clean shutdown");
}

/// The acceptance gate: a chaos run at widths {1, 4} with the exporter
/// scraped mid-load and the flight recorder armed. Zero mismatches and
/// zero crashed connections prove bit-neutrality; the loadgen's artifact
/// verification proves every injected panic produced a renderable dump.
#[test]
fn chaos_run_stays_bit_neutral_under_scraping_and_dumps_every_panic() {
    let flight_dir = scratch("chaos");
    let cfg = LoadConfig {
        spec: spec(220, 6),
        clients: 12,
        requests_per_client: 2,
        widths: vec![1, 4],
        chaos_seed: 11,
        chaos_rate: 0.3,
        deadline_ms: None,
        log_pool: 6,
        server_panic_every: Some(4),
        admission: AdmissionConfig::default(),
        frame_timeout_ms: 200,
        telemetry: true,
        flight_dir: Some(flight_dir.clone()),
        ..LoadConfig::default()
    };
    let report = run_load(&cfg).expect("load run");
    let mut panics = 0;
    for w in &report.widths {
        assert_eq!(
            w.crashed_connections, 0,
            "width {}: scraping perturbed a clean connection",
            w.width
        );
        assert_eq!(
            w.mismatches, 0,
            "width {}: served report diverged under scraping: {:?}",
            w.width, w.first_mismatch
        );
        assert!(
            w.telemetry_scrapes > 0,
            "width {}: the scraper never landed a snapshot",
            w.width
        );
        assert_eq!(
            w.telemetry_errors, 0,
            "width {}: telemetry plane violated (bad snapshot or flight dump)",
            w.width
        );
        // One verified dump per contained panic: the reported count is the
        // server's own, so it matches the artifacts exactly.
        assert_eq!(
            w.panics_contained, w.flight_dumps,
            "width {}: contained panics against verified flight dumps",
            w.width
        );
        panics += w.panics_contained;
    }
    assert!(panics > 0, "the chaos panic hook never fired");
    assert!(report.clean());
    std::fs::remove_dir_all(&flight_dir).ok();
}
