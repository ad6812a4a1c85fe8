//! The served path: an in-process `m3d-serve` and one closed-loop client
//! process driving it over two TCP connections.

use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use m3d_serve::proto::{read_frame, write_frame, Decoder};
use m3d_serve::{spawn_server, AdmissionConfig, Request, Response, RunningServer, ServeConfig};

use crate::pipeline::{Phase, Schedule};
use crate::trace::Tracer;
use crate::workload::Workload;

/// Concurrent client connections.
pub const CONNECTIONS: usize = 2;
/// Per-request budget: far above any request's service time, so deadlines
/// never fire.
const DEADLINE_MS: u64 = 10_000;
/// Longest wait for one reply, server start-up included.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// What the server must answer for one log.
#[derive(Debug)]
pub struct Expected {
    /// The log in `m3d-faillog v1` text form, as the tester sends it.
    pub log_text: String,
    /// The offline report text.
    pub text: String,
    /// The offline policy action.
    pub action: &'static str,
}

/// A running in-process server.
pub struct Server {
    running: RunningServer,
}

/// A framed client connection.
struct Wire {
    stream: TcpStream,
    dec: Decoder,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Wire {
            stream,
            dec: Decoder::new(),
        })
    }

    /// Sends one frame and reads the reply frame.
    fn exchange(&mut self, line: &str) -> Result<String, String> {
        write_frame(&mut self.stream, line).map_err(|e| format!("send: {e}"))?;
        read_frame(&mut self.stream, &mut self.dec)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "server closed the connection".to_string())
    }
}

impl Server {
    /// Spawns `m3d-serve` on a free local port with the workload's
    /// artifacts and returns once it answers a ping (artifact load and
    /// model training included).
    pub fn start(w: &Workload, width: usize) -> Result<Server, String> {
        let cfg = ServeConfig {
            pool_width: width,
            admission: AdmissionConfig {
                default_deadline_ms: DEADLINE_MS,
                max_deadline_ms: DEADLINE_MS,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        };
        let running = spawn_server(&w.bundle_spec(), &cfg)?;
        let mut wire = Wire::connect(running.addr())?;
        let pong = wire.exchange(&Request::Ping { id: 0 }.encode())?;
        match Response::parse(&pong) {
            Ok(Response::Pong { .. }) => Ok(Server { running }),
            other => Err(format!("server answered a ping with {other:?}")),
        }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.running.addr()
    }

    /// Asks the server to drain and waits for its thread to end.
    pub fn stop(self) -> Result<(), String> {
        let mut wire = Wire::connect(self.addr())?;
        let reply = wire.exchange(&Request::Shutdown { id: 0 }.encode())?;
        drop(wire);
        if !matches!(Response::parse(&reply), Ok(Response::ShuttingDown { .. })) {
            return Err(format!("server answered shutdown with {reply}"));
        }
        self.running.join().map(|_| ())
    }
}

/// What a served phase measured.
#[derive(Debug, Default)]
pub struct ServedPhase {
    /// Latencies, wall and CPU time; `failed` counts every bad outcome.
    pub phase: Phase,
    /// Typed refusals: overloaded, deadline, or error responses.
    pub rejected: usize,
    /// Reports that differ from the offline reference.
    pub mismatches: usize,
    /// The first mismatch, for the log.
    pub first_problem: Option<String>,
}

/// Runs the closed loop: each connection sends its next log only after
/// the previous reply arrived. Logs are taken in order from the shared
/// schedule, cycling through `expected`.
pub fn client_phase(
    addr: SocketAddr,
    expected: &[Expected],
    schedule: &Schedule,
    tr: &mut Tracer,
) -> Result<ServedPhase, String> {
    let cpu0 = crate::sys::cpu_seconds();
    let forks: Vec<Tracer> = (0..CONNECTIONS).map(|_| tr.fork()).collect();
    let outs: Vec<Result<(ServedPhase, Tracer), String>> = thread::scope(|s| {
        let handles: Vec<_> = forks
            .into_iter()
            .map(|mut ctr| {
                s.spawn(move || client(addr, expected, schedule, &mut ctr).map(|out| (out, ctr)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut total = ServedPhase::default();
    for out in outs {
        let (one, ctr) = out?;
        tr.absorb(ctr);
        total.phase.latencies_ms.extend(one.phase.latencies_ms);
        total.phase.log_ids.extend(one.phase.log_ids);
        total.phase.failed += one.phase.failed;
        total.rejected += one.rejected;
        total.mismatches += one.mismatches;
        total.first_problem = total.first_problem.or(one.first_problem);
    }
    total.phase.wall_s = schedule.elapsed_s();
    total.phase.cpu_s = crate::sys::cpu_seconds() - cpu0;
    Ok(total)
}

/// One connection's closed loop.
fn client(
    addr: SocketAddr,
    expected: &[Expected],
    schedule: &Schedule,
    tr: &mut Tracer,
) -> Result<ServedPhase, String> {
    let mut out = ServedPhase::default();
    let mut wire = Wire::connect(addr)?;
    while let Some(k) = schedule.next() {
        let id = k % expected.len();
        let exp = &expected[id];
        let root = tr.enter("request", Some(id));
        let start = Instant::now();
        let line = tr.time("serve.encode", Some(id), || {
            Request::Diagnose {
                id: k as u64,
                log: exp.log_text.clone(),
                deadline_ms: Some(DEADLINE_MS),
                no_enhance: false,
            }
            .encode()
        });
        let reply = tr.time("serve.round_trip", Some(id), || wire.exchange(&line));
        let resp = tr.time("serve.decode", Some(id), || {
            reply.and_then(|l| Response::parse(&l).map_err(|e| e.to_string()))
        });
        out.phase
            .latencies_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
        tr.exit(root);
        out.phase.log_ids.push(id);
        let problem = match resp {
            Ok(Response::Report {
                id: rid,
                degraded,
                enhanced,
                action,
                text,
                ..
            }) => {
                let same = rid == k as u64
                    && !degraded
                    && enhanced
                    && action.as_deref() == Some(exp.action)
                    && text == exp.text;
                if !same {
                    out.mismatches += 1;
                }
                (!same).then(|| format!("log {id}: served report differs:\n{text}"))
            }
            Ok(other) => {
                out.rejected += 1;
                Some(format!("log {id}: {other:?}"))
            }
            Err(e) => return Err(format!("log {id}: {e}")),
        };
        if let Some(p) = problem {
            out.phase.failed += 1;
            out.first_problem.get_or_insert(p);
        }
    }
    Ok(out)
}
