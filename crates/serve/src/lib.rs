//! `m3d-serve`: a long-running, crash-tolerant diagnosis service.
//!
//! The volume-diagnosis flow this workspace reproduces is batch-shaped:
//! load a design, run the pipeline, exit. Production test floors do not
//! work that way — testers stream failure logs continuously, and the
//! diagnosis backend must stay up for weeks, absorb malformed input,
//! survive its own bugs, and degrade predictably under load. This crate
//! is that backend, built on `std` only:
//!
//! * [`proto`] — a hand-rolled length-prefixed JSONL wire protocol over
//!   TCP, reusing the deterministic `m3d_obs` JSON codec. Every
//!   malformation is a typed [`proto::ProtoError`]; the incremental
//!   [`proto::Decoder`] is pure and directly fuzzable.
//! * [`artifacts`] — the artifact cache: netlists, pattern sets, and
//!   trained model weights loaded once per generation, CRC-verified
//!   through the `m3d_resilient` checkpoint codec, atomically
//!   hot-reloadable while the old generation keeps serving.
//! * [`admission`] — bounded queues with typed
//!   [`Overloaded`](proto::Response::Overloaded) backpressure, per-request
//!   deadlines, and a load-shedding watermark past which requests are
//!   served the baseline ranking tagged `degraded` (the GNN enhancement
//!   stage is shed first).
//! * [`server`] — the generation loop: an acceptor, a reader and a
//!   writer thread per connection, and `pool_width` scoring workers that
//!   each take the oldest admitted request, check its deadline, and score
//!   it with per-request spans and panic isolation (`try_par_map`).
//! * [`loadgen`] — a deterministic load generator and chaos client:
//!   thousands of concurrent synthetic tester sessions with seeded fault
//!   injection, verifying every served report bit-for-bit against an
//!   offline [`m3d_diagnosis::Diagnoser`] run.
//! * [`telemetry`] — the live telemetry plane (DESIGN.md §17): a
//!   streaming exporter serving lock-bounded registry snapshots with
//!   rolling rates and sliding quantiles over the same wire framing,
//!   continuous SLO burn-rate evaluation, and flight-recorder dumps on
//!   panic, frame poison, deadline storms, and shutdown.
//!
//! The invariant everything above defends (DESIGN.md §16): **for every
//! well-formed request, the served report is bit-identical to the offline
//! diagnosis** — at any pool width, under any chaos schedule. Failures of
//! infrastructure (overload, deadlines, panics, hostile clients) surface
//! as typed protocol outcomes, never as silently wrong reports.

pub mod admission;
pub mod artifacts;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod telemetry;

pub use admission::AdmissionConfig;
pub use artifacts::{ArtifactBundle, BundleSource, BundleSpec, ModelProvenance};
pub use loadgen::{render_bench_json, run_load, LoadConfig, LoadReport, WidthResult};
pub use proto::{ProtoError, Request, Response};
pub use server::{serve, spawn_server, RunningServer, ServeConfig, ServeSummary};
pub use telemetry::{dump_flight, scrape, TelemetryConfig};
