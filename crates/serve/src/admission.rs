//! Admission control: a bounded queue with explicit backpressure and a
//! load-shedding watermark.
//!
//! The server never buffers unbounded work. A diagnosis request either
//!
//! 1. fits in the bounded queue → it is admitted (possibly flagged for the
//!    degraded fast path when the queue is already deep), or
//! 2. finds the queue full → the client gets a typed
//!    [`Overloaded`](crate::proto::Response::Overloaded) response with a
//!    `retry_after_ms` hint scaled to the backlog, and the server does no
//!    further work for it.
//!
//! A job leaves the queue only when a scoring worker starts it, so the
//! server holds at most `queue_capacity` waiting jobs plus one per worker.
//!
//! Shedding is a *ladder*, not a cliff (DESIGN.md §16): below the
//! watermark requests get the full pipeline (diagnosis + GNN
//! enhancement); between the watermark and capacity they are admitted but
//! served the baseline ranking tagged `degraded` (enhancement skipped —
//! the expensive, optional stage); at capacity they are refused with
//! `Overloaded`. Every rung is a typed, observable outcome.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use m3d_tdf::FailureLog;

use crate::proto::Response;

/// Admission and scheduling knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Bounded queue capacity; a full queue refuses with `Overloaded`.
    pub queue_capacity: usize,
    /// Queue depth at which admitted requests are degraded (enhancement
    /// skipped). Clamped to `queue_capacity`.
    pub shed_watermark: usize,
    /// Deadline applied when the request names none.
    pub default_deadline_ms: u64,
    /// Hard cap on client-requested deadlines (a client cannot pin a slot
    /// for minutes).
    pub max_deadline_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 64,
            shed_watermark: 48,
            default_deadline_ms: 2_000,
            max_deadline_ms: 10_000,
        }
    }
}

/// One admitted diagnosis request, queued until a scoring worker takes it.
#[derive(Debug)]
pub struct Job {
    /// Client-chosen request id (echoed in the response).
    pub id: u64,
    /// Server-assigned admission sequence number (1-based), drawn for
    /// every request that reaches admission, refused ones included. The
    /// chaos panic injector keys on it.
    pub seq: u64,
    /// The parsed failure log.
    pub log: FailureLog,
    /// Admission timestamp (queue-latency accounting).
    pub enqueued: Instant,
    /// Absolute deadline: a worker answers a job past it unscored, and the
    /// scoring loops stop once they see it pass.
    pub deadline: Instant,
    /// The budget behind `deadline`, echoed in `DeadlineExceeded`.
    pub budget_ms: u64,
    /// Serve the baseline (un-enhanced) ranking, tagged degraded.
    pub degrade: bool,
    /// The client opted out of enhancement (not a degradation).
    pub no_enhance: bool,
    /// Where the worker sends the response (the connection's writer owns
    /// the socket).
    pub reply: Sender<Response>,
}

/// The admission gate every connection handler admits into and every
/// scoring worker takes from: one bounded FIFO queue.
pub struct Admission {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled once per admitted job.
    ready: Condvar,
    seq: AtomicU64,
    cfg: AdmissionConfig,
}

impl Admission {
    /// An empty gate.
    pub fn new(cfg: AdmissionConfig) -> Admission {
        Admission {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            seq: AtomicU64::new(0),
            cfg,
        }
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().expect("admission queue")
    }

    /// Current queue depth (gauge for stats).
    pub fn depth(&self) -> usize {
        self.queue().len()
    }

    /// Resolves a client-requested budget against the server's default
    /// and cap.
    pub fn budget_ms(&self, requested: Option<u64>) -> u64 {
        requested
            .unwrap_or(self.cfg.default_deadline_ms)
            .clamp(1, self.cfg.max_deadline_ms)
    }

    /// Tries to admit a diagnosis request.
    ///
    /// On success the job is queued, its `degrade` flag reflecting the
    /// shed watermark. On a full queue the typed `Overloaded` response to
    /// send back is returned instead.
    pub fn admit(
        &self,
        id: u64,
        log: FailureLog,
        requested_deadline_ms: Option<u64>,
        no_enhance: bool,
        reply: Sender<Response>,
    ) -> Result<(), Response> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let budget_ms = self.budget_ms(requested_deadline_ms);
        let mut queue = self.queue();
        let depth = queue.len();
        if depth >= self.cfg.queue_capacity.max(1) {
            return Err(Response::Overloaded {
                id,
                retry_after_ms: retry_after_ms(depth),
            });
        }
        let now = Instant::now();
        queue.push_back(Job {
            id,
            seq,
            log,
            enqueued: now,
            deadline: now + Duration::from_millis(budget_ms),
            budget_ms,
            degrade: depth >= self.cfg.shed_watermark.min(self.cfg.queue_capacity),
            no_enhance,
            reply,
        });
        drop(queue);
        self.ready.notify_one();
        self.sample_depth(depth + 1);
        Ok(())
    }

    /// Takes the oldest queued job, waiting up to `timeout` for one to be
    /// admitted; `None` if none was.
    pub fn take(&self, timeout: Duration) -> Option<Job> {
        let (mut queue, _) = self
            .ready
            .wait_timeout_while(self.queue(), timeout, |q| q.is_empty())
            .expect("admission queue");
        let job = queue.pop_front()?;
        let depth = queue.len();
        drop(queue);
        self.sample_depth(depth);
        Some(job)
    }

    /// Exports the instantaneous queue depth on every enqueue/dequeue: a
    /// depth gauge, the distance to the shed watermark (negative once
    /// shedding has begun), and a depth histogram so the exporter can
    /// serve sliding depth quantiles.
    fn sample_depth(&self, depth: usize) {
        if !m3d_obs::enabled() {
            return;
        }
        let watermark = self.cfg.shed_watermark.min(self.cfg.queue_capacity);
        m3d_obs::gauge("serve.queue_depth", depth as f64);
        m3d_obs::gauge(
            "serve.shed_watermark_distance",
            watermark as f64 - depth as f64,
        );
        m3d_obs::observe_with(
            "serve.queue_depth_hist",
            &m3d_obs::QUEUE_DEPTH_BOUNDS,
            depth as f64,
        );
    }
}

/// Backoff hint for a refused request, scaled to the backlog: a full
/// queue of slow jobs earns a longer hint than a momentary spike.
fn retry_after_ms(depth: usize) -> u64 {
    10 + (depth as u64).saturating_mul(5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn tiny() -> AdmissionConfig {
        AdmissionConfig {
            queue_capacity: 2,
            shed_watermark: 1,
            ..AdmissionConfig::default()
        }
    }

    #[test]
    fn full_queue_refuses_with_typed_backpressure() {
        let adm = Admission::new(tiny());
        let (reply, _keep) = channel();
        assert!(adm
            .admit(1, FailureLog::default(), None, false, reply.clone())
            .is_ok());
        assert!(adm
            .admit(2, FailureLog::default(), None, false, reply.clone())
            .is_ok());
        match adm.admit(3, FailureLog::default(), None, false, reply) {
            Err(Response::Overloaded { id, retry_after_ms }) => {
                assert_eq!(id, 3);
                assert!(retry_after_ms >= 10);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Draining reopens admission.
        let job = adm.take(Duration::ZERO).expect("queued job");
        assert_eq!(job.id, 1);
        assert!(!job.degrade, "first admit saw an empty queue");
        let (reply, _keep) = channel();
        assert!(adm
            .admit(4, FailureLog::default(), None, false, reply)
            .is_ok());
        assert_eq!(adm.depth(), 2);
    }

    #[test]
    fn shed_watermark_degrades_instead_of_refusing() {
        let adm = Admission::new(tiny());
        let (reply, _keep) = channel();
        adm.admit(1, FailureLog::default(), None, false, reply.clone())
            .expect("admit");
        adm.admit(2, FailureLog::default(), None, false, reply)
            .expect("admit");
        let jobs: Vec<Job> = std::iter::from_fn(|| adm.take(Duration::ZERO)).collect();
        assert_eq!(jobs.len(), 2);
        assert!(!jobs[0].degrade);
        assert!(jobs[1].degrade, "above the watermark");
    }

    #[test]
    fn deadlines_are_defaulted_and_capped() {
        let adm = Admission::new(AdmissionConfig::default());
        assert_eq!(adm.budget_ms(None), 2_000);
        assert_eq!(adm.budget_ms(Some(0)), 1);
        assert_eq!(adm.budget_ms(Some(250)), 250);
        assert_eq!(adm.budget_ms(Some(u64::MAX)), 10_000);
    }
}
