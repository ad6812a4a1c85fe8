//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions: name, start, end, parent span, and the log the
//! work belongs to. They stay in memory until the run ends. A recorder that
//! is off records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle returned for a span that was not recorded.
const UNRECORDED: usize = usize::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `diagnosis.diagnose`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The workload log the span worked on.
    pub log: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Total and self time of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Summed duration in seconds.
    pub total_s: f64,
    /// Summed duration minus the time covered by direct children.
    pub self_s: f64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty recorder sharing this one's epoch and switch, for another
    /// thread; merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Self {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, log: Option<usize>) -> usize {
        if !self.on {
            return UNRECORDED;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            log,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        if id == UNRECORDED {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, log: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, log);
        let out = f();
        self.exit(id);
        out
    }

    /// Appends another recorder's spans (re-based parent indices).
    pub fn absorb(&mut self, other: Tracer) {
        assert!(
            other.open.is_empty(),
            "absorbing a recorder with open spans"
        );
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans named `name`, in seconds, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Per span, the seconds its direct children cover.
    fn child_seconds(&self) -> Vec<f64> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        child_s
    }

    /// Self time of each span named `name`, in seconds, in record order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.child_seconds())
            .filter(|(s, _)| s.name == name)
            .map(|(s, covered)| s.secs() - covered)
            .collect()
    }

    /// Total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(self.child_seconds()) {
            let t = out.entry(s.name).or_default();
            t.total_s += s.secs();
            t.self_s += s.secs() - covered;
        }
        out
    }

    /// The share of the spans named `root` covered by their direct
    /// children; `None` when no such span was recorded.
    pub fn coverage(&self, root: &str) -> Option<f64> {
        let times = self.layer_times();
        let t = times.get(root)?;
        (t.total_s > 0.0).then(|| (t.total_s - t.self_s) / t.total_s)
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"log\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.log)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let root = t.enter("log", Some(0));
        t.time("a", Some(0), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.time("b", Some(0), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(root);
        let times = t.layer_times();
        let log = times["log"];
        let children = times["a"].total_s + times["b"].total_s;
        assert!((log.total_s - log.self_s - children).abs() < 1e-9);
        assert!(t.coverage("log").expect("recorded") > 0.9);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("log", None);
        assert_eq!(t.time("a", None, || 7), 7);
        t.exit(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.coverage("log"), None);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut main = Tracer::new(true);
        main.time("x", None, || ());
        let mut other = main.fork();
        let r = other.enter("log", Some(1));
        other.time("y", Some(1), || ());
        other.exit(r);
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
    }
}
