//! The flight recorder: fixed-capacity ring buffers of recent events,
//! kept per source (one per connection, pool worker, or subsystem), for
//! post-mortem dumps when something goes wrong.
//!
//! Unlike the trace buffer, which grows without bound and is flushed at
//! process exit, the recorder is sized for *always-on* use in a
//! long-running server: each source keeps only its most recent
//! [`flight_capacity`] events (oldest overwritten first), and at most
//! [`MAX_FLIGHT_RINGS`] sources keep a ring (a new source evicts the ring
//! whose newest event is oldest), so memory and dump size are bounded no
//! matter the uptime or how many connections were served. A global
//! monotone sequence number gives every event a stable total order across
//! sources — the causal timeline `m3d-diag report --flight` reconstructs.
//!
//! Recording is gated by its own flag ([`set_flight_enabled`]),
//! independent of the trace/metrics gate: a production server records
//! flight events without accumulating an unbounded trace. Like all obs
//! recording, it is a pure observer — dropping or keeping events never
//! feeds back into computed results.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::event::Event;

/// Default per-source ring capacity.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Most rings kept at once. A server records each connection under a
/// source of its own, so without a cap it would keep one ring for every
/// connection it ever served.
pub const MAX_FLIGHT_RINGS: usize = 64;

static FLIGHT_ENABLED: AtomicBool = AtomicBool::new(false);
static FLIGHT_SEQ: AtomicU64 = AtomicU64::new(1);
static FLIGHT_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_FLIGHT_CAPACITY);
static RINGS: Mutex<BTreeMap<String, Ring>> = Mutex::new(BTreeMap::new());
/// Events held by rings evicted since the last clear (updated under the
/// `RINGS` lock).
static EVICTED: AtomicU64 = AtomicU64::new(0);

/// One recorded flight event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Globally monotone sequence number (total order across sources).
    pub seq: u64,
    /// Microseconds since the process trace epoch.
    pub t_us: u64,
    /// The ring this event belongs to, e.g. `conn-12` or `pool-w3`.
    pub source: String,
    /// Short machine-readable kind, e.g. `frame`, `panic`, `reject`.
    pub kind: String,
    /// Free-form detail (request ids, error text).
    pub detail: String,
}

impl FlightEvent {
    /// Converts to the JSONL [`Event::Flight`] form.
    pub fn to_event(&self) -> Event {
        Event::Flight {
            seq: self.seq,
            t_us: self.t_us,
            source: self.source.clone(),
            kind: self.kind.clone(),
            detail: self.detail.clone(),
        }
    }
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<FlightEvent>,
    /// Events overwritten since the ring was created.
    dropped: u64,
}

fn lock_rings() -> std::sync::MutexGuard<'static, BTreeMap<String, Ring>> {
    RINGS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Turns flight recording on or off (off is the default; when off,
/// [`flight_record`] is a single relaxed atomic load).
pub fn set_flight_enabled(on: bool) {
    FLIGHT_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether flight recording is enabled.
pub fn flight_enabled() -> bool {
    FLIGHT_ENABLED.load(Ordering::Relaxed)
}

/// Sets the per-source ring capacity (existing rings shrink lazily as
/// they record). Clamped to at least 1.
pub fn set_flight_capacity(cap: usize) {
    FLIGHT_CAPACITY.store(cap.max(1), Ordering::Relaxed);
}

/// The current per-source ring capacity.
pub fn flight_capacity() -> usize {
    FLIGHT_CAPACITY.load(Ordering::Relaxed)
}

/// Records one event into `source`'s ring (no-op when disabled). The
/// oldest event is overwritten once the ring is at capacity; a source
/// without a ring evicts the stalest one once [`MAX_FLIGHT_RINGS`] exist.
pub fn flight_record(source: &str, kind: &str, detail: impl Into<String>) {
    if !flight_enabled() {
        return;
    }
    let ev = FlightEvent {
        seq: FLIGHT_SEQ.fetch_add(1, Ordering::Relaxed),
        t_us: crate::epoch().elapsed().as_micros() as u64,
        source: source.to_string(),
        kind: kind.to_string(),
        detail: detail.into(),
    };
    let cap = flight_capacity();
    let mut rings = lock_rings();
    if rings.len() >= MAX_FLIGHT_RINGS && !rings.contains_key(source) {
        evict_stalest(&mut rings);
    }
    let ring = rings.entry(ev.source.clone()).or_default();
    while ring.events.len() >= cap {
        ring.events.pop_front();
        ring.dropped += 1;
    }
    ring.events.push_back(ev);
}

/// Drops the ring whose newest event is oldest, counting its events as
/// dropped.
fn evict_stalest(rings: &mut BTreeMap<String, Ring>) {
    let stalest = rings
        .iter()
        .min_by_key(|(_, r)| r.events.back().map_or(0, |e| e.seq))
        .map(|(source, _)| source.clone());
    if let Some(ring) = stalest.and_then(|source| rings.remove(&source)) {
        EVICTED.fetch_add(ring.events.len() as u64 + ring.dropped, Ordering::Relaxed);
    }
}

/// Every retained event across all rings, in global sequence order.
pub fn flight_events() -> Vec<FlightEvent> {
    let rings = lock_rings();
    let mut out: Vec<FlightEvent> = rings
        .values()
        .flat_map(|r| r.events.iter().cloned())
        .collect();
    out.sort_by_key(|e| e.seq);
    out
}

/// Total events overwritten or evicted since the last clear (how much
/// history the capacity and ring-count bounds cost).
pub fn flight_dropped() -> u64 {
    let rings = lock_rings();
    rings.values().map(|r| r.dropped).sum::<u64>() + EVICTED.load(Ordering::Relaxed)
}

/// Drops every ring and resets the sequence counter.
pub fn flight_clear() {
    let mut rings = lock_rings();
    rings.clear();
    EVICTED.store(0, Ordering::Relaxed);
    FLIGHT_SEQ.store(1, Ordering::Relaxed);
}

/// Renders the retained events as a JSONL document (one
/// [`Event::Flight`] line per event, sequence order) — the `flight-*.jsonl`
/// dump format.
pub fn flight_render() -> String {
    let mut out = String::new();
    for e in flight_events() {
        out.push_str(&e.to_event().render_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Flight state is global; tests must not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let _x = exclusive();
        flight_clear();
        set_flight_enabled(false);
        flight_record("conn-1", "frame", "diagnose id=1");
        assert!(flight_events().is_empty());
    }

    #[test]
    fn rings_overwrite_oldest_at_capacity() {
        let _x = exclusive();
        flight_clear();
        set_flight_enabled(true);
        set_flight_capacity(3);
        for i in 0..5 {
            flight_record("conn-1", "frame", format!("req {i}"));
        }
        flight_record("pool-w0", "job", "seq 9");
        set_flight_enabled(false);
        let events = flight_events();
        // conn-1 kept its newest 3; pool-w0 kept its 1.
        assert_eq!(events.len(), 4);
        assert_eq!(flight_dropped(), 2);
        let conn: Vec<&str> = events
            .iter()
            .filter(|e| e.source == "conn-1")
            .map(|e| e.detail.as_str())
            .collect();
        assert_eq!(conn, ["req 2", "req 3", "req 4"]);
        // Global sequence order is a total order across sources.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        set_flight_capacity(DEFAULT_FLIGHT_CAPACITY);
        flight_clear();
    }

    #[test]
    fn ring_count_is_capped_by_evicting_the_stalest_source() {
        let _x = exclusive();
        flight_clear();
        set_flight_enabled(true);
        // One ring per connection, as a server records them, while the
        // `serve` ring stays active and is never the stalest.
        let conns = MAX_FLIGHT_RINGS + 10;
        for i in 0..conns {
            flight_record(&format!("conn-{i}"), "admit", "id=1");
            flight_record("serve", "tick", format!("{i}"));
        }
        set_flight_enabled(false);
        let events = flight_events();
        let sources: std::collections::BTreeSet<&str> =
            events.iter().map(|e| e.source.as_str()).collect();
        assert_eq!(sources.len(), MAX_FLIGHT_RINGS, "ring count is capped");
        assert!(sources.contains("serve"), "the active ring survives");
        // The 11 connections that went quiet first lost their rings.
        let evicted = conns + 1 - MAX_FLIGHT_RINGS;
        for i in 0..conns {
            let kept = sources.contains(format!("conn-{i}").as_str());
            assert_eq!(kept, i >= evicted, "conn-{i}");
        }
        assert_eq!(flight_dropped(), evicted as u64, "evicted events count");
        assert_eq!(events.len(), conns + MAX_FLIGHT_RINGS - 1);
        flight_clear();
    }

    #[test]
    fn rendered_dump_round_trips_through_the_event_codec() {
        let _x = exclusive();
        flight_clear();
        set_flight_enabled(true);
        flight_record("conn-2", "reject", "bad length prefix");
        flight_record("pool-w1", "panic", "chaos seq 97");
        set_flight_enabled(false);
        let dump = flight_render();
        let parsed = crate::report::parse_jsonl(&dump).expect("dump parses");
        assert_eq!(parsed.len(), 2);
        assert!(matches!(&parsed[1], Event::Flight { kind, .. } if kind == "panic"));
        flight_clear();
    }
}
