//! Event-driven transition-delay fault simulation.
//!
//! Faults are simulated against the fault-free two-frame baseline: a fault
//! is *activated* in the lanes where its site has the sensitizing
//! transition; in those lanes the site's frame-2 value is delayed (held at
//! its frame-1 value), and the difference is propagated event-driven through
//! the frame-2 logic to the scan-capture points. Activation is evaluated on
//! the fault-free frames — the standard single-transition approximation of
//! TDF simulation.
//!
//! One propagation covers a range of pattern blocks: each net it touches
//! carries a row of lane words, one per block, so the gates a fault
//! reaches are queued and evaluated once for all of its patterns instead
//! of once per block.

use std::ops::Range;

use m3d_dft::{ObsMode, ObsPoint, ScanChains};
use m3d_netlist::{FlopId, GateId, GateKind, SiteId};
use m3d_part::{M3dDesign, TopEdge};

use crate::fault::{injection_scope, site_net, Fault, InjectionScope, Polarity};
use crate::log::{FailEntry, ObsWord, Signature};
use crate::pattern::{PatternId, PatternSet};
use crate::sim::{GoodMachine, Simulator};

/// One failing scan capture: pattern id plus the failing cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Detection {
    /// The failing pattern.
    pub pattern: PatternId,
    /// The scan cell that captured a faulty value.
    pub flop: FlopId,
}

/// Blocks per task of [`FaultSim::try_detections_par`]: eight lane words
/// make a row one 64-byte cache line.
const PAR_BLOCKS: usize = 8;

/// Reusable scratch state for fault propagation over a compiled netlist.
///
/// A call covers a range of pattern blocks of a [`GoodMachine`] and
/// propagates one row of lane words per net, one word per block in the
/// range. The overlay is sparse: a net the propagation touches gets one
/// row, so scratch grows with the frontier, not with nets × blocks.
///
/// Create one per worker and reuse it across faults; every call resets
/// only the entries it touched. The compiled netlist ([`Simulator`]) is
/// borrowed, so it is built once per [`FaultSim`] or ATPG run and a
/// detector only allocates scratch.
#[derive(Debug)]
pub struct BlockDetector<'a> {
    design: &'a M3dDesign,
    sim: &'a Simulator<'a>,
    /// The first block the current call covers.
    first: usize,
    /// How many blocks the current call covers: the width of every row.
    width: usize,
    /// Per net: whether it has a row in `rows`.
    dirty: Vec<bool>,
    /// Per net: its row in `rows`; valid only where `dirty`.
    slot: Vec<u32>,
    /// Faulty frame-2 rows of the touched nets, in slot order.
    rows: Vec<u64>,
    /// The nets holding a slot, in slot order.
    touched: Vec<u32>,
    /// One gate's evaluated row.
    eval: Vec<u64>,
    /// Per compiled gate: whether it waits in `buckets`.
    queued: Vec<bool>,
    /// The event queue: compiled gates to evaluate, one bucket per logic
    /// level. A gate's inputs are driven from lower levels only, so
    /// draining the buckets in level order evaluates each gate once, after
    /// every change that reaches it.
    buckets: Vec<Vec<u32>>,
    /// The lowest level holding a gate, and one past the highest.
    pending: (usize, usize),
    /// Input-pin flips on compiled gates, sorted by key = gate << 8 | pin,
    /// each with its row in `flip_rows`.
    pin_flips: Vec<(u64, u32)>,
    /// D-pin flips, sorted by flop index.
    d_flips: Vec<(u32, u32)>,
    /// Output-pin (stem) flips, sorted by net.
    net_flips: Vec<(u32, u32)>,
    /// The flip rows.
    flip_rows: Vec<u64>,
    /// One fault's activation row.
    act: Vec<u64>,
    /// Scratch for candidate-flop collection.
    cand_flops: Vec<u32>,
    /// Flops whose capture differs after the last call, ascending.
    hit_flops: Vec<u32>,
    /// The differing lanes of each hit flop: one row per flop.
    hit_rows: Vec<u64>,
    /// One block's observation words, for [`FaultSim::signatures`].
    obs_words: Vec<(ObsPoint, u64)>,
    /// Gates evaluated since the last [`BlockDetector::take_gate_evals`].
    gate_evals: u64,
}

impl<'a> BlockDetector<'a> {
    /// Creates propagation scratch for `design` over its compiled netlist
    /// `sim`.
    pub fn new(design: &'a M3dDesign, sim: &'a Simulator<'a>) -> Self {
        BlockDetector {
            design,
            sim,
            first: 0,
            width: 1,
            dirty: vec![false; design.netlist().net_count()],
            slot: vec![0; design.netlist().net_count()],
            rows: Vec::new(),
            touched: Vec::new(),
            eval: Vec::new(),
            queued: vec![false; sim.gate_count()],
            buckets: vec![Vec::new(); sim.level_count()],
            pending: (usize::MAX, 0),
            pin_flips: Vec::new(),
            d_flips: Vec::new(),
            net_flips: Vec::new(),
            flip_rows: Vec::new(),
            act: Vec::new(),
            cand_flops: Vec::new(),
            hit_flops: Vec::new(),
            hit_rows: Vec::new(),
            obs_words: Vec::new(),
            gate_evals: 0,
        }
    }

    /// Gate evaluations since the last call, which resets the count. One
    /// evaluation of a gate over a row of blocks counts once.
    pub fn take_gate_evals(&mut self) -> u64 {
        std::mem::take(&mut self.gate_evals)
    }

    /// Starts a call over `blocks`.
    fn begin(&mut self, blocks: Range<usize>) {
        debug_assert!(self.touched.is_empty() && self.flip_rows.is_empty());
        self.first = blocks.start;
        self.width = blocks.len();
    }

    /// Net `net`'s frame-2 row over the call's blocks: its overlay row if
    /// it is dirty, its fault-free row otherwise.
    #[inline]
    fn row<'r>(&'r self, good: &'r GoodMachine, net: u32) -> &'r [u64] {
        let (n, width) = (net as usize, self.width);
        if self.dirty[n] {
            let at = self.slot[n] as usize * width;
            &self.rows[at..at + width]
        } else {
            let at = n * good.blocks + self.first;
            &good.f2[at..at + width]
        }
    }

    /// Gives `net` the frame-2 row `value`, one word per block of the
    /// call.
    #[inline]
    fn set_row(&mut self, net: u32, value: &[u64]) {
        let n = net as usize;
        if !self.dirty[n] {
            self.dirty[n] = true;
            self.slot[n] = self.touched.len() as u32;
            self.touched.push(net);
            self.rows.extend_from_slice(value);
        } else {
            let at = self.slot[n] as usize * value.len();
            self.rows[at..at + value.len()].copy_from_slice(value);
        }
    }

    /// Delays input `pin` of `gate` on the `flip` row. A combinational
    /// gate is queued; a flop's D pin joins the capture compare; other
    /// pins (primary outputs) observe nothing at speed.
    fn add_pin_flip(&mut self, gate: GateId, pin: u8, flip: &[u64]) {
        if let Some(t) = self.sim.topo_pos(gate) {
            let key = pin_key(t, usize::from(pin));
            add_flip(&mut self.pin_flips, &mut self.flip_rows, key, flip);
            self.push(t);
        } else if pin == 0 {
            if let Some(f) = self.design.netlist().flop_of(gate) {
                let key = f.index() as u32;
                add_flip(&mut self.d_flips, &mut self.flip_rows, key, flip);
            }
        }
    }

    #[inline]
    fn push(&mut self, t: u32) {
        if std::mem::replace(&mut self.queued[t as usize], true) {
            return;
        }
        let level = self.sim.level(t) as usize;
        self.buckets[level].push(t);
        self.pending = (self.pending.0.min(level), self.pending.1.max(level + 1));
    }

    /// Seeds the frame-2 flip of one injection scope on the `act` row.
    ///
    /// An output-pin (stem) flip is written into the net's row once. If
    /// another injected fault's effect later reaches the stem's driver in
    /// a block, the driver's re-evaluated output replaces the flipped
    /// word there ([`BlockDetector::hold_stem`]): with several faults, a
    /// stem fault holds only while its driver sees no faulty input.
    /// Input-pin flips are applied on every evaluation.
    fn seed(&mut self, good: &GoodMachine, scope: &InjectionScope, act: &[u64]) {
        match scope {
            InjectionScope::Net(n) => {
                let net = n.index() as u32;
                let mut value = std::mem::take(&mut self.eval);
                value.clear();
                value.extend(self.row(good, net).iter().zip(act).map(|(&v, &a)| v ^ a));
                self.set_row(net, &value);
                self.eval = value;
                for &t in self.sim.sinks(net) {
                    self.push(t);
                }
            }
            InjectionScope::Branch(g, pin) => self.add_pin_flip(*g, *pin, act),
            InjectionScope::MivBranches(branches) => {
                for &(g, pin) in branches {
                    self.add_pin_flip(g, pin, act);
                }
            }
        }
    }

    /// Propagates the seeded flips and compares the captures: the one
    /// event-driven pass, instantiated for rows of one word when the table
    /// has one block (ATPG's sweep, on every call) and for rows of any
    /// width otherwise. Afterwards [`BlockDetector::hits`] holds every
    /// capture that differs, and the rest of the scratch is reset.
    fn run(&mut self, good: &GoodMachine) {
        if good.blocks == 1 {
            self.propagate::<OneBlock>(good);
            self.compare::<OneBlock>(good);
        } else {
            self.propagate::<Blocks>(good);
            self.compare::<Blocks>(good);
        }
    }

    /// Event-driven frame-2 propagation: drains the level buckets in
    /// ascending order, evaluating each queued gate once over the call's
    /// row of blocks, its input rows read as `W` reads them.
    fn propagate<W: Width>(&mut self, good: &GoodMachine) {
        let width = W::width(self);
        let sim = self.sim;
        let mut eval = std::mem::take(&mut self.eval);
        eval.clear();
        eval.resize(width, 0);
        let new = &mut eval[..width];
        let mut level = self.pending.0;
        while level < self.pending.1 {
            let mut bucket = std::mem::take(&mut self.buckets[level]);
            self.gate_evals += bucket.len() as u64;
            for &t in &bucket {
                self.queued[t as usize] = false;
                let (kind, ins, out) = sim.gate(t);
                let mut pins = [W::empty(); 4];
                for (pin, &n) in pins.iter_mut().zip(ins) {
                    *pin = W::row(self, good, n);
                }
                let pins = &pins[..ins.len()];
                let current = W::row(self, good, out);
                let mut changed = if self.has_pin_flip(t) {
                    let mut flips: [Option<&[u64]>; 4] = [None; 4];
                    for (pin, flip) in flips[..pins.len()].iter_mut().enumerate() {
                        *flip = self.flip(&self.pin_flips, pin_key(t, pin));
                    }
                    eval_gate::<W>(kind, pins, Some(&flips), current, new)
                } else {
                    eval_gate::<W>(kind, pins, None, current, new)
                };
                if changed != 0 && self.dirty[out as usize] {
                    // Only a seed dirties a net before its driver runs,
                    // and keeping its seeded words changes nothing that
                    // is unchanged already.
                    self.hold_stem(good, t, new);
                    changed = new
                        .iter()
                        .enumerate()
                        .fold(0, |acc, (w, &v)| acc | (v ^ W::word(current, w)));
                }
                if changed == 0 {
                    continue;
                }
                self.set_row(out, new);
                for &s in sim.sinks(out) {
                    self.push(s);
                }
            }
            bucket.clear();
            self.buckets[level] = bucket;
            level += 1;
        }
        self.pending = (usize::MAX, 0);
        self.eval = eval;
    }

    /// Keeps a stem flip where its driver, compiled gate `t`, is not
    /// re-evaluated: in each block where no input of `t` is disturbed —
    /// no flipped pin, no seeded input net, no input off its fault-free
    /// value — `new` takes the seeded word back. Only a multi-fault
    /// injection reaches a seeded net's driver.
    fn hold_stem(&self, good: &GoodMachine, t: u32, new: &mut [u64]) {
        let (_, ins, out) = self.sim.gate(t);
        let seeded = self.row(good, out);
        for (w, word) in new.iter_mut().enumerate() {
            let disturbed = ins.iter().enumerate().any(|(pin, &n)| {
                let flipped = |f: Option<&[u64]>| f.is_some_and(|f| f[w] != 0);
                flipped(self.flip(&self.pin_flips, pin_key(t, pin)))
                    || flipped(self.flip(&self.net_flips, n))
                    || self.row(good, n)[w] != good.f2(n as usize)[self.first + w]
            });
            if !disturbed {
                *word = seeded[w];
            }
        }
    }

    /// Compares scan captures at the flops the propagation could have
    /// reached (touched D nets plus D-pin flips; an untouched flop
    /// captures the fault-free value by construction), fills the hits
    /// with every capture that differs, and resets the scratch.
    fn compare<W: Width>(&mut self, good: &GoodMachine) {
        let width = W::width(self);
        let (sim, first) = (self.sim, self.first);
        self.cand_flops.clear();
        for &n in &self.touched {
            self.cand_flops.extend_from_slice(sim.captures(n));
        }
        self.cand_flops
            .extend(self.d_flips.iter().map(|&(fi, _)| fi));
        self.cand_flops.sort_unstable();
        self.cand_flops.dedup();
        self.hit_flops.clear();
        self.hit_rows.clear();
        let lanes = &good.lanes()[first..first + width];
        let mut diff = std::mem::take(&mut self.eval);
        diff.clear();
        diff.resize(width, 0);
        for &fi in &self.cand_flops {
            let value = W::row(self, good, sim.flop_d_net(fi));
            let flip = self.flip(&self.d_flips, fi);
            let at = fi as usize * good.blocks + first;
            let capture = &good.capture[at..at + width];
            let mut any = 0;
            for (w, d) in diff.iter_mut().enumerate() {
                let val = W::word(value, w) ^ flip.map_or(0, |f| f[w]);
                *d = (val ^ capture[w]) & lanes[w];
                any |= *d;
            }
            if any != 0 {
                self.hit_flops.push(fi);
                for &d in &diff {
                    self.hit_rows.push(d);
                }
            }
        }
        self.eval = diff;
        for &n in &self.touched {
            self.dirty[n as usize] = false;
        }
        self.touched.clear();
        self.rows.clear();
        self.pin_flips.clear();
        self.d_flips.clear();
        self.net_flips.clear();
        self.flip_rows.clear();
    }

    /// Whether an input pin of compiled gate `t` is flipped.
    #[inline]
    fn has_pin_flip(&self, t: u32) -> bool {
        !self.pin_flips.is_empty() && {
            let i = self.pin_flips.partition_point(|&(k, _)| k < pin_key(t, 0));
            self.pin_flips
                .get(i)
                .is_some_and(|&(k, _)| k >> 8 == u64::from(t))
        }
    }

    /// The flip row `flips` holds for `key`, if any.
    #[inline]
    fn flip<K: Ord + Copy>(&self, flips: &[(K, u32)], key: K) -> Option<&[u64]> {
        flip_row(flips, &self.flip_rows, self.width, key)
    }

    /// The captures that differed in the last call: `(flop index,
    /// differing lanes per block of the call)`, ascending by flop.
    fn hits(&self) -> impl Iterator<Item = (usize, &[u64])> + '_ {
        self.hit_flops
            .iter()
            .zip(self.hit_rows.chunks_exact(self.width))
            .map(|(&fi, diff)| (fi as usize, diff))
    }

    /// Simulates `faults` simultaneously over `blocks` of `good` and
    /// returns the failing captures, sorted; `patterns` numbers them.
    ///
    /// Multiple faults model the paper's tier-specific systematic defects
    /// (Section VII-A); activation of each fault uses the fault-free frames.
    fn detect(
        &mut self,
        good: &GoodMachine,
        patterns: &PatternSet,
        blocks: Range<usize>,
        faults: &[Fault],
    ) -> Vec<Detection> {
        // Duplicate faults are skipped: stem injections flip bits, so a
        // repeated fault would otherwise cancel itself.
        let mut unique: Vec<Fault> = faults.to_vec();
        unique.sort_unstable();
        unique.dedup();
        self.begin(blocks.clone());
        let mut act = std::mem::take(&mut self.act);
        for fault in &unique {
            let net = site_net(self.design, fault.site).index();
            let trans = &good.transitions(net)[blocks.clone()];
            let f2 = &good.f2(net)[blocks.clone()];
            act.clear();
            act.extend(
                trans
                    .iter()
                    .zip(f2)
                    .map(|(&t, &v)| fault.polarity.activation(t, v)),
            );
            if act.iter().all(|&w| w == 0) {
                continue;
            }
            let scope = injection_scope(self.design, fault.site);
            if let InjectionScope::Net(n) = scope {
                // Another fault may reach this stem's driver.
                let net = n.index() as u32;
                add_flip(&mut self.net_flips, &mut self.flip_rows, net, &act);
            }
            self.seed(good, &scope, &act);
        }
        self.act = act;
        self.run(good);
        let mut detections = Vec::new();
        for (fi, diff) in self.hits() {
            for (block, &word) in blocks.clone().zip(diff) {
                let mut lanes = word;
                while lanes != 0 {
                    detections.push(Detection {
                        pattern: patterns.id_at(block, lanes.trailing_zeros() as u8),
                        flop: FlopId::new(fi),
                    });
                    lanes &= lanes - 1;
                }
            }
        }
        detections.sort_unstable();
        detections
    }

    /// Propagates a frame-2 flip at `site` on `lanes` of block `block` of
    /// `good` and returns the union, over all scan flops, of the lanes
    /// whose captures differ.
    ///
    /// Because the bit-parallel propagation is lane-wise independent, this
    /// one call answers detection for *both* polarities of the site at
    /// once: a polarity with activation mask `act ⊆ lanes` is detected iff
    /// `returned & act != 0`, exactly as if it had been propagated alone
    /// (the ATPG sweep relies on this to pay for each site's fanout cone
    /// once instead of once per fault).
    pub fn propagate_site_mask(
        &mut self,
        good: &GoodMachine,
        block: usize,
        site: SiteId,
        lanes: u64,
    ) -> u64 {
        if lanes == 0 {
            return 0;
        }
        self.begin(block..block + 1);
        self.seed(good, &injection_scope(self.design, site), &[lanes]);
        self.run(good);
        self.hit_rows.iter().fold(0, |acc, &diff| acc | diff)
    }
}

/// How a propagation reads net rows: [`OneBlock`] over a one-block
/// table, [`Blocks`] over any other. The event-driven loop is written once
/// over this trait; over one block a row is a plain word, which keeps
/// ATPG's sweep, one block on every call, as cheap as a loop written for
/// single words.
trait Width {
    /// A net's row as gate evaluation reads it.
    type Row<'r>: Copy;
    /// The row of no net, for unused pins.
    fn empty<'r>() -> Self::Row<'r>;
    /// The width of `det`'s current call.
    fn width(det: &BlockDetector<'_>) -> usize;
    /// Net `net`'s frame-2 row over `det`'s current call.
    fn row<'r>(det: &'r BlockDetector<'_>, good: &'r GoodMachine, net: u32) -> Self::Row<'r>;
    /// Word `w` of `row`.
    fn word(row: Self::Row<'_>, w: usize) -> u64;
    /// A gate of kind `kind` evaluated on word `w` of its input rows.
    fn eval(kind: GateKind, pins: &[Self::Row<'_>], w: usize) -> u64;
}

/// A call over a one-block table: a row is one word.
struct OneBlock;

impl Width for OneBlock {
    type Row<'r> = u64;

    #[inline]
    fn empty<'r>() -> Self::Row<'r> {
        0
    }

    #[inline]
    fn width(_: &BlockDetector<'_>) -> usize {
        1
    }

    #[inline]
    fn row(det: &BlockDetector<'_>, good: &GoodMachine, net: u32) -> u64 {
        let n = net as usize;
        debug_assert_eq!(good.blocks, 1);
        if det.dirty[n] {
            det.rows[det.slot[n] as usize]
        } else {
            good.f2[n]
        }
    }

    #[inline]
    fn word(row: u64, _: usize) -> u64 {
        row
    }

    #[inline]
    fn eval(kind: GateKind, pins: &[u64], _: usize) -> u64 {
        kind.eval(pins)
    }
}

/// A call over blocks of a wider table: a row is a slice of words.
struct Blocks;

impl Width for Blocks {
    type Row<'r> = &'r [u64];

    #[inline]
    fn empty<'r>() -> Self::Row<'r> {
        &[]
    }

    #[inline]
    fn width(det: &BlockDetector<'_>) -> usize {
        det.width
    }

    #[inline]
    fn row<'r>(det: &'r BlockDetector<'_>, good: &'r GoodMachine, net: u32) -> &'r [u64] {
        det.row(good, net)
    }

    #[inline]
    fn word(row: &[u64], w: usize) -> u64 {
        row[w]
    }

    #[inline]
    fn eval(kind: GateKind, pins: &[&[u64]], w: usize) -> u64 {
        let mut words = [0u64; 4];
        for (x, row) in words.iter_mut().zip(pins) {
            *x = row[w];
        }
        kind.eval(&words[..pins.len()])
    }
}

/// Evaluates a gate of kind `kind` word by word over its input rows
/// `pins` into `new`, XORing the flip rows `flips` into its inputs where
/// it has any, and returns the OR of `new`'s differences from the
/// `current` row.
#[inline(always)]
fn eval_gate<W: Width>(
    kind: GateKind,
    pins: &[W::Row<'_>],
    flips: Option<&[Option<&[u64]>; 4]>,
    current: W::Row<'_>,
    new: &mut [u64],
) -> u64 {
    let mut changed = 0;
    for (w, word) in new.iter_mut().enumerate() {
        *word = match flips {
            None => W::eval(kind, pins, w),
            Some(flips) => {
                let mut words = [0u64; 4];
                for ((x, &row), flip) in words.iter_mut().zip(pins).zip(flips) {
                    *x = W::word(row, w) ^ flip.map_or(0, |f| f[w]);
                }
                kind.eval(&words[..pins.len()])
            }
        };
        changed |= *word ^ W::word(current, w);
    }
    changed
}

/// The key of input `pin` of compiled gate `t` in a pin-flip list.
#[inline]
fn pin_key(t: u32, pin: usize) -> u64 {
    u64::from(t) << 8 | pin as u64
}

/// The `width`-word row a key-sorted flip list records for `key`, if any.
#[inline]
fn flip_row<'r, K: Ord + Copy>(
    flips: &[(K, u32)],
    rows: &'r [u64],
    width: usize,
    key: K,
) -> Option<&'r [u64]> {
    let i = flips.binary_search_by_key(&key, |&(k, _)| k).ok()?;
    let at = flips[i].1 as usize * width;
    Some(&rows[at..at + width])
}

/// ORs the `flip` row into `key`'s row of a key-sorted flip list, adding
/// the row if the key has none: the lists stay sorted so propagation looks
/// flips up in O(log n), and flips several faults put on one pin combine.
fn add_flip<K: Ord + Copy>(flips: &mut Vec<(K, u32)>, rows: &mut Vec<u64>, key: K, flip: &[u64]) {
    let width = flip.len();
    match flips.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(i) => {
            let at = flips[i].1 as usize * width;
            for (w, &f) in rows[at..at + width].iter_mut().zip(flip) {
                *w |= f;
            }
        }
        Err(i) => {
            flips.insert(i, (key, (rows.len() / width) as u32));
            rows.extend_from_slice(flip);
        }
    }
}

/// Per-site support of a failure log, from
/// [`FaultSim::active_site_counts`] or
/// [`FaultSim::active_site_intersection`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ActiveSiteCounts {
    /// `(site, supporting entries)`: from the count, every site supporting
    /// at least one entry, in no particular order; from the intersection,
    /// the sites supporting every entry, ascending, each with `entries`.
    pub sites: Vec<(SiteId, u32)>,
    /// Failing `(pattern, observation)` pairs counted: those whose
    /// pattern and scan cells exist.
    pub entries: u32,
    /// Distinct observation points among the counted entries.
    pub obs_points: u32,
}

/// One observation point of a failure log that names existing scan cells,
/// from [`FaultSim::obs_groups`].
struct ObsGroup {
    /// The scan cells the point observes.
    cells: Vec<FlopId>,
    /// `(block, failing lanes)` per word, in ascending block order.
    words: Vec<(usize, u64)>,
}

impl ObsGroup {
    /// Number of failing `(pattern, observation)` pairs.
    fn entries(&self) -> u32 {
        self.words
            .iter()
            .map(|&(_, lanes)| lanes.count_ones())
            .sum()
    }

    /// Failing lanes in which a net with transition row `row` transitions.
    fn hits(&self, row: &[u64]) -> u32 {
        self.words
            .iter()
            .map(|&(b, lanes)| (row[b] & lanes).count_ones())
            .sum()
    }

    /// Whether a net with transition row `row` transitions in every
    /// failing lane.
    fn covered_by(&self, row: &[u64]) -> bool {
        self.words.iter().all(|&(b, lanes)| row[b] & lanes == lanes)
    }
}

/// Fault simulation over a full pattern set, with the fault-free baseline
/// cached as one net-major [`GoodMachine`] table.
///
/// # Examples
///
/// ```
/// use m3d_netlist::generate::Benchmark;
/// use m3d_part::DesignConfig;
/// use m3d_tdf::{full_fault_list, FaultSim, PatternSet};
///
/// let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
/// let patterns = PatternSet::random(design.netlist(), 64, 1);
/// let sim = FaultSim::new(&design, &patterns);
/// let fault = full_fault_list(&design)[0];
/// let _hits = sim.detections(&mut sim.detector(), &[fault]);
/// ```
#[derive(Debug)]
pub struct FaultSim<'a> {
    design: &'a M3dDesign,
    patterns: &'a PatternSet,
    /// The compiled netlist, shared by the good-machine baseline and every
    /// detector's faulty-machine propagation.
    sim: Simulator<'a>,
    good: GoodMachine,
    /// The net of each site ([`site_net`]), so cone walks skip the gate
    /// lookups.
    site_nets: Vec<u32>,
}

impl<'a> FaultSim<'a> {
    /// Compiles the netlist and runs the fault-free baseline over every
    /// block, fanned across the `m3d-par` pool ([`Simulator::run_blocks`]:
    /// blocks land in block order, so the baseline is identical at any
    /// thread count).
    pub fn new(design: &'a M3dDesign, patterns: &'a PatternSet) -> Self {
        let sim = Simulator::new(design.netlist());
        let good = sim.run_blocks(patterns.blocks());
        let site_nets = design
            .sites()
            .iter()
            .map(|(site, _)| site_net(design, site).index() as u32)
            .collect();
        FaultSim {
            design,
            patterns,
            sim,
            good,
            site_nets,
        }
    }

    /// The design under simulation.
    #[inline]
    pub fn design(&self) -> &'a M3dDesign {
        self.design
    }

    /// The simulated pattern set.
    #[inline]
    pub fn patterns(&self) -> &'a PatternSet {
        self.patterns
    }

    /// The cached fault-free baseline.
    #[inline]
    pub fn good(&self) -> &GoodMachine {
        &self.good
    }

    /// Creates reusable propagation scratch over this simulator's compiled
    /// netlist.
    pub fn detector(&self) -> BlockDetector<'_> {
        BlockDetector::new(self.design, &self.sim)
    }

    /// Simulates an injected fault set against every pattern and returns
    /// all failing `(pattern, flop)` captures, sorted: one propagation
    /// over every block.
    pub fn detections(&self, detector: &mut BlockDetector<'_>, faults: &[Fault]) -> Vec<Detection> {
        let blocks = 0..self.good.block_count();
        detector.detect(&self.good, self.patterns, blocks, faults)
    }

    /// The failure signatures of both single faults at `site`, indexed
    /// like [`Polarity::ALL`], as a tester observes them through `scan` in
    /// `mode`: the word form of
    /// `FailureLog::from_detections(&self.detections(det, &[fault]), scan, mode)`.
    ///
    /// One propagation over every block, seeded with the union of both
    /// polarities' activation lanes, answers both: the rising and falling
    /// activations (`trans & f2`, `trans & !f2`) are disjoint and the
    /// propagation is lane-wise independent, so masking the differing
    /// lanes by each polarity's activation gives each fault's own
    /// failures. Each block's differing captures then map to observation
    /// words with [`ScanChains::observe_words`], in ascending block order,
    /// so no per-pattern detection list is built.
    pub fn signatures(
        &self,
        det: &mut BlockDetector<'_>,
        site: SiteId,
        scan: &ScanChains,
        mode: ObsMode,
    ) -> [Signature; 2] {
        let net = self.site_nets[site.index()] as usize;
        let (trans, f2) = (self.good.transitions(net), self.good.f2(net));
        let mut sigs = [Signature::default(), Signature::default()];
        if trans.iter().all(|&w| w == 0) {
            return sigs;
        }
        det.begin(0..self.good.block_count());
        det.seed(&self.good, &injection_scope(self.design, site), trans);
        det.run(&self.good);
        let mut words = std::mem::take(&mut det.obs_words);
        for (block, (&t, &v)) in trans.iter().zip(f2).enumerate() {
            // A block without activation has no differing capture.
            if t == 0 {
                continue;
            }
            let hits = det
                .hits()
                .map(|(fi, diff)| (FlopId::new(fi), diff[block]))
                .filter(|&(_, diff)| diff != 0);
            scan.observe_words(hits, mode, &mut words);
            for (sig, p) in sigs.iter_mut().zip(Polarity::ALL) {
                let lanes = p.activation(t, v);
                for &(obs, diff) in &words {
                    sig.push(block as u32, obs, diff & lanes);
                }
            }
        }
        det.obs_words = words;
        sigs
    }

    /// The activation support of both single faults at `site` against a
    /// failure log in word form, indexed like [`Polarity::ALL`]: how many
    /// of the log's failures fall in patterns that activate the polarity,
    /// `Σ popcount(activation(trans, f2) & lanes)` over the log's words.
    ///
    /// It bounds each polarity's explained failures (`tfsf`) from above:
    /// [`FaultSim::signatures`] masks each polarity's words by its
    /// activation lanes, so no predicted failure falls outside them and
    /// `signatures(det, site, scan, mode)[p].overlap(log)` never exceeds
    /// `activation_support(site, log)[p]`, in either mode. It reads one
    /// transition word per log word and propagates nothing.
    pub fn activation_support(&self, site: SiteId, log: &Signature) -> [u32; 2] {
        let net = self.site_nets[site.index()] as usize;
        let (trans, f2) = (self.good.transitions(net), self.good.f2(net));
        let mut support = [0u32; 2];
        for w in log.words() {
            let block = w.block as usize;
            for (s, p) in support.iter_mut().zip(Polarity::ALL) {
                *s += (p.activation(trans[block], f2[block]) & w.lanes).count_ones();
            }
        }
        support
    }

    /// Like [`FaultSim::detections`], but fans ranges of eight blocks
    /// across the `m3d_par` pool with one [`BlockDetector`] scratch per
    /// worker. Results are identical to the serial method (blocks are
    /// independent and the ranges are reassembled in block order).
    ///
    /// # Panics
    ///
    /// Re-raises a worker panic (with its chunk index) after the sibling
    /// ranges finish; use [`FaultSim::try_detections_par`] to receive it as
    /// a typed error instead.
    pub fn detections_par(&self, faults: &[Fault]) -> Vec<Detection> {
        self.try_detections_par(faults)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panic-containing [`FaultSim::detections_par`]: a panic in any
    /// propagation worker is caught per chunk and returned as a typed
    /// [`m3d_par::WorkerPanic`] naming the chunk, deterministically at any
    /// thread count (the ranges depend only on the block count), while
    /// sibling ranges complete.
    ///
    /// # Errors
    ///
    /// The first (lowest-chunk-index) worker panic.
    pub fn try_detections_par(
        &self,
        faults: &[Fault],
    ) -> Result<Vec<Detection>, m3d_par::WorkerPanic> {
        let mut span = m3d_obs::span("fault_simulation");
        span.add("faults", faults.len() as u64);
        let blocks = self.good.block_count();
        span.add("blocks", blocks as u64);
        let start = std::time::Instant::now();
        let ranges: Vec<Range<usize>> = (0..blocks)
            .step_by(PAR_BLOCKS)
            .map(|b| b..(b + PAR_BLOCKS).min(blocks))
            .collect();
        let per_range = m3d_par::try_par_map_init(
            &ranges,
            || self.detector(),
            |det, range| det.detect(&self.good, self.patterns, range.clone(), faults),
        )?;
        let out: Vec<Detection> = per_range.into_iter().flatten().collect();
        span.add("detections", out.len() as u64);
        m3d_obs::counter("tdf.fsim.calls", 1);
        m3d_obs::counter("tdf.fsim.detections", out.len() as u64);
        let secs = start.elapsed().as_secs_f64();
        if secs > 0.0 {
            m3d_obs::gauge("tdf.fsim.detections_per_s", out.len() as f64 / secs);
        }
        Ok(out)
    }

    /// Counts, for every fault site, the failures of a log it could
    /// explain: the failing `(pattern, observation)` pairs whose pattern
    /// makes the site transition (fault-free) and whose observation
    /// point's candidate scan cells have the site in their `cone`. A site
    /// in the cones of several cells of one compacted observation counts
    /// once per failure.
    ///
    /// `log` is the failure log in word form ([`Signature::from_log`],
    /// which drops patterns outside this set). Observation points naming
    /// no scan cell of this design ([`FaultSim::entry_in_range`]) are
    /// skipped and are not in [`ActiveSiteCounts::entries`].
    ///
    /// A delay fault fails the same few observation points across many
    /// patterns, so the words are grouped by observation point and the
    /// union of each point's cones is walked once, adding
    /// `popcount(transition & lanes)` per site and word into a dense
    /// counter. A site's transition words are one net-major row, found
    /// through the per-site net index, so each cone site costs one short
    /// contiguous read. Scratch is per call, so concurrent calls share
    /// nothing.
    pub fn active_site_counts<I>(
        &self,
        log: &Signature,
        scan: &ScanChains,
        cone: impl Fn(FlopId) -> I,
    ) -> ActiveSiteCounts
    where
        I: IntoIterator<Item = SiteId>,
    {
        let groups = self.obs_groups(log, scan);
        let mut counts = ActiveSiteCounts {
            sites: Vec::new(),
            entries: groups.iter().map(ObsGroup::entries).sum(),
            obs_points: groups.len() as u32,
        };
        let site_count = self.design.sites().len();
        let mut count = vec![0u32; site_count];
        // Per-site stamp of the last observation group that visited it.
        let mut visited = vec![0u32; site_count];
        for (stamp, group) in (1..).zip(&groups) {
            for &flop in &group.cells {
                for site in cone(flop) {
                    if visited[site.index()] == stamp {
                        continue;
                    }
                    visited[site.index()] = stamp;
                    let hits = group.hits(self.site_row(site));
                    if hits == 0 {
                        continue;
                    }
                    if count[site.index()] == 0 {
                        counts.sites.push((site, 0));
                    }
                    count[site.index()] += hits;
                }
            }
        }
        for (site, c) in &mut counts.sites {
            *c = count[site.index()];
        }
        counts
    }

    /// The sites that explain every failure of a log on their own: those
    /// in the `cone` of one of each observation point's scan cells that
    /// transition (fault-free) in every failing lane of the point. These
    /// are exactly the sites whose [`FaultSim::active_site_counts`] count
    /// over the same cones equals `entries`, which no count exceeds; each
    /// is listed with that count, in ascending site order. Observation
    /// points are grouped and skipped as the count does, and
    /// `entries` and `obs_points` are the count's.
    ///
    /// `cone(flop)` must be sorted by site, as [`m3d_part::FaninCones`]
    /// rows are. The walk starts from the point whose cells' cones are
    /// smallest in total, keeps the sites that pass its lane test, then
    /// filters them through every other point: a lane test and a binary
    /// search in its cells' cones. It stops once no site is left.
    pub fn active_site_intersection<'c>(
        &self,
        log: &Signature,
        scan: &ScanChains,
        cone: impl Fn(FlopId) -> &'c [TopEdge],
    ) -> ActiveSiteCounts {
        let groups = self.obs_groups(log, scan);
        let entries = groups.iter().map(ObsGroup::entries).sum();
        let mut counts = ActiveSiteCounts {
            sites: Vec::new(),
            entries,
            obs_points: groups.len() as u32,
        };
        let cone_size = |g: &ObsGroup| g.cells.iter().map(|&c| cone(c).len()).sum::<usize>();
        let Some(start) = (0..groups.len()).min_by_key(|&i| cone_size(&groups[i])) else {
            return counts;
        };
        let first = &groups[start];
        let mut sites: Vec<SiteId> = first
            .cells
            .iter()
            .flat_map(|&c| cone(c))
            .map(|te| te.site)
            .filter(|&site| first.covered_by(self.site_row(site)))
            .collect();
        sites.sort_unstable();
        sites.dedup();
        for (i, group) in groups.iter().enumerate() {
            if sites.is_empty() {
                break;
            }
            if i == start {
                continue;
            }
            sites.retain(|&site| {
                group.covered_by(self.site_row(site))
                    && group
                        .cells
                        .iter()
                        .any(|&c| cone(c).binary_search_by_key(&site, |te| te.site).is_ok())
            });
        }
        counts.sites = sites.into_iter().map(|site| (site, entries)).collect();
        counts
    }

    /// The words of `log` grouped by observation point, in ascending point
    /// order with ascending blocks inside each group, skipping points that
    /// name no scan cell of this design: the grouping both cone walks run
    /// over.
    fn obs_groups(&self, log: &Signature, scan: &ScanChains) -> Vec<ObsGroup> {
        let mut words: Vec<&ObsWord> = log.words().iter().collect();
        words.sort_unstable_by_key(|w| (w.obs, w.block));
        words
            .chunk_by(|a, b| a.obs == b.obs)
            .filter_map(|group| {
                let cells = self.obs_cells(scan, group[0].obs)?;
                let words = group.iter().map(|w| (w.block as usize, w.lanes)).collect();
                Some(ObsGroup { cells, words })
            })
            .collect()
    }

    /// The transition row of `site`'s net.
    #[inline]
    fn site_row(&self, site: SiteId) -> &[u64] {
        self.good.transitions(self.site_nets[site.index()] as usize)
    }

    /// Whether a log entry references a pattern and scan cells that exist
    /// in this test setup. Failure logs are *untrusted input* (they come
    /// from a tester datalog): diagnosis drops out-of-range entries with a
    /// degraded tag, and back-tracing skips them, rather than indexing out
    /// of bounds.
    ///
    /// A compacted observation naming no scan cell (a channel past the
    /// last, or a cycle past every chain of its channel) is out of range.
    pub fn entry_in_range(&self, scan: &ScanChains, entry: &FailEntry) -> bool {
        self.patterns.checked_locate(entry.pattern).is_some()
            && self.obs_cells(scan, entry.obs).is_some()
    }

    /// The scan cells `obs` observes, or `None` if it names none or names
    /// one this design lacks.
    fn obs_cells(&self, scan: &ScanChains, obs: ObsPoint) -> Option<Vec<FlopId>> {
        let flops = self.design.netlist().flops().len();
        let cells = scan.candidate_flops(obs);
        (!cells.is_empty() && cells.iter().all(|f| f.index() < flops)).then_some(cells)
    }

    /// Lanes of `block` in which `site` transitions (fault-free).
    #[inline]
    pub fn transition_mask(&self, site: SiteId, block: usize) -> u64 {
        self.site_row(site)[block]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{full_fault_list, Polarity};
    use m3d_netlist::generate::Benchmark;
    use m3d_netlist::{GateKind, SitePos};
    use m3d_part::DesignConfig;

    fn env() -> (M3dDesign, PatternSet) {
        let d = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let p = PatternSet::random(d.netlist(), 128, 17);
        (d, p)
    }

    #[test]
    fn unactivated_faults_produce_no_detections() {
        let (d, p) = env();
        let sim = FaultSim::new(&d, &p);
        let mut det = sim.detector();
        // A site that never transitions can never be detected.
        for (site, _) in d.sites().iter() {
            if sim.site_row(site).iter().all(|&w| w == 0) {
                for pol in Polarity::ALL {
                    assert!(sim
                        .detections(&mut det, &[Fault::new(site, pol)])
                        .is_empty());
                }
            }
        }
    }

    #[test]
    fn some_faults_are_detected() {
        let (d, p) = env();
        let sim = FaultSim::new(&d, &p);
        let mut det = sim.detector();
        let detected = full_fault_list(&d)
            .iter()
            .filter(|f| !sim.detections(&mut det, &[**f]).is_empty())
            .count();
        assert!(
            detected > d.sites().len() / 2,
            "random patterns should detect many faults, got {detected}"
        );
    }

    #[test]
    fn detection_requires_activation() {
        let (d, p) = env();
        let sim = FaultSim::new(&d, &p);
        let mut det = sim.detector();
        for f in full_fault_list(&d).iter().take(400) {
            let dets = sim.detections(&mut det, &[*f]);
            for dt in dets {
                let (blk, bit) = p.locate(dt.pattern);
                let net = site_net(&d, f.site);
                let act = f.polarity.activation(
                    sim.transition_mask(f.site, blk),
                    sim.good().f2(net.index())[blk],
                );
                assert_ne!(act & (1 << bit), 0, "detected without activation");
            }
        }
    }

    #[test]
    fn parallel_detections_match_serial_at_any_thread_count() {
        let (d, _) = env();
        // Ten blocks, the last partial: two block ranges.
        let p = PatternSet::random(d.netlist(), 600, 17);
        let sim = FaultSim::new(&d, &p);
        let mut det = sim.detector();
        let faults = full_fault_list(&d);
        let injected = [faults[11], faults[23], faults[44]];
        let serial = sim.detections(&mut det, &injected);
        for threads in [1, 3, 8] {
            let par = m3d_par::with_threads(threads, || sim.detections_par(&injected));
            assert_eq!(serial, par, "thread count {threads} changed detections");
        }
    }

    #[test]
    fn scratch_reset_makes_runs_independent() {
        let (d, p) = env();
        let sim = FaultSim::new(&d, &p);
        let mut det = sim.detector();
        let faults = full_fault_list(&d);
        let a = sim.detections(&mut det, &[faults[11]]);
        let _noise = sim.detections(&mut det, &[faults[23], faults[44]]);
        let b = sim.detections(&mut det, &[faults[11]]);
        assert_eq!(a, b, "detector state must fully reset between calls");
    }

    #[test]
    fn stem_fault_detections_superset_branch_single_sink() {
        // For a net with one sink, the output-pin fault and the input-pin
        // fault on that sink are equivalent.
        let (d, p) = env();
        let sim = FaultSim::new(&d, &p);
        let mut det = sim.detector();
        let nl = d.netlist();
        let mut checked = 0;
        for (site, pos) in d.sites().iter() {
            if checked >= 5 {
                break;
            }
            if let SitePos::Output(g) = pos {
                let Some(out) = nl.gate(g).output() else {
                    continue;
                };
                let sinks = nl.net(out).sinks();
                if sinks.len() != 1 {
                    continue;
                }
                let (sg, sp) = sinks[0];
                if !nl.gate(sg).kind().is_combinational() && nl.gate(sg).kind() != GateKind::Dff {
                    continue;
                }
                let branch_site = d.sites().input_site(sg, sp);
                for pol in Polarity::ALL {
                    let stem = sim.detections(&mut det, &[Fault::new(site, pol)]);
                    let branch = sim.detections(&mut det, &[Fault::new(branch_site, pol)]);
                    assert_eq!(stem, branch, "single-sink stem ≡ branch");
                }
                checked += 1;
            }
        }
        assert!(checked > 0, "test needs at least one single-sink net");
    }

    #[test]
    fn multi_fault_injection_detects_at_least_union_sites() {
        let (d, p) = env();
        let sim = FaultSim::new(&d, &p);
        let mut det = sim.detector();
        let faults = full_fault_list(&d);
        let f1 = faults[101];
        let f2 = faults[333];
        let both = sim.detections(&mut det, &[f1, f2]);
        let single1 = sim.detections(&mut det, &[f1]);
        if !single1.is_empty() && !both.is_empty() {
            // Multi-fault behaviour is not a strict union (masking exists),
            // but the joint injection must fail somewhere if f1 alone does.
            assert!(!both.is_empty());
        }
    }
}

#[cfg(test)]
mod polarity_tests {
    use super::*;
    use crate::fault::{Fault, Polarity};
    use crate::pattern::PatternSet;
    use m3d_netlist::generate::Benchmark;
    use m3d_part::DesignConfig;

    /// A slow-to-rise fault must only fail patterns where the site rises;
    /// the complementary polarity must fail a disjoint pattern set.
    #[test]
    fn polarities_fail_disjoint_pattern_sets() {
        let d = DesignConfig::Syn1.build_sized(Benchmark::Tate, Some(300));
        let p = PatternSet::random(d.netlist(), 192, 5);
        let sim = FaultSim::new(&d, &p);
        let mut det = sim.detector();
        let mut checked = 0;
        for (site, _) in d.sites().iter() {
            let rise: std::collections::BTreeSet<u32> = sim
                .detections(&mut det, &[Fault::new(site, Polarity::SlowToRise)])
                .into_iter()
                .map(|x| x.pattern)
                .collect();
            let fall: std::collections::BTreeSet<u32> = sim
                .detections(&mut det, &[Fault::new(site, Polarity::SlowToFall)])
                .into_iter()
                .map(|x| x.pattern)
                .collect();
            if rise.is_empty() || fall.is_empty() {
                continue;
            }
            assert!(
                rise.is_disjoint(&fall),
                "site {site}: a pattern cannot activate both polarities"
            );
            checked += 1;
            if checked >= 10 {
                break;
            }
        }
        assert!(checked > 0, "need sites detectable in both polarities");
    }

    /// Injecting the same fault twice must equal injecting it once
    /// (idempotent flips).
    #[test]
    fn duplicate_fault_injection_is_idempotent() {
        let d = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let p = PatternSet::random(d.netlist(), 64, 9);
        let sim = FaultSim::new(&d, &p);
        let mut det = sim.detector();
        let f = crate::fault::full_fault_list(&d)[40];
        let once = sim.detections(&mut det, &[f]);
        let twice = sim.detections(&mut det, &[f, f]);
        assert_eq!(once, twice);
    }
}
