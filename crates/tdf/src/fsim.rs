//! Event-driven transition-delay fault simulation.
//!
//! Faults are simulated against the fault-free two-frame baseline: a fault
//! is *activated* in the lanes where its site has the sensitizing
//! transition; in those lanes the site's frame-2 value is delayed (held at
//! its frame-1 value), and the difference is propagated event-driven through
//! the frame-2 logic to the scan-capture points. Activation is evaluated on
//! the fault-free frames — the standard single-transition approximation of
//! TDF simulation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use m3d_dft::{ObsPoint, ScanChains};
use m3d_netlist::{FlopId, GateId, GateKind, NetId, SiteId};
use m3d_part::M3dDesign;

use crate::fault::{injection_scope, site_net, Fault, InjectionScope, Polarity};
use crate::log::{FailEntry, FailureLog};
use crate::pattern::{PatternId, PatternSet};
use crate::sim::{BlockSim, Simulator};

/// One failing scan capture: pattern id plus the failing cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Detection {
    /// The failing pattern.
    pub pattern: PatternId,
    /// The scan cell that captured a faulty value.
    pub flop: FlopId,
}

/// Reusable scratch state for block-level fault propagation.
///
/// Create once (allocation-heavy) and reuse across faults and blocks; every
/// call resets only the entries it touched.
#[derive(Debug)]
pub struct BlockDetector<'a> {
    design: &'a M3dDesign,
    /// Faulty frame-2 net values; valid only where `net_dirty`.
    overlay: Vec<u64>,
    net_dirty: Vec<bool>,
    touched_nets: Vec<u32>,
    /// Per-gate heap membership (dedup).
    in_heap: Vec<bool>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Topological position per gate (`u32::MAX` for non-combinational).
    topo_pos: Vec<u32>,
    /// Sparse branch flips: key = gate << 8 | pin.
    branch_flips: Vec<(u64, u64)>,
    /// CSR offsets into `d_flops`, one entry per net plus a tail.
    d_flops_off: Vec<u32>,
    /// Flop indices whose D input is the net (capture-compare candidates).
    d_flops: Vec<u32>,
    /// Flop index per gate (`u32::MAX` for non-flops).
    flop_of_gate: Vec<u32>,
    /// Scratch for candidate-flop collection.
    cand_flops: Vec<u32>,
}

impl<'a> BlockDetector<'a> {
    /// Creates scratch state for a design.
    pub fn new(design: &'a M3dDesign) -> Self {
        let nl = design.netlist();
        let mut topo_pos = vec![u32::MAX; nl.gate_count()];
        for (i, &g) in nl.topo_order().iter().enumerate() {
            topo_pos[g.index()] = i as u32;
        }
        // Net → capturing flops, as a counting-sort CSR: the capture
        // compare then visits only flops whose D net the propagation
        // actually touched, instead of every flop per fault.
        let mut flop_of_gate = vec![u32::MAX; nl.gate_count()];
        let mut counts = vec![0u32; nl.net_count()];
        for (fi, &fgate) in nl.flops().iter().enumerate() {
            flop_of_gate[fgate.index()] = fi as u32;
            counts[nl.gate(fgate).inputs()[0].index()] += 1;
        }
        let mut d_flops_off = vec![0u32; nl.net_count() + 1];
        for n in 0..nl.net_count() {
            d_flops_off[n + 1] = d_flops_off[n] + counts[n];
        }
        let mut d_flops = vec![0u32; d_flops_off[nl.net_count()] as usize];
        let mut cursor: Vec<u32> = d_flops_off[..nl.net_count()].to_vec();
        for (fi, &fgate) in nl.flops().iter().enumerate() {
            let n = nl.gate(fgate).inputs()[0].index();
            d_flops[cursor[n] as usize] = fi as u32;
            cursor[n] += 1;
        }
        BlockDetector {
            design,
            overlay: vec![0; nl.net_count()],
            net_dirty: vec![false; nl.net_count()],
            touched_nets: Vec::new(),
            in_heap: vec![false; nl.gate_count()],
            heap: BinaryHeap::new(),
            topo_pos,
            branch_flips: Vec::new(),
            d_flops_off,
            d_flops,
            flop_of_gate,
            cand_flops: Vec::new(),
        }
    }

    fn branch_flip(&self, gate: GateId, pin: u8) -> u64 {
        let key = (gate.index() as u64) << 8 | u64::from(pin);
        self.branch_flips
            .binary_search_by_key(&key, |&(k, _)| k)
            .map_or(0, |i| self.branch_flips[i].1)
    }

    fn add_branch_flip(&mut self, gate: GateId, pin: u8, flip: u64) {
        let key = (gate.index() as u64) << 8 | u64::from(pin);
        // `branch_flips` stays sorted by key so lookups in the propagation
        // loop are O(log n) instead of a linear scan per gate input.
        match self.branch_flips.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.branch_flips[i].1 |= flip,
            Err(i) => self.branch_flips.insert(i, (key, flip)),
        }
    }

    fn push_gate(&mut self, gate: GateId) {
        let pos = self.topo_pos[gate.index()];
        if pos == u32::MAX || self.in_heap[gate.index()] {
            return;
        }
        self.in_heap[gate.index()] = true;
        self.heap.push(Reverse((pos, gate.index() as u32)));
    }

    fn set_net(&mut self, net: NetId, value: u64) {
        if !self.net_dirty[net.index()] {
            self.net_dirty[net.index()] = true;
            self.touched_nets.push(net.index() as u32);
        }
        self.overlay[net.index()] = value;
    }

    #[inline]
    fn net_value(&self, base: &BlockSim, net: NetId) -> u64 {
        if self.net_dirty[net.index()] {
            self.overlay[net.index()]
        } else {
            base.f2[net.index()]
        }
    }

    /// Seeds the frame-2 flip for one site on `act` lanes.
    fn seed_site(&mut self, base: &BlockSim, site: SiteId, act: u64) {
        let nl = self.design.netlist();
        match injection_scope(self.design, site) {
            InjectionScope::Net(n) => {
                let v = self.net_value(base, n) ^ act;
                self.set_net(n, v);
                for &(sink, _) in nl.net(n).sinks() {
                    self.push_gate(sink);
                }
            }
            InjectionScope::Branch(g, pin) => {
                self.add_branch_flip(g, pin, act);
                self.push_gate(g);
            }
            InjectionScope::MivBranches(branches) => {
                for (g, pin) in branches {
                    self.add_branch_flip(g, pin, act);
                    self.push_gate(g);
                }
            }
        }
    }

    /// Event-driven frame-2 propagation in topological order.
    fn propagate(&mut self, base: &BlockSim) {
        let nl = self.design.netlist();
        while let Some(Reverse((_, gi))) = self.heap.pop() {
            let gate = GateId::new(gi as usize);
            self.in_heap[gate.index()] = false;
            let g = nl.gate(gate);
            let mut inputs = [0u64; 4];
            for (pin, &n) in g.inputs().iter().enumerate() {
                inputs[pin] = self.net_value(base, n) ^ self.branch_flip(gate, pin as u8);
            }
            let out = g.output().expect("only combinational gates enter the heap");
            let new = g.kind().eval(&inputs[..g.inputs().len()]);
            if new != self.net_value(base, out) {
                self.set_net(out, new);
                for &(sink, _) in nl.net(out).sinks() {
                    self.push_gate(sink);
                }
            }
        }
    }

    /// Collects the flops whose capture can differ — those with a touched
    /// D net or a direct branch flip on the D pin — into `cand_flops`,
    /// sorted and deduplicated. Untouched flops capture the fault-free
    /// value by construction and need no compare.
    fn collect_candidate_flops(&mut self) {
        self.cand_flops.clear();
        for i in 0..self.touched_nets.len() {
            let n = self.touched_nets[i] as usize;
            let (s, e) = (
                self.d_flops_off[n] as usize,
                self.d_flops_off[n + 1] as usize,
            );
            for j in s..e {
                self.cand_flops.push(self.d_flops[j]);
            }
        }
        for i in 0..self.branch_flips.len() {
            let (key, _) = self.branch_flips[i];
            if key & 0xff == 0 {
                let fi = self.flop_of_gate[(key >> 8) as usize];
                if fi != u32::MAX {
                    self.cand_flops.push(fi);
                }
            }
        }
        self.cand_flops.sort_unstable();
        self.cand_flops.dedup();
    }

    /// Resets the per-call scratch (touched overlay entries and flips).
    fn reset_scratch(&mut self) {
        for &n in &self.touched_nets {
            self.net_dirty[n as usize] = false;
        }
        self.touched_nets.clear();
        self.branch_flips.clear();
    }

    /// The shared tail of every detection query: propagates the seeded
    /// flips, compares scan captures at the flops the propagation could
    /// have reached (touched D nets plus direct branch flips on D), calls
    /// `hit(flop index, differing lanes)` for every capture that differs,
    /// and resets the scratch.
    fn propagate_and_compare(&mut self, base: &BlockSim, mut hit: impl FnMut(usize, u64)) {
        let nl = self.design.netlist();
        self.propagate(base);
        self.collect_candidate_flops();
        for i in 0..self.cand_flops.len() {
            let fi = self.cand_flops[i] as usize;
            let fgate = nl.flops()[fi];
            let d_net = nl.gate(fgate).inputs()[0];
            let val = self.net_value(base, d_net) ^ self.branch_flip(fgate, 0);
            let diff = (val ^ base.capture2[fi]) & base.lanes;
            if diff != 0 {
                hit(fi, diff);
            }
        }
        self.reset_scratch();
    }

    /// Simulates `faults` simultaneously against one block and returns the
    /// failing `(lane, flop)` pairs, sorted.
    ///
    /// Multiple faults model the paper's tier-specific systematic defects
    /// (Section VII-A); activation of each fault uses the fault-free frames.
    pub fn detect(&mut self, base: &BlockSim, faults: &[Fault]) -> Vec<(u8, FlopId)> {
        // Duplicate faults are skipped: stem injections flip bits, so a
        // repeated fault would otherwise cancel itself.
        let mut unique: Vec<Fault> = faults.to_vec();
        unique.sort_unstable();
        unique.dedup();
        for fault in &unique {
            let net = site_net(self.design, fault.site);
            let act = fault
                .polarity
                .activation(base.f1[net.index()], base.f2[net.index()])
                & base.lanes;
            if act == 0 {
                continue;
            }
            self.seed_site(base, fault.site, act);
        }
        let mut detections = Vec::new();
        self.propagate_and_compare(base, |fi, diff| push_lanes(&mut detections, fi, diff));
        detections.sort_unstable();
        detections
    }

    /// [`BlockDetector::detect`] for both single faults at `site`, indexed
    /// like [`Polarity::ALL`], from one propagation seeded with the union
    /// of their activation lanes (see [`FaultSim::detections_both`]).
    fn detect_both(&mut self, base: &BlockSim, site: SiteId) -> [Vec<(u8, FlopId)>; 2] {
        let net = site_net(self.design, site);
        let act = Polarity::ALL
            .map(|p| p.activation(base.f1[net.index()], base.f2[net.index()]) & base.lanes);
        let mut out = [Vec::new(), Vec::new()];
        if act[0] | act[1] == 0 {
            return out;
        }
        self.seed_site(base, site, act[0] | act[1]);
        self.propagate_and_compare(base, |fi, diff| {
            for (hits, lanes) in out.iter_mut().zip(act) {
                push_lanes(hits, fi, diff & lanes);
            }
        });
        for hits in &mut out {
            hits.sort_unstable();
        }
        out
    }

    /// Propagates a frame-2 flip at `site` on `lanes` and returns the
    /// union, over all scan flops, of the lanes whose captures differ.
    ///
    /// Because the bit-parallel propagation is lane-wise independent, this
    /// one call answers detection for *both* polarities of the site at
    /// once: a polarity with activation mask `act ⊆ lanes` is detected iff
    /// `returned & act != 0`, exactly as if it had been propagated alone
    /// (the ATPG sweep relies on this to pay for each site's fanout cone
    /// once instead of once per fault).
    pub fn propagate_site_mask(&mut self, base: &BlockSim, site: SiteId, lanes: u64) -> u64 {
        if lanes == 0 {
            return 0;
        }
        self.seed_site(base, site, lanes);
        let mut diff_union = 0u64;
        self.propagate_and_compare(base, |_, diff| diff_union |= diff);
        diff_union
    }
}

/// Appends one `(lane, flop)` pair per set bit of `lanes`.
fn push_lanes(out: &mut Vec<(u8, FlopId)>, flop: usize, mut lanes: u64) {
    while lanes != 0 {
        out.push((lanes.trailing_zeros() as u8, FlopId::new(flop)));
        lanes &= lanes - 1;
    }
}

/// Per-site support of a failure log, from
/// [`FaultSim::active_site_counts`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ActiveSiteCounts {
    /// `(site, supporting entries)` for every site supporting at least one
    /// entry, in no particular order.
    pub sites: Vec<(SiteId, u32)>,
    /// Log entries counted: those whose pattern and scan cells exist.
    pub entries: u32,
    /// Distinct observation points among the counted entries.
    pub obs_points: u32,
}

/// Fault simulation over a full pattern set, with the fault-free baseline
/// cached per block.
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
    blocks: Vec<BlockSim>,
}

impl<'a> FaultSim<'a> {
    /// Runs the fault-free baseline over every block, fanned across the
    /// `m3d-par` pool (blocks are independent; results are reassembled in
    /// block order, so the baseline is identical at any thread count).
    pub fn new(design: &'a M3dDesign, patterns: &'a PatternSet) -> Self {
        let sim = Simulator::new(design.netlist());
        let blocks = sim.run_blocks(patterns.blocks());
        FaultSim {
            design,
            patterns,
            blocks,
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

    /// The cached fault-free baseline per block.
    #[inline]
    pub fn block_sims(&self) -> &[BlockSim] {
        &self.blocks
    }

    /// Creates reusable propagation scratch for this design.
    pub fn detector(&self) -> BlockDetector<'a> {
        BlockDetector::new(self.design)
    }

    /// Simulates an injected fault set against every pattern and returns
    /// all failing `(pattern, flop)` captures.
    pub fn detections(&self, detector: &mut BlockDetector<'_>, faults: &[Fault]) -> Vec<Detection> {
        let mut out = Vec::new();
        for (bi, base) in self.blocks.iter().enumerate() {
            for (bit, flop) in detector.detect(base, faults) {
                out.push(Detection {
                    pattern: self.patterns.id_at(bi, bit),
                    flop,
                });
            }
        }
        out
    }

    /// [`FaultSim::detections`] of both single faults at `site`, indexed
    /// like [`Polarity::ALL`], from one propagation per block seeded with
    /// the union of their activation lanes.
    ///
    /// Exact for the same reason as [`BlockDetector::propagate_site_mask`]:
    /// the rising and falling activations (`!f1 & f2`, `f1 & !f2`) are
    /// disjoint and the propagation is lane-wise independent, so splitting
    /// the differing lanes by polarity gives each fault's own detections.
    pub fn detections_both(
        &self,
        detector: &mut BlockDetector<'_>,
        site: SiteId,
    ) -> [Vec<Detection>; 2] {
        let mut out = [Vec::new(), Vec::new()];
        for (bi, base) in self.blocks.iter().enumerate() {
            for (dets, hits) in out.iter_mut().zip(detector.detect_both(base, site)) {
                dets.extend(hits.into_iter().map(|(bit, flop)| Detection {
                    pattern: self.patterns.id_at(bi, bit),
                    flop,
                }));
            }
        }
        out
    }

    /// Like [`FaultSim::detections`], but fans the per-block propagation
    /// across the `m3d_par` pool with one [`BlockDetector`] scratch per
    /// worker. Results are identical to the serial method (blocks are
    /// independent and reassembled in block order).
    ///
    /// # Panics
    ///
    /// Re-raises a worker panic (with its chunk index) after the sibling
    /// blocks finish; use [`FaultSim::try_detections_par`] to receive it as
    /// a typed error instead.
    pub fn detections_par(&self, faults: &[Fault]) -> Vec<Detection> {
        self.try_detections_par(faults)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panic-containing [`FaultSim::detections_par`]: a panic in any
    /// propagation worker is caught per chunk and returned as a typed
    /// [`m3d_par::WorkerPanic`] naming the chunk, deterministically at any
    /// thread count, while sibling blocks complete.
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
        span.add("blocks", self.blocks.len() as u64);
        let start = std::time::Instant::now();
        let per_block = m3d_par::try_par_map_init(
            &self.blocks,
            || self.detector(),
            |det, base| det.detect(base, faults),
        )?;
        let mut out = Vec::new();
        for (bi, hits) in per_block.into_iter().enumerate() {
            for (bit, flop) in hits {
                out.push(Detection {
                    pattern: self.patterns.id_at(bi, bit),
                    flop,
                });
            }
        }
        span.add("detections", out.len() as u64);
        m3d_obs::counter("tdf.fsim.calls", 1);
        m3d_obs::counter("tdf.fsim.detections", out.len() as u64);
        let secs = start.elapsed().as_secs_f64();
        if secs > 0.0 {
            m3d_obs::gauge("tdf.fsim.detections_per_s", out.len() as f64 / secs);
        }
        Ok(out)
    }

    /// Counts, for every fault site, the log entries it could explain: the
    /// entries whose failing pattern makes the site transition (fault-free)
    /// and whose observation point's candidate scan cells have the site in
    /// their `cone`. A site in the cones of several cells of one compacted
    /// observation counts once per entry.
    ///
    /// Entries outside this test setup ([`FaultSim::entry_in_range`]) are
    /// skipped and are not in [`ActiveSiteCounts::entries`].
    ///
    /// A delay fault fails the same few observation points across many
    /// patterns, so the entries are grouped by observation point: each
    /// point's failing patterns become one lane mask per 64-pattern block,
    /// and the union of the point's cones is walked once, adding
    /// `popcount(transition & mask)` per site and block into a dense
    /// counter. Scratch is per call, so concurrent calls share nothing.
    pub fn active_site_counts<I>(
        &self,
        log: &FailureLog,
        scan: &ScanChains,
        cone: impl Fn(FlopId) -> I,
    ) -> ActiveSiteCounts
    where
        I: IntoIterator<Item = SiteId>,
    {
        let site_count = self.design.sites().len();
        // (observation, block, lane), sorted: observation groups with
        // ascending blocks inside each.
        let mut located: Vec<(ObsPoint, usize, u8)> = log
            .entries()
            .iter()
            .filter(|e| self.entry_in_range(scan, e))
            .map(|e| {
                let (blk, bit) = self.patterns.locate(e.pattern);
                (e.obs, blk, bit)
            })
            .collect();
        located.sort_unstable();

        let mut counts = ActiveSiteCounts::default();
        let mut count = vec![0u32; site_count];
        // Per-site stamp of the last observation group that visited it.
        let mut visited = vec![0u32; site_count];
        let mut masks: Vec<(usize, u64)> = Vec::new();
        for group in located.chunk_by(|a, b| a.0 == b.0) {
            counts.entries += group.len() as u32;
            counts.obs_points += 1;
            let stamp = counts.obs_points;
            masks.clear();
            for &(_, blk, bit) in group {
                match masks.last_mut() {
                    Some((b, mask)) if *b == blk => *mask |= 1u64 << bit,
                    _ => masks.push((blk, 1u64 << bit)),
                }
            }
            for flop in scan.candidate_flops(group[0].0) {
                for site in cone(flop) {
                    if visited[site.index()] == stamp {
                        continue;
                    }
                    visited[site.index()] = stamp;
                    let net = site_net(self.design, site);
                    let hits: u32 = masks
                        .iter()
                        .map(|&(blk, mask)| (self.blocks[blk].transition(net) & mask).count_ones())
                        .sum();
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

    /// Whether a log entry references a pattern and scan cells that exist
    /// in this test setup. Failure logs are *untrusted input* (they come
    /// from a tester datalog): diagnosis drops out-of-range entries with a
    /// degraded tag, and back-tracing skips them, rather than indexing out
    /// of bounds.
    pub fn entry_in_range(&self, scan: &ScanChains, entry: &FailEntry) -> bool {
        let flops = self.design.netlist().flops().len();
        self.patterns.checked_locate(entry.pattern).is_some()
            && scan
                .candidate_flops(entry.obs)
                .iter()
                .all(|f| f.index() < flops)
    }

    /// Lanes of `block` in which `site` transitions (fault-free).
    #[inline]
    pub fn transition_mask(&self, site: SiteId, block: usize) -> u64 {
        let net = site_net(self.design, site);
        self.blocks[block].transition(net)
    }

    /// Number of patterns in which `site` transitions — the `Tpat` feature
    /// of the paper's Table I.
    pub fn transition_count(&self, site: SiteId) -> u32 {
        (0..self.blocks.len())
            .map(|b| self.transition_mask(site, b).count_ones())
            .sum()
    }
}

// GateKind is used only through eval here; keep the import honest.
const _: fn(GateKind, &[u64]) -> u64 = GateKind::eval;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{full_fault_list, Polarity};
    use m3d_netlist::generate::Benchmark;
    use m3d_netlist::SitePos;
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
            if sim.transition_count(site) == 0 {
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
                    sim.block_sims()[blk].f1[net.index()],
                    sim.block_sims()[blk].f2[net.index()],
                );
                assert_ne!(act & (1 << bit), 0, "detected without activation");
            }
        }
    }

    #[test]
    fn parallel_detections_match_serial_at_any_thread_count() {
        let (d, p) = env();
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
