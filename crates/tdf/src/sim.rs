//! Two-frame (launch-on-capture) parallel-pattern logic simulation.
//!
//! Frame 1 evaluates the combinational logic from the scanned-in launch
//! state and the primary inputs; the launch clock captures every flop's D
//! value; frame 2 re-evaluates from the captured state; the capture clock
//! strobes the final D values, which are shifted out as the test response.
//! A node *transitions* when its frame-1 and frame-2 values differ — the
//! condition that can activate a transition-delay fault.
//!
//! A run keeps one net-major table ([`GoodMachine`]): per net its frame-2
//! and transition words, per flop its capture words, one word per block.
//! Frame-1 values live only while their block is simulated. A net's
//! frame-1 value is its frame-2 value flipped in the lanes where it
//! transitions.

use m3d_netlist::{GateKind, Netlist};

use crate::pattern::PatternBlock;

/// The fault-free (good-machine) two-frame values of a pattern set: what
/// faulty-machine propagation starts from and compares against.
///
/// The table is net-major. Each net has a row of frame-2 words and a row
/// of transition words, each flop a row of capture words, and each row
/// holds one `u64` lane word per pattern block; each block also has its
/// valid-lane mask. The transition words are the lanes in which the net's
/// frame-1 and frame-2 values differ, masked to the block's valid lanes.
/// A net's words are contiguous, so a propagation over many blocks reads
/// one short row per net, and a walk over many sites one row per site.
///
/// With frame-2 value `f2`, a slow-to-rise fault is activated in
/// `trans & f2` and a slow-to-fall fault in `trans & !f2`
/// ([`crate::Polarity::activation`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GoodMachine {
    pub(crate) blocks: usize,
    pub(crate) f2: Vec<u64>,
    pub(crate) trans: Vec<u64>,
    pub(crate) capture: Vec<u64>,
    lanes: Vec<u64>,
}

impl GoodMachine {
    /// Number of pattern blocks: the width of every row.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// The frame-2 (capture-frame) words of net `net`, one per block.
    #[inline]
    pub fn f2(&self, net: usize) -> &[u64] {
        &self.f2[net * self.blocks..(net + 1) * self.blocks]
    }

    /// The transition words of net `net`, one per block.
    #[inline]
    pub fn transitions(&self, net: usize) -> &[u64] {
        &self.trans[net * self.blocks..(net + 1) * self.blocks]
    }

    /// The final captured D words of flop `flop` (the scan-out response),
    /// one per block.
    #[inline]
    pub fn capture(&self, flop: usize) -> &[u64] {
        &self.capture[flop * self.blocks..(flop + 1) * self.blocks]
    }

    /// The valid-lane mask of every block.
    #[inline]
    pub fn lanes(&self) -> &[u64] {
        &self.lanes
    }
}

/// Blocks simulated per wave of [`Simulator::run_blocks`]: two per
/// worker of a 2-wide pool, and few enough that a wave's columns stay
/// below what the table they replace held beside it (every block's
/// transition column) even when the pattern set is only a few blocks.
const WAVE_BLOCKS: usize = 4;

/// Copies `columns` into words `first..first + columns.len()` of every
/// `width`-word row of `table` (row `r` gets word `r` of each column), a
/// tile of rows at a time, so a tile stays in cache while every column
/// writes its words into it.
fn scatter_columns(table: &mut [u64], width: usize, first: usize, columns: &[&[u64]]) {
    const TILE: usize = 256;
    for (tile, rows) in table.chunks_mut(TILE * width).enumerate() {
        for (j, column) in columns.iter().enumerate() {
            for (row, &w) in rows.chunks_exact_mut(width).zip(&column[tile * TILE..]) {
                row[first + j] = w;
            }
        }
    }
}

/// A reusable two-frame simulator for one netlist.
///
/// Construction *compiles* the levelized netlist into flat arrays — gate
/// kinds, CSR input-net indices and output-net indices in topological
/// (level) order — so a frame evaluation is one tight sweep over
/// contiguous storage with arity-specialized gate evaluation, instead of
/// re-walking the gate objects once per frame. At paper-scale gate counts
/// (hundreds of thousands of gates × thousands of 64-pattern blocks) this
/// sweep is the good-machine hot loop of ATPG and fault simulation.
///
/// The same compiled form carries what faulty-machine propagation
/// ([`crate::BlockDetector`]) needs to walk a fanout cone without touching
/// the gate objects: each gate's logic level, each net's combinational
/// sinks and capturing flops as CSR lists, and the compiled position of
/// every gate.
///
/// # Examples
///
/// ```
/// use m3d_netlist::generate::{Benchmark, GenParams};
/// use m3d_tdf::{PatternSet, Simulator};
///
/// let nl = Benchmark::Aes.generate(&GenParams::small(1));
/// let sim = Simulator::new(&nl);
/// let pats = PatternSet::random(&nl, 64, 3);
/// let good = sim.run_block(&pats.blocks()[0]);
/// assert_eq!(good.block_count(), 1);
/// assert_eq!(good.capture(nl.flops().len() - 1).len(), 1);
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    /// Gate kinds in topological order.
    kinds: Vec<GateKind>,
    /// CSR offsets into `in_nets`, one entry per topo gate plus a tail.
    in_off: Vec<u32>,
    /// Flat input-net indices of the topo-ordered gates.
    in_nets: Vec<u32>,
    /// Output-net index per topo gate.
    out_nets: Vec<u32>,
    /// Logic level per topo gate: above the level of every topo gate
    /// driving one of its inputs.
    levels: Vec<u32>,
    /// One past the highest entry of `levels`.
    level_count: usize,
    /// Topo position per gate (`u32::MAX` for non-combinational gates).
    topo_pos: Vec<u32>,
    /// CSR offsets into `sinks`, one entry per net plus a tail.
    sink_off: Vec<u32>,
    /// Topo positions of the combinational gates reading each net.
    sinks: Vec<u32>,
    /// CSR offsets into `captures`, one entry per net plus a tail.
    capture_off: Vec<u32>,
    /// Indices of the flops whose D pin reads each net.
    captures: Vec<u32>,
    /// Output-net index per primary input, in `Netlist::inputs` order.
    pi_nets: Vec<u32>,
    /// Output-net (Q) index per flop, in `Netlist::flops` order.
    flop_out_nets: Vec<u32>,
    /// D-input-net index per flop, in `Netlist::flops` order.
    flop_d_nets: Vec<u32>,
}

/// Groups `(net, item)` pairs into a per-net CSR by counting sort, keeping
/// each net's items in input order.
fn net_csr(net_count: usize, pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; net_count + 1];
    for &(n, _) in pairs {
        off[n as usize + 1] += 1;
    }
    for n in 0..net_count {
        off[n + 1] += off[n];
    }
    let mut items = vec![0u32; pairs.len()];
    let mut cursor = off[..net_count].to_vec();
    for &(n, item) in pairs {
        items[cursor[n as usize] as usize] = item;
        cursor[n as usize] += 1;
    }
    (off, items)
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over `netlist`, compiling the levelized
    /// flat-array form.
    pub fn new(netlist: &'a Netlist) -> Self {
        let order = netlist.topo_order();
        let mut kinds = Vec::with_capacity(order.len());
        let mut in_off = Vec::with_capacity(order.len() + 1);
        let mut in_nets = Vec::new();
        let mut out_nets = Vec::with_capacity(order.len());
        let mut levels = Vec::with_capacity(order.len());
        let mut topo_pos = vec![u32::MAX; netlist.gate_count()];
        in_off.push(0);
        for (t, &g) in order.iter().enumerate() {
            let gate = netlist.gate(g);
            kinds.push(gate.kind());
            in_nets.extend(gate.inputs().iter().map(|n| n.index() as u32));
            in_off.push(in_nets.len() as u32);
            out_nets.push(
                gate.output()
                    .expect("combinational gates drive nets")
                    .index() as u32,
            );
            levels.push(netlist.level(g));
            topo_pos[g.index()] = t as u32;
        }
        let reads: Vec<(u32, u32)> = (0..order.len())
            .flat_map(|t| {
                let pins = in_off[t] as usize..in_off[t + 1] as usize;
                in_nets[pins].iter().map(move |&n| (n, t as u32))
            })
            .collect();
        let (sink_off, sinks) = net_csr(netlist.net_count(), &reads);
        let level_count = levels.iter().max().map_or(0, |&l| l as usize + 1);
        let pi_nets = netlist
            .inputs()
            .iter()
            .map(|&g| netlist.gate(g).output().expect("inputs drive nets").index() as u32)
            .collect();
        let flop_out_nets = netlist
            .flops()
            .iter()
            .map(|&g| netlist.gate(g).output().expect("flops drive nets").index() as u32)
            .collect();
        let flop_d_nets: Vec<u32> = netlist
            .flops()
            .iter()
            .map(|&g| netlist.gate(g).inputs()[0].index() as u32)
            .collect();
        let d_reads: Vec<(u32, u32)> = flop_d_nets
            .iter()
            .enumerate()
            .map(|(fi, &n)| (n, fi as u32))
            .collect();
        let (capture_off, captures) = net_csr(netlist.net_count(), &d_reads);
        Simulator {
            netlist,
            kinds,
            in_off,
            in_nets,
            out_nets,
            levels,
            level_count,
            topo_pos,
            sink_off,
            sinks,
            capture_off,
            captures,
            pi_nets,
            flop_out_nets,
            flop_d_nets,
        }
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Number of compiled (combinational) gates.
    #[inline]
    pub(crate) fn gate_count(&self) -> usize {
        self.kinds.len()
    }

    /// The compiled position of `gate`, or `None` for a gate outside the
    /// combinational core (flops, primary inputs and outputs).
    #[inline]
    pub(crate) fn topo_pos(&self, gate: m3d_netlist::GateId) -> Option<u32> {
        let t = self.topo_pos[gate.index()];
        (t != u32::MAX).then_some(t)
    }

    /// Logic level of compiled gate `t`.
    #[inline]
    pub(crate) fn level(&self, t: u32) -> u32 {
        self.levels[t as usize]
    }

    /// One past the highest logic level of any compiled gate.
    #[inline]
    pub(crate) fn level_count(&self) -> usize {
        self.level_count
    }

    /// Kind, input nets and output net of compiled gate `t`.
    #[inline]
    pub(crate) fn gate(&self, t: u32) -> (GateKind, &[u32], u32) {
        let t = t as usize;
        let pins = self.in_off[t] as usize..self.in_off[t + 1] as usize;
        (self.kinds[t], &self.in_nets[pins], self.out_nets[t])
    }

    /// Compiled positions of the combinational gates reading `net`.
    #[inline]
    pub(crate) fn sinks(&self, net: u32) -> &[u32] {
        let n = net as usize;
        &self.sinks[self.sink_off[n] as usize..self.sink_off[n + 1] as usize]
    }

    /// Indices of the flops whose D pin reads `net`.
    #[inline]
    pub(crate) fn captures(&self, net: u32) -> &[u32] {
        let n = net as usize;
        &self.captures[self.capture_off[n] as usize..self.capture_off[n + 1] as usize]
    }

    /// D-input net of flop `fi`.
    #[inline]
    pub(crate) fn flop_d_net(&self, fi: u32) -> u32 {
        self.flop_d_nets[fi as usize]
    }

    /// Evaluates one frame over the compiled arrays: net values from PI
    /// words and the flop state. Returns `(net values, D capture per
    /// flop)`.
    fn eval_frame(&self, pi: &[u64], state: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let mut nets = vec![0u64; self.netlist.net_count()];
        for (&n, &w) in self.pi_nets.iter().zip(pi) {
            nets[n as usize] = w;
        }
        for (&n, &w) in self.flop_out_nets.iter().zip(state) {
            nets[n as usize] = w;
        }
        for (gi, &kind) in self.kinds.iter().enumerate() {
            let s = self.in_off[gi] as usize;
            let e = self.in_off[gi + 1] as usize;
            let ins = &self.in_nets[s..e];
            // Arity-specialized dispatch: the 1- and 2-input cases cover
            // most of a synthesized netlist and skip the word-gather loop.
            let v = match *ins {
                [a] => kind.eval(&[nets[a as usize]]),
                [a, b] => kind.eval(&[nets[a as usize], nets[b as usize]]),
                [a, b, c] => kind.eval(&[nets[a as usize], nets[b as usize], nets[c as usize]]),
                _ => {
                    let mut words = [0u64; 4];
                    for (w, &n) in words.iter_mut().zip(ins) {
                        *w = nets[n as usize];
                    }
                    kind.eval(&words[..ins.len()])
                }
            };
            nets[self.out_nets[gi] as usize] = v;
        }
        let capture: Vec<u64> = self.flop_d_nets.iter().map(|&n| nets[n as usize]).collect();
        (nets, capture)
    }

    /// Runs both frames of the LOC test for one pattern block: the
    /// one-block form of the table, one word per row.
    pub fn run_block(&self, block: &PatternBlock) -> GoodMachine {
        debug_assert_eq!(block.pi.len(), self.netlist.inputs().len());
        debug_assert_eq!(block.scan.len(), self.netlist.flops().len());
        let lanes = block.lane_mask();
        let (mut f1, capture1) = self.eval_frame(&block.pi, &block.scan);
        let (f2, capture) = self.eval_frame(&block.pi, &capture1);
        // The frame-1 values become the transition words in place.
        for (t, &v) in f1.iter_mut().zip(&f2) {
            *t = (*t ^ v) & lanes;
        }
        GoodMachine {
            blocks: 1,
            f2,
            trans: f1,
            capture,
            lanes: vec![lanes],
        }
    }

    /// Runs [`Simulator::run_block`] over every block and gathers the
    /// one-block tables into one net-major table.
    ///
    /// Blocks are simulated in waves of `WAVE_BLOCKS` (4) on the `m3d-par`
    /// pool, and each wave's columns are copied into the rows
    /// and dropped before the next wave runs, so the transient beside the
    /// table is one wave's columns, not the whole pattern set's. Blocks are
    /// independent and land in block order, so the table is identical to
    /// running them serially, at any thread count.
    pub fn run_blocks(&self, blocks: &[PatternBlock]) -> GoodMachine {
        let count = blocks.len();
        let nets = self.netlist.net_count();
        let mut good = GoodMachine {
            blocks: count,
            f2: vec![0; nets * count],
            trans: vec![0; nets * count],
            capture: vec![0; self.netlist.flops().len() * count],
            lanes: blocks.iter().map(PatternBlock::lane_mask).collect(),
        };
        for (wave, chunk) in blocks.chunks(WAVE_BLOCKS).enumerate() {
            let columns = m3d_par::par_map(chunk, |b| self.run_block(b));
            let first = wave * WAVE_BLOCKS;
            let gather = |column: fn(&GoodMachine) -> &[u64]| -> Vec<&[u64]> {
                columns.iter().map(column).collect()
            };
            scatter_columns(&mut good.f2, count, first, &gather(|c| &c.f2));
            scatter_columns(&mut good.trans, count, first, &gather(|c| &c.trans));
            scatter_columns(&mut good.capture, count, first, &gather(|c| &c.capture));
        }
        good
    }
}

/// Scalar reference: evaluates one frame for one pattern by walking the
/// gate objects in topological order, independent of the compiled arrays
/// (tests cross-check the parallel simulator against it lane by lane).
pub fn eval_single_frame(netlist: &Netlist, pi: &[bool], state: &[bool]) -> Vec<bool> {
    let mut nets = vec![false; netlist.net_count()];
    for (&g, &v) in netlist.inputs().iter().zip(pi) {
        nets[netlist.gate(g).output().expect("inputs drive nets").index()] = v;
    }
    for (&g, &v) in netlist.flops().iter().zip(state) {
        nets[netlist.gate(g).output().expect("flops drive nets").index()] = v;
    }
    for &g in netlist.topo_order() {
        let gate = netlist.gate(g);
        let words: Vec<u64> = gate
            .inputs()
            .iter()
            .map(|n| u64::from(nets[n.index()]))
            .collect();
        let out = gate.output().expect("combinational gates drive nets");
        nets[out.index()] = gate.kind().eval(&words) & 1 == 1;
    }
    nets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternSet;
    use m3d_netlist::generate::{Benchmark, GenParams};
    use m3d_netlist::{GateKind, NetlistBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parallel_sim_matches_scalar_sim_lane_by_lane() {
        let nl = Benchmark::Tate.generate(&GenParams::small(1));
        let pats = PatternSet::random(&nl, 64, 11);
        let sim = Simulator::new(&nl);
        let block = &pats.blocks()[0];
        let good = sim.run_block(block);
        let d_nets: Vec<usize> = nl
            .flops()
            .iter()
            .map(|&f| nl.gate(f).inputs()[0].index())
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let lane = rng.gen_range(0..64);
            let bit = |w: u64| (w >> lane) & 1 == 1;
            let bits = |words: &[u64]| -> Vec<bool> { words.iter().map(|&w| bit(w)).collect() };
            let pi = bits(&block.pi);
            // Frame 1 from the scan load, frame 2 from frame 1's D values
            // (the launch capture).
            let frame1 = eval_single_frame(&nl, &pi, &bits(&block.scan));
            let launch: Vec<bool> = d_nets.iter().map(|&n| frame1[n]).collect();
            let frame2 = eval_single_frame(&nl, &pi, &launch);
            for (i, (&v1, &v2)) in frame1.iter().zip(&frame2).enumerate() {
                assert_eq!(bit(good.f2(i)[0]), v2, "frame 2, net {i}, lane {lane}");
                assert_eq!(bit(good.transitions(i)[0]), v1 ^ v2, "net {i}, lane {lane}");
            }
            let capture: Vec<bool> = d_nets.iter().map(|&n| frame2[n]).collect();
            let captured: Vec<bool> = (0..d_nets.len()).map(|f| bit(good.capture(f)[0])).collect();
            assert_eq!(captured, capture, "lane {lane}");
        }
    }

    #[test]
    fn frame2_uses_launch_captured_state() {
        // A single inverter loop through a flop: Q -> INV -> D.
        let mut b = NetlistBuilder::new("toggler");
        let en = b.add_input("en");
        let (d_net, inv) = b.add_gate_deferred(GateKind::Xor, 2);
        let q = b.add_dff(d_net);
        b.connect_deferred(inv, &[q, en]);
        b.add_output("q", q);
        let nl = b.finish().unwrap();

        // en=1, scan state 0: frame1 D = 0^1 = 1; frame2 state=1, D = 1^1 = 0.
        let block = PatternBlock {
            pi: vec![1],
            scan: vec![0],
            count: 1,
        };
        let sim = Simulator::new(&nl);
        let good = sim.run_block(&block);
        assert_eq!(good.capture(0)[0] & 1, 0);
        // The D net falls between frames: frame 1 captured 1.
        let d = nl.gate(nl.flops()[0]).inputs()[0];
        assert_eq!(good.transitions(d.index())[0] & 1, 1);
    }

    #[test]
    fn run_blocks_matches_serial_at_any_thread_count() {
        let nl = Benchmark::Netcard.generate(&GenParams::small(2));
        // 19 blocks, the last partial: more than two waves.
        let pats = PatternSet::random(&nl, 1200, 7);
        let sim = Simulator::new(&nl);
        let columns: Vec<GoodMachine> = pats.blocks().iter().map(|b| sim.run_block(b)).collect();
        let row = |column: fn(&GoodMachine, usize) -> &[u64], i: usize| -> Vec<u64> {
            columns.iter().map(|c| column(c, i)[0]).collect()
        };
        for threads in [1, 4] {
            let good = m3d_par::with_threads(threads, || sim.run_blocks(pats.blocks()));
            assert_eq!(good.block_count(), columns.len());
            let lanes: Vec<u64> = columns.iter().map(|c| c.lanes()[0]).collect();
            assert_eq!(good.lanes(), lanes, "threads {threads}");
            for net in 0..nl.net_count() {
                assert_eq!(good.f2(net), row(GoodMachine::f2, net), "net {net}");
                let trans = row(GoodMachine::transitions, net);
                assert_eq!(good.transitions(net), trans, "threads {threads}, net {net}");
            }
            for flop in 0..nl.flops().len() {
                assert_eq!(good.capture(flop), row(GoodMachine::capture, flop));
            }
        }
    }

    #[test]
    fn lanes_mask_partial_blocks() {
        let nl = Benchmark::Aes.generate(&GenParams::small(1));
        let pats = PatternSet::random(&nl, 5, 2);
        let sim = Simulator::new(&nl);
        let good = sim.run_block(&pats.blocks()[0]);
        assert_eq!(good.lanes(), [(1 << 5) - 1]);
        assert!((0..nl.net_count()).all(|n| good.transitions(n)[0] & !good.lanes()[0] == 0));
    }

    #[test]
    fn identical_frames_mean_no_transitions() {
        // If the scan state already equals the functional next state, nets
        // that depend only on PIs must not transition.
        let nl = Benchmark::Aes.generate(&GenParams::small(1));
        let pats = PatternSet::random(&nl, 64, 4);
        let sim = Simulator::new(&nl);
        let good = sim.run_block(&pats.blocks()[0]);
        // PI-driven nets never transition (PIs are held across frames).
        for &g in nl.inputs() {
            let out = nl.gate(g).output().unwrap();
            assert_eq!(good.transitions(out.index()), [0]);
        }
    }
}
