//! Scan infrastructure and EDT-like response compaction.
//!
//! The paper's designs are conventional scan designs with Tessent EDT test
//! compression at a 20× compaction ratio, plus bypass signals that scan out
//! uncompressed responses. This crate provides the equivalent substrate:
//!
//! * [`ScanChains`] stitches the flip-flops of a netlist into `N_sc` chains
//!   feeding `N_ch` output channels (Table III's design matrix shape);
//! * [`ObsMode::Bypass`] observes each scan cell directly;
//! * [`ObsMode::Compacted`] XOR-compacts the chains of a channel per shift
//!   cycle — any *combinational (XOR-based) response compactor* in the
//!   paper's words — so a failure is only localized to a `(channel, cycle)`
//!   pair.
//!
//! # Examples
//!
//! ```
//! use m3d_netlist::generate::{Benchmark, GenParams};
//! use m3d_dft::{ObsMode, ScanChains, ScanConfig};
//!
//! let nl = Benchmark::Aes.generate(&GenParams::small(1));
//! let scan = ScanChains::new(&nl, ScanConfig::for_flop_count(nl.flops().len()));
//! let fails = vec![nl.flop_of(nl.flops()[0]).unwrap()];
//! let obs = scan.observe(&fails, ObsMode::Compacted);
//! assert_eq!(obs.len(), 1);
//! ```

#![warn(missing_docs)]

use m3d_netlist::{FlopId, Netlist};

/// Scan-architecture parameters: chain count and compaction ratio.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanConfig {
    /// Number of scan chains (`N_sc` in Table III).
    pub num_chains: usize,
    /// Chains per output channel (the paper fixes 20×).
    pub chains_per_channel: usize,
}

impl ScanConfig {
    /// The paper's compaction ratio.
    pub const PAPER_COMPACTION: usize = 20;

    /// A configuration scaled to the flop count: roughly 12 cells per
    /// chain, 20 chains per channel (clamped so small designs still get at
    /// least two chains).
    pub fn for_flop_count(flops: usize) -> Self {
        ScanConfig {
            num_chains: (flops / 12).max(2),
            chains_per_channel: Self::PAPER_COMPACTION,
        }
    }

    /// Number of output channels.
    pub fn num_channels(&self) -> usize {
        self.num_chains.div_ceil(self.chains_per_channel)
    }
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            num_chains: 8,
            chains_per_channel: Self::PAPER_COMPACTION,
        }
    }
}

/// Whether responses bypass the compactor or pass through it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObsMode {
    /// Uncompressed scan-out: each failing cell is observed directly.
    Bypass,
    /// XOR response compaction: failures localize to `(channel, cycle)`.
    Compacted,
}

impl ObsMode {
    /// Both modes, bypass first (the order of the paper's table pairs).
    pub const ALL: [ObsMode; 2] = [ObsMode::Bypass, ObsMode::Compacted];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ObsMode::Bypass => "bypass",
            ObsMode::Compacted => "compacted",
        }
    }
}

/// An observed failure location on the tester.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObsPoint {
    /// A specific failing scan cell (bypass mode).
    Flop(FlopId),
    /// A failing compactor output at a shift cycle (compacted mode).
    ChannelCycle {
        /// Output channel index.
        channel: u16,
        /// Shift-cycle position within the chains.
        cycle: u16,
    },
}

/// The stitched scan architecture of a design.
///
/// Flops are stitched round-robin so chain lengths differ by at most one,
/// mirroring chain balancing in industrial stitching.
#[derive(Clone, Debug)]
pub struct ScanChains {
    chains: Vec<Vec<FlopId>>,
    /// Per flop: `(chain, position)`.
    place: Vec<(u16, u16)>,
    chains_per_channel: usize,
}

impl ScanChains {
    /// Stitches the flops of `netlist` into chains.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_chains == 0` or the netlist has no flops.
    pub fn new(netlist: &Netlist, config: ScanConfig) -> Self {
        assert!(config.num_chains > 0, "need at least one chain");
        let n = netlist.flops().len();
        assert!(n > 0, "scan stitching needs flops");
        let chains_n = config.num_chains.min(n);
        let mut chains = vec![Vec::with_capacity(n.div_ceil(chains_n)); chains_n];
        let mut place = vec![(0u16, 0u16); n];
        for (i, spot) in place.iter_mut().enumerate() {
            let chain = i % chains_n;
            let pos = chains[chain].len();
            *spot = (chain as u16, pos as u16);
            chains[chain].push(FlopId::new(i));
        }
        ScanChains {
            chains,
            place,
            chains_per_channel: config.chains_per_channel,
        }
    }

    /// Builds a scan architecture from explicit chains, without validating
    /// them against any netlist.
    ///
    /// This is the structural escape hatch the `m3d-lint` mutation tests
    /// use to model broken stitching (dropped, duplicated, or phantom
    /// flops); [`new`](ScanChains::new) is the checked constructor. Each
    /// flop's `(chain, position)` is taken from its first occurrence.
    pub fn from_raw_chains(chains: Vec<Vec<FlopId>>, chains_per_channel: usize) -> Self {
        let max_flop = chains
            .iter()
            .flatten()
            .map(|f| f.index() + 1)
            .max()
            .unwrap_or(0);
        let mut place = vec![(u16::MAX, u16::MAX); max_flop];
        for (c, chain) in chains.iter().enumerate() {
            for (p, &f) in chain.iter().enumerate() {
                if place[f.index()] == (u16::MAX, u16::MAX) {
                    place[f.index()] = (c as u16, p as u16);
                }
            }
        }
        ScanChains {
            chains,
            place,
            chains_per_channel,
        }
    }

    /// The chains, each a list of flops by shift position.
    #[inline]
    pub fn chains(&self) -> &[Vec<FlopId>] {
        &self.chains
    }

    /// Number of chains.
    #[inline]
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Number of compactor output channels.
    #[inline]
    pub fn channel_count(&self) -> usize {
        self.chain_count().div_ceil(self.chains_per_channel)
    }

    /// Longest chain length (test time per pattern in shift cycles).
    pub fn max_chain_length(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The `(chain, position)` of a scan cell.
    #[inline]
    pub fn place_of(&self, flop: FlopId) -> (u16, u16) {
        self.place[flop.index()]
    }

    /// The channel a chain feeds.
    #[inline]
    pub fn channel_of_chain(&self, chain: u16) -> u16 {
        (chain as usize / self.chains_per_channel) as u16
    }

    /// Maps a set of failing scan cells to tester observations.
    ///
    /// In bypass mode this is the identity on cells. In compacted mode each
    /// `(channel, cycle)` output is the XOR of its chains, so a location
    /// fails only when an *odd* number of its cells fail — the aliasing
    /// that degrades diagnosis under compression.
    pub fn observe(&self, failing: &[FlopId], mode: ObsMode) -> Vec<ObsPoint> {
        match mode {
            ObsMode::Bypass => {
                let mut v: Vec<ObsPoint> = failing.iter().map(|&f| ObsPoint::Flop(f)).collect();
                v.sort();
                v.dedup();
                v
            }
            ObsMode::Compacted => {
                let mut parity = std::collections::HashMap::<(u16, u16), u32>::new();
                for &f in failing {
                    let (chain, cycle) = self.place_of(f);
                    let ch = self.channel_of_chain(chain);
                    *parity.entry((ch, cycle)).or_insert(0) += 1;
                }
                let mut v: Vec<ObsPoint> = parity
                    .into_iter()
                    .filter(|&(_, count)| count % 2 == 1)
                    .map(|((channel, cycle), _)| ObsPoint::ChannelCycle { channel, cycle })
                    .collect();
                v.sort();
                v
            }
        }
    }

    /// Lane-parallel [`ScanChains::observe`] for one 64-pattern block:
    /// maps `(cell, failing lanes)` words to `(observation, failing lanes)`
    /// words, written to `out` sorted by observation with zero words
    /// dropped.
    ///
    /// In bypass mode each cell is its own observation (a repeated cell's
    /// lanes are ORed). In compacted mode each `(channel, cycle)` word is
    /// the XOR of its cells' words: `observe`'s odd-parity rule, applied
    /// to every lane at once.
    pub fn observe_words(
        &self,
        failing: impl IntoIterator<Item = (FlopId, u64)>,
        mode: ObsMode,
        out: &mut Vec<(ObsPoint, u64)>,
    ) {
        out.clear();
        out.extend(failing.into_iter().map(|(f, lanes)| {
            let obs = match mode {
                ObsMode::Bypass => ObsPoint::Flop(f),
                ObsMode::Compacted => {
                    let (chain, cycle) = self.place_of(f);
                    ObsPoint::ChannelCycle {
                        channel: self.channel_of_chain(chain),
                        cycle,
                    }
                }
            };
            (obs, lanes)
        }));
        out.sort_unstable_by_key(|&(obs, _)| obs);
        out.dedup_by(|next, kept| {
            if next.0 != kept.0 {
                return false;
            }
            match mode {
                ObsMode::Bypass => kept.1 |= next.1,
                ObsMode::Compacted => kept.1 ^= next.1,
            }
            true
        });
        out.retain(|&(_, lanes)| lanes != 0);
    }

    /// The scan cells that could have produced an observation: the cell
    /// itself in bypass mode, or every cell of the channel's chains at that
    /// cycle in compacted mode (the diagnosis search-space blow-up).
    pub fn candidate_flops(&self, obs: ObsPoint) -> Vec<FlopId> {
        match obs {
            ObsPoint::Flop(f) => vec![f],
            ObsPoint::ChannelCycle { channel, cycle } => {
                let lo = channel as usize * self.chains_per_channel;
                let hi = (lo + self.chains_per_channel).min(self.chain_count());
                (lo..hi)
                    .filter_map(|c| self.chains[c].get(cycle as usize).copied())
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::generate::{Benchmark, GenParams};

    fn scan() -> (Netlist, ScanChains) {
        let nl = Benchmark::Netcard.generate(&GenParams::small(1));
        let cfg = ScanConfig::for_flop_count(nl.flops().len());
        let chains = ScanChains::new(&nl, cfg);
        (nl, chains)
    }

    #[test]
    fn stitching_is_balanced_and_total() {
        let (nl, s) = scan();
        let total: usize = s.chains().iter().map(Vec::len).sum();
        assert_eq!(total, nl.flops().len());
        let min = s.chains().iter().map(Vec::len).min().unwrap();
        assert!(s.max_chain_length() - min <= 1, "round-robin balance");
    }

    #[test]
    fn place_of_inverts_chains() {
        let (_, s) = scan();
        for (c, chain) in s.chains().iter().enumerate() {
            for (p, &f) in chain.iter().enumerate() {
                assert_eq!(s.place_of(f), (c as u16, p as u16));
            }
        }
    }

    #[test]
    fn bypass_observation_is_identity() {
        let (_, s) = scan();
        let fails = vec![FlopId::new(0), FlopId::new(3), FlopId::new(3)];
        let obs = s.observe(&fails, ObsMode::Bypass);
        assert_eq!(
            obs,
            vec![
                ObsPoint::Flop(FlopId::new(0)),
                ObsPoint::Flop(FlopId::new(3))
            ]
        );
    }

    #[test]
    fn compaction_aliases_even_parity() {
        let (_, s) = scan();
        // Two failing cells in the same channel at the same cycle cancel.
        let (c0, p0) = (0u16, 0u16);
        let f0 = s.chains()[c0 as usize][p0 as usize];
        // find another chain on the same channel with a cell at p0
        let partner = (1..s.chain_count())
            .find(|&c| {
                s.channel_of_chain(c as u16) == s.channel_of_chain(c0)
                    && s.chains()[c].len() > p0 as usize
            })
            .map(|c| s.chains()[c][p0 as usize]);
        if let Some(f1) = partner {
            let obs = s.observe(&[f0, f1], ObsMode::Compacted);
            assert!(obs.is_empty(), "even parity aliases to no failure");
        }
        let single = s.observe(&[f0], ObsMode::Compacted);
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn candidate_flops_cover_the_observation() {
        let (_, s) = scan();
        let f = s.chains()[0][1];
        for mode in ObsMode::ALL {
            for obs in s.observe(&[f], mode) {
                assert!(
                    s.candidate_flops(obs).contains(&f),
                    "{mode:?}: candidates must include the true cell"
                );
            }
        }
    }

    #[test]
    fn compacted_candidates_span_the_channel() {
        let (_, s) = scan();
        let obs = ObsPoint::ChannelCycle {
            channel: 0,
            cycle: 0,
        };
        let cands = s.candidate_flops(obs);
        assert!(cands.len() > 1, "compaction widens the search space");
    }

    #[test]
    fn config_reports_channels() {
        let cfg = ScanConfig {
            num_chains: 45,
            chains_per_channel: 20,
        };
        assert_eq!(cfg.num_channels(), 3);
        assert_eq!(ScanConfig::default().num_channels(), 1);
    }
}
