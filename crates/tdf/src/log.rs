//! Tester failure logs.
//!
//! A failure log is what the tester emits for one failing chip: the list of
//! `(pattern, observation point)` pairs that mis-compared. In bypass mode
//! observation points are scan cells; under response compaction they are
//! `(channel, cycle)` pairs. The log — together with the netlist — is the
//! *only* input the paper's framework needs.

use m3d_dft::{ObsMode, ObsPoint, ScanChains};

use crate::fsim::Detection;
use crate::pattern::{PatternId, PatternSet};

/// One mis-comparing tester observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FailEntry {
    /// The failing pattern.
    pub pattern: PatternId,
    /// Where the failure was observed.
    pub obs: ObsPoint,
}

/// A failure log: all erroneous output responses of one failing chip.
///
/// # Examples
///
/// ```
/// use m3d_dft::{ObsMode, ObsPoint, ScanChains, ScanConfig};
/// use m3d_netlist::generate::{Benchmark, GenParams};
/// use m3d_netlist::FlopId;
/// use m3d_tdf::{Detection, FailureLog};
///
/// let nl = Benchmark::Aes.generate(&GenParams::small(1));
/// let scan = ScanChains::new(&nl, ScanConfig::for_flop_count(nl.flops().len()));
/// let dets = vec![Detection { pattern: 4, flop: FlopId::new(0) }];
/// let log = FailureLog::from_detections(&dets, &scan, ObsMode::Bypass);
/// assert_eq!(log.len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailureLog {
    entries: Vec<FailEntry>,
}

impl FailureLog {
    /// Builds a log from raw failing captures via the scan architecture.
    ///
    /// Detections are grouped per pattern and passed through the selected
    /// observation mode (compaction can alias pairs of failures away).
    pub fn from_detections(detections: &[Detection], scan: &ScanChains, mode: ObsMode) -> Self {
        let mut by_pattern: std::collections::BTreeMap<PatternId, Vec<m3d_netlist::FlopId>> =
            std::collections::BTreeMap::new();
        for d in detections {
            by_pattern.entry(d.pattern).or_default().push(d.flop);
        }
        let mut entries = Vec::new();
        for (pattern, flops) in by_pattern {
            for obs in scan.observe(&flops, mode) {
                entries.push(FailEntry { pattern, obs });
            }
        }
        FailureLog { entries }
    }

    /// The log entries, sorted by `(pattern, observation)`.
    #[inline]
    pub fn entries(&self) -> &[FailEntry] {
        &self.entries
    }

    /// Number of erroneous responses.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the chip passed every pattern.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The distinct failing patterns, ascending.
    pub fn failing_patterns(&self) -> Vec<PatternId> {
        let mut v: Vec<PatternId> = self.entries.iter().map(|e| e.pattern).collect();
        v.dedup();
        v
    }
}

impl FromIterator<FailEntry> for FailureLog {
    fn from_iter<I: IntoIterator<Item = FailEntry>>(iter: I) -> Self {
        let mut entries: Vec<FailEntry> = iter.into_iter().collect();
        entries.sort_unstable();
        entries.dedup();
        FailureLog { entries }
    }
}

/// One observation point's failures within one 64-pattern block: lane `i`
/// of `lanes` is set when the block's pattern `i` fails at `obs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ObsWord {
    /// Pattern block index.
    pub block: u32,
    /// Where the failures are observed.
    pub obs: ObsPoint,
    /// The failing lanes.
    pub lanes: u64,
}

impl ObsWord {
    #[inline]
    fn key(&self) -> (u32, ObsPoint) {
        (self.block, self.obs)
    }
}

/// A set of failing `(pattern, observation)` pairs in word form: one
/// [`ObsWord`] per `(block, observation point)` with a failure, sorted by
/// that key, no zero words. The form is canonical, so two signatures are
/// equal exactly when their failure sets are.
///
/// A delay fault fails the same few observation points across many
/// patterns, so diagnosis scores, covers and compares signatures as sorted
/// merges over words, 64 patterns per `popcount`.
///
/// # Examples
///
/// ```
/// use m3d_dft::{ObsMode, ScanChains, ScanConfig};
/// use m3d_netlist::generate::{Benchmark, GenParams};
/// use m3d_netlist::FlopId;
/// use m3d_tdf::{Detection, FailureLog, PatternSet, Signature};
///
/// let nl = Benchmark::Aes.generate(&GenParams::small(1));
/// let scan = ScanChains::new(&nl, ScanConfig::for_flop_count(nl.flops().len()));
/// let patterns = PatternSet::random(&nl, 128, 1);
/// let dets: Vec<Detection> = [3, 70, 71]
///     .map(|pattern| Detection { pattern, flop: FlopId::new(0) })
///     .to_vec();
/// let log = FailureLog::from_detections(&dets, &scan, ObsMode::Bypass);
/// let sig = Signature::from_log(&log, &patterns);
/// assert_eq!(sig.failures(), 3);
/// assert_eq!(sig.words().len(), 2, "patterns 70 and 71 share block 1");
/// assert_eq!(sig.words()[1].lanes, 0b1100_0000);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Signature {
    words: Vec<ObsWord>,
}

impl Signature {
    /// The words of a log's entries. Entries naming no pattern of
    /// `patterns` are skipped.
    pub fn from_log(log: &FailureLog, patterns: &PatternSet) -> Self {
        let mut located: Vec<(u32, ObsPoint, u8)> = log
            .entries()
            .iter()
            .filter_map(|e| {
                let (block, bit) = patterns.checked_locate(e.pattern)?;
                Some((block as u32, e.obs, bit))
            })
            .collect();
        located.sort_unstable();
        let mut sig = Signature::default();
        for (block, obs, bit) in located {
            match sig.words.last_mut() {
                Some(w) if w.key() == (block, obs) => w.lanes |= 1u64 << bit,
                _ => sig.words.push(ObsWord {
                    block,
                    obs,
                    lanes: 1u64 << bit,
                }),
            }
        }
        sig
    }

    /// Appends a word; zero `lanes` are skipped. Words must arrive in
    /// ascending `(block, obs)` order.
    pub(crate) fn push(&mut self, block: u32, obs: ObsPoint, lanes: u64) {
        if lanes == 0 {
            return;
        }
        debug_assert!(self.words.last().is_none_or(|w| w.key() < (block, obs)));
        self.words.push(ObsWord { block, obs, lanes });
    }

    /// The words, sorted by `(block, obs)`.
    #[inline]
    pub fn words(&self) -> &[ObsWord] {
        &self.words
    }

    /// Returns `true` if no pattern fails anywhere.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of failing `(pattern, observation)` pairs.
    pub fn failures(&self) -> u32 {
        self.words.iter().map(|w| w.lanes.count_ones()).sum()
    }

    /// Number of failing pairs in both `self` and `other`.
    pub fn overlap(&self, other: &Signature) -> u32 {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while let (Some(a), Some(b)) = (self.words.get(i), other.words.get(j)) {
            match a.key().cmp(&b.key()) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += (a.lanes & b.lanes).count_ones();
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Removes every failing pair of `other` from `self`.
    pub fn remove(&mut self, other: &Signature) {
        let mut theirs = other.words.iter().peekable();
        self.words.retain_mut(|w| {
            while theirs.next_if(|o| o.key() < w.key()).is_some() {}
            if let Some(o) = theirs.next_if(|o| o.key() == w.key()) {
                w.lanes &= !o.lanes;
            }
            w.lanes != 0
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_dft::ScanConfig;
    use m3d_netlist::generate::{Benchmark, GenParams};
    use m3d_netlist::FlopId;

    fn scan() -> ScanChains {
        let nl = Benchmark::Aes.generate(&GenParams::small(1));
        ScanChains::new(&nl, ScanConfig::for_flop_count(nl.flops().len()))
    }

    #[test]
    fn bypass_log_preserves_every_detection() {
        let s = scan();
        let dets = vec![
            Detection {
                pattern: 2,
                flop: FlopId::new(1),
            },
            Detection {
                pattern: 2,
                flop: FlopId::new(4),
            },
            Detection {
                pattern: 9,
                flop: FlopId::new(1),
            },
        ];
        let log = FailureLog::from_detections(&dets, &s, ObsMode::Bypass);
        assert_eq!(log.len(), 3);
        assert_eq!(log.failing_patterns(), vec![2, 9]);
    }

    #[test]
    fn compacted_log_can_alias_failures_away() {
        let s = scan();
        // Find two cells sharing (channel, cycle).
        let mut pair = None;
        'outer: for c1 in 0..s.chain_count() {
            for c2 in (c1 + 1)..s.chain_count() {
                if s.channel_of_chain(c1 as u16) == s.channel_of_chain(c2 as u16)
                    && !s.chains()[c1].is_empty()
                    && !s.chains()[c2].is_empty()
                {
                    pair = Some((s.chains()[c1][0], s.chains()[c2][0]));
                    break 'outer;
                }
            }
        }
        let (f1, f2) = pair.expect("compacted channels share chains");
        let dets = vec![
            Detection {
                pattern: 0,
                flop: f1,
            },
            Detection {
                pattern: 0,
                flop: f2,
            },
        ];
        let log = FailureLog::from_detections(&dets, &s, ObsMode::Compacted);
        assert!(log.is_empty(), "even parity must alias to a pass");
    }

    #[test]
    fn signature_operations_match_entry_sets() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;

        let nl = Benchmark::Aes.generate(&GenParams::small(1));
        let patterns = PatternSet::random(&nl, 200, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut random_log = || -> FailureLog {
            (0..40)
                .map(|_| FailEntry {
                    pattern: rng.gen_range(0..200),
                    obs: ObsPoint::Flop(FlopId::new(rng.gen_range(0..6))),
                })
                .collect()
        };
        let set =
            |log: &FailureLog| -> HashSet<FailEntry> { log.entries().iter().copied().collect() };
        for _ in 0..50 {
            let (a, b) = (random_log(), random_log());
            let (sa, sb) = (
                Signature::from_log(&a, &patterns),
                Signature::from_log(&b, &patterns),
            );
            assert_eq!(sa.failures() as usize, a.len());
            let both = set(&a).intersection(&set(&b)).count();
            assert_eq!(sa.overlap(&sb) as usize, both);
            let mut rest = sa.clone();
            rest.remove(&sb);
            let want: FailureLog = set(&a).difference(&set(&b)).copied().collect();
            assert_eq!(rest, Signature::from_log(&want, &patterns));
        }
    }

    #[test]
    fn from_iterator_sorts_and_dedups() {
        let e1 = FailEntry {
            pattern: 5,
            obs: ObsPoint::Flop(FlopId::new(0)),
        };
        let e0 = FailEntry {
            pattern: 1,
            obs: ObsPoint::Flop(FlopId::new(2)),
        };
        let log: FailureLog = vec![e1, e0, e1].into_iter().collect();
        assert_eq!(log.entries(), &[e0, e1]);
    }
}
