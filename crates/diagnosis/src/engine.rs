//! Cause-effect ATPG diagnosis (the commercial-tool stand-in).
//!
//! Given a failure log, the engine (1) extracts suspect sites by tracing
//! the fan-in cones of failing observation points, filtered to sites that
//! transition under the failing pattern, (2) fault-simulates the suspects
//! that can still reach the report and scores each predicted failure
//! signature against the log, and (3) ranks and retains candidates. When
//! no single fault explains the log (systematic multi-fault chips), an
//! iterative-cover pass selects a set of faults that jointly explain the
//! failures.
//!
//! Step (2) runs in two waves. Wave 1 is the suspects whose count reaches
//! the log's failure count; no site explains more failures than it counts,
//! so a candidate that explains the log perfectly is among them. If one
//! is, the report is the single-fault ranking, whose retention floor is
//! then fixed by the failure count alone, and a remaining suspect is
//! simulated only if one of its polarities is activated in enough failing
//! patterns to reach that floor ([`FaultSim::activation_support`]). The
//! suspects skipped can neither pass the floor nor be perfect, and the
//! ranking orders by site, so the report is the one scoring every suspect
//! gives. Without a perfect candidate in wave 1, every suspect is scored.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use m3d_dft::{ObsMode, ScanChains};
use m3d_netlist::SiteId;
use m3d_tdf::{FailureLog, Fault, FaultSim, Polarity, Signature};

use crate::report::{Candidate, DiagnosisReport, MatchScore};

/// Retention knobs for the ranked report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiagnosisConfig {
    /// Keep candidates explaining at least this fraction of the failures
    /// the best candidate explains (`tfsf` relative cut). When a candidate
    /// explains the log perfectly, the best explains every failure, so the
    /// same fraction of the failure count is also the floor below which a
    /// suspect's activation support lets diagnosis skip simulating it.
    pub retain_ratio: f64,
    /// Hard cap on report length.
    pub max_candidates: usize,
    /// Suspect-frequency cap for simulation (extraction and the
    /// multi-fault cover phase).
    pub max_cover_suspects: usize,
    /// A site becomes a suspect when it appears in at least this fraction
    /// of the per-entry suspect sets (1.0 = strict intersection; real
    /// tools over-approximate, which is where reported resolution > 1
    /// comes from).
    pub suspect_entry_frac: f64,
}

impl Default for DiagnosisConfig {
    fn default() -> Self {
        DiagnosisConfig {
            retain_ratio: 0.55,
            max_candidates: 64,
            max_cover_suspects: 160,
            suspect_entry_frac: 0.5,
        }
    }
}

/// Returned by [`Diagnoser::try_diagnose`] when the caller's deadline
/// passed before the report was complete. The partial work is discarded —
/// there is no partial report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("diagnosis cancelled past its deadline")
    }
}

impl std::error::Error for Cancelled {}

/// Whether `deadline` has passed; `None` never does and reads no clock.
fn passed(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// The diagnosis engine, reusable across failure logs of one test setup.
///
/// # Examples
///
/// ```no_run
/// use m3d_dft::{ObsMode, ScanChains, ScanConfig};
/// use m3d_diagnosis::{Diagnoser, DiagnosisConfig};
/// use m3d_netlist::generate::Benchmark;
/// use m3d_part::DesignConfig;
/// use m3d_tdf::{generate_patterns, AtpgConfig, FaultSim};
///
/// let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
/// let ts = generate_patterns(&design, &AtpgConfig::new(1, 256));
/// let scan = ScanChains::new(
///     design.netlist(),
///     ScanConfig::for_flop_count(design.netlist().flops().len()),
/// );
/// let fsim = FaultSim::new(&design, &ts.patterns);
/// let diagnoser =
///     Diagnoser::new(&fsim, &scan, ObsMode::Bypass, DiagnosisConfig::default());
/// ```
#[derive(Debug)]
pub struct Diagnoser<'a> {
    fsim: &'a FaultSim<'a>,
    scan: &'a ScanChains,
    mode: ObsMode,
    config: DiagnosisConfig,
    /// The design's fan-in cones: a row's sites are its flop's suspects.
    cones: &'a m3d_part::FaninCones,
}

impl<'a> Diagnoser<'a> {
    /// Builds the engine over the design's fan-in cone index, built once per
    /// design and amortized over every failure log (the same argument the
    /// paper makes for its top-level graph).
    pub fn new(
        fsim: &'a FaultSim<'a>,
        scan: &'a ScanChains,
        mode: ObsMode,
        config: DiagnosisConfig,
    ) -> Self {
        Diagnoser {
            fsim,
            scan,
            mode,
            config,
            cones: fsim.design().fanin_cones(),
        }
    }

    /// The observation mode the engine diagnoses under.
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    fn score_against(predicted: &Signature, tester: &Signature) -> MatchScore {
        let tfsf = predicted.overlap(tester);
        MatchScore {
            tfsf,
            tfsp: tester.failures() - tfsf,
            tpsf: predicted.failures() - tfsf,
        }
    }

    /// Simulates both polarities of a site — one propagation over every
    /// block, split by lane — and keeps the better match, using the caller's
    /// propagation scratch (one [`m3d_tdf::BlockDetector`] per worker when
    /// suspects are scored in parallel).
    fn best_candidate(
        &self,
        det: &mut m3d_tdf::BlockDetector<'_>,
        site: SiteId,
        tester: &Signature,
    ) -> (Candidate, Signature) {
        let tier = self.fsim.design().tier_of_site(site);
        let mut best: Option<(Candidate, Signature)> = None;
        let signatures = self.fsim.signatures(det, site, self.scan, self.mode);
        for (pol, predicted) in Polarity::ALL.into_iter().zip(signatures) {
            let score = Self::score_against(&predicted, tester);
            if best
                .as_ref()
                .is_none_or(|(b, _)| score.value() > b.score.value())
            {
                let fault = Fault::new(site, pol);
                best = Some((Candidate { fault, score, tier }, predicted));
            }
        }
        best.expect("both polarities evaluated")
    }

    /// Diagnoses one failure log into a ranked candidate report.
    ///
    /// An empty log (the chip passed) yields an empty report. Entries
    /// referencing patterns or scan cells that do not exist in this test
    /// setup (a malformed or mismatched tester log) are dropped and the
    /// report is tagged [`DiagnosisReport::degraded`] — graceful
    /// degradation instead of an out-of-bounds panic.
    pub fn diagnose(&self, log: &FailureLog) -> DiagnosisReport {
        self.try_diagnose(log, None)
            .expect("a diagnosis without a deadline is never cancelled")
    }

    /// [`Diagnoser::diagnose`] with a deadline: the engine reads the clock
    /// at phase boundaries and between suspect simulations, and abandons
    /// the remaining cone-scoring work with `Err(Cancelled)` once
    /// `deadline` has passed. `None` never expires and reads no clock.
    ///
    /// Cancellation is pure control flow: a report completed before the
    /// deadline is bit-identical to [`Diagnoser::diagnose`] at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the deadline was seen passed before the report
    /// was complete. No partial report is returned.
    pub fn try_diagnose(
        &self,
        log: &FailureLog,
        deadline: Option<Instant>,
    ) -> Result<DiagnosisReport, Cancelled> {
        let mut span = m3d_obs::span("diagnosis");
        span.add("entries", log.entries().len() as u64);
        let dropped = log
            .entries()
            .iter()
            .any(|e| !self.fsim.entry_in_range(self.scan, e));
        let sanitized: FailureLog;
        let log = if dropped {
            sanitized = log
                .entries()
                .iter()
                .filter(|e| self.fsim.entry_in_range(self.scan, e))
                .copied()
                .collect();
            &sanitized
        } else {
            log
        };
        let mut report = self.diagnose_trusted(log, deadline, &mut span)?;
        if dropped {
            report.mark_degraded();
            span.add("degraded", 1);
            m3d_obs::counter("diagnosis.degraded_reports", 1);
        }
        span.add("candidates", report.candidates().len() as u64);
        m3d_obs::counter("diagnosis.reports", 1);
        m3d_obs::counter("diagnosis.candidates", report.candidates().len() as u64);
        Ok(report)
    }

    /// A zero-score placeholder a cancelled scoring worker returns; the
    /// whole result vector is discarded once the deadline is seen passed,
    /// so placeholders never reach a report.
    fn cancelled_stub(site: SiteId) -> (Candidate, Signature) {
        (
            Candidate {
                fault: Fault::new(site, Polarity::ALL[0]),
                score: MatchScore::default(),
                tier: None,
            },
            Signature::default(),
        )
    }

    /// [`Diagnoser::diagnose`] after entry sanitization.
    fn diagnose_trusted(
        &self,
        log: &FailureLog,
        deadline: Option<Instant>,
        span: &mut m3d_obs::SpanGuard,
    ) -> Result<DiagnosisReport, Cancelled> {
        if log.is_empty() {
            return Ok(DiagnosisReport::default());
        }
        if passed(deadline) {
            return Err(Cancelled);
        }
        let tester = Signature::from_log(log, self.fsim.patterns());

        // Phase 1: frequency-based suspect extraction. A site's frequency
        // is the number of entries whose failing cell has it in its fan-in
        // cone, transitioning under the failing pattern. A strict
        // intersection would under-approximate what commercial tools
        // report; sites appearing in most per-entry cones are suspects.
        let counts = {
            let _count = m3d_obs::span("suspect_count");
            self.fsim
                .active_site_counts(&tester, self.scan, |flop| self.cones.sites(flop))
        };
        span.add("obs_points", u64::from(counts.obs_points));
        let needed =
            ((f64::from(counts.entries) * self.config.suspect_entry_frac).ceil() as u32).max(1);
        let by_freq = self.most_frequent(counts.sites);
        let suspects = &by_freq[..by_freq.partition_point(|&(_, c)| c >= needed)];

        let (scored, skipped) = self.score_phase1(suspects, &tester, deadline)?;
        span.add("suspects", scored.len() as u64);
        span.add("skipped", skipped as u64);
        m3d_obs::counter("diagnosis.suspects_skipped", skipped as u64);

        let _rank = m3d_obs::span("cover_rank");
        let single_explains = scored.iter().any(|(c, _)| c.score.is_perfect());

        if !single_explains {
            // Phase 2: iterative cover for multi-fault chips. Every
            // selected candidate explains a *disjoint share* of the log,
            // so the single-fault retention floor does not apply — the
            // cover itself is the retention decision.
            let selected = self.cover_diagnosis(&by_freq, &tester, scored, deadline, span)?;
            return Ok(self.rank_cover(selected));
        }

        Ok(self.rank_and_retain(scored))
    }

    /// The `max_cover_suspects` most frequent counted sites, by count
    /// descending and then site. Phase 1's suspects are a prefix of them
    /// and the cover reads no site past them, so only the kept ones are
    /// sorted; the order is total, so the prefix is the one a full sort
    /// gives.
    fn most_frequent(&self, mut sites: Vec<(SiteId, u32)>) -> Vec<(SiteId, u32)> {
        let by_freq = |a: &(SiteId, u32), b: &(SiteId, u32)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        let keep = self.config.max_cover_suspects;
        if sites.len() > keep {
            sites.select_nth_unstable_by(keep, by_freq);
            sites.truncate(keep);
        }
        sites.sort_unstable_by(by_freq);
        sites
    }

    /// Phase 1's scoring, in two waves; `suspects` are `(site, count)` in
    /// frequency order. Returns the scored suspects, in suspect order, and
    /// how many were skipped.
    ///
    /// Wave 1 is the leading suspects whose count reaches the failure
    /// count. A site's predicted failures lie in its failing cells' cones
    /// and in patterns that make it transition, so its `tfsf` never
    /// exceeds its count, and a perfect candidate (`tfsf` = failures) is
    /// in wave 1. If wave 1 holds one, [`Diagnoser::rank_and_retain`]'s
    /// best `tfsf` is the failure count whatever else is scored, and its
    /// floor is [`Diagnoser::retention_floor`] of it. A remaining suspect
    /// whose activation support is below that floor under both polarities
    /// has `tfsf` below it whichever polarity it keeps, and its count, so
    /// its `tfsf`, is below the failure count, so it is neither retained
    /// nor perfect; the ranking orders by site, so its absence changes no
    /// report, and it is skipped. Otherwise every suspect is scored, as
    /// the cover needs.
    fn score_phase1(
        &self,
        suspects: &[(SiteId, u32)],
        tester: &Signature,
        deadline: Option<Instant>,
    ) -> Result<(Vec<(Candidate, Signature)>, usize), Cancelled> {
        let failures = tester.failures();
        let (wave1, rest) = suspects.split_at(suspects.partition_point(|&(_, c)| c >= failures));
        let sites = |s: &[(SiteId, u32)]| -> Vec<SiteId> { s.iter().map(|&(s, _)| s).collect() };
        let mut scored = if wave1.is_empty() {
            Vec::new()
        } else {
            self.score_suspects(&sites(wave1), tester, deadline)?
        };
        let mut rest = sites(rest);
        let total = rest.len();
        if scored.iter().any(|(c, _)| c.score.is_perfect()) {
            let floor = self.retention_floor(failures);
            rest.retain(|&s| {
                self.fsim
                    .activation_support(s, tester)
                    .into_iter()
                    .any(|n| n >= floor)
            });
        }
        let skipped = total - rest.len();
        scored.extend(self.score_suspects(&rest, tester, deadline)?);
        Ok((scored, skipped))
    }

    /// Scores one wave of suspects in parallel: each candidate simulates
    /// both polarities over the full pattern set, which is the dominant
    /// cost of a diagnosis at paper scale. Suspects are independent and
    /// the map is order-preserving with one propagation scratch per
    /// worker, so the report is bitwise identical at any thread count —
    /// which is also why the cost gate (suspects × design size) can keep
    /// small-design diagnoses serial without changing any report.
    ///
    /// The `suspect_score` span's `gate_evals` counter is the wave's gate
    /// evaluations: each suspect's count comes back with its result and
    /// this thread records the sum, so it is the same at any width.
    fn score_suspects(
        &self,
        sites: &[SiteId],
        tester: &Signature,
        deadline: Option<Instant>,
    ) -> Result<Vec<(Candidate, Signature)>, Cancelled> {
        let mut span = m3d_obs::span("suspect_score");
        span.add("suspects", sites.len() as u64);
        let work = self.scoring_work(sites.len());
        let scored = m3d_par::with_threads(m3d_par::par_gate(work), || {
            m3d_par::par_map_init(
                sites,
                || self.fsim.detector(),
                |det, &s| {
                    // Deadline early-out: skip the simulation and return
                    // a stub; the wave's result is discarded.
                    if passed(deadline) {
                        return (Self::cancelled_stub(s), 0);
                    }
                    let scored = self.best_candidate(det, s, tester);
                    (scored, det.take_gate_evals())
                },
            )
        });
        if passed(deadline) {
            return Err(Cancelled);
        }
        let (scored, gate_evals): (Vec<_>, Vec<u64>) = scored.into_iter().unzip();
        span.add("gate_evals", gate_evals.iter().sum());
        m3d_obs::counter("diagnosis.suspects_scored", sites.len() as u64);
        Ok(scored)
    }

    /// Work estimate for scoring `n` suspects, for the `m3d-par` cost
    /// gate: each suspect re-simulates two polarities over the design, so
    /// design size is the per-suspect element count.
    fn scoring_work(&self, n: usize) -> u64 {
        n as u64 * self.fsim.design().netlist().gate_count() as u64 * 2
    }

    /// Greedy cover: repeatedly pick the suspect explaining the most
    /// residual failures, until the log is explained or progress stops.
    /// `ranked` is phase 1's frequency-ranked union of per-entry suspects,
    /// cut to `max_cover_suspects` ([`Diagnoser::most_frequent`]).
    fn cover_diagnosis(
        &self,
        ranked: &[(SiteId, u32)],
        tester: &Signature,
        seed: Vec<(Candidate, Signature)>,
        deadline: Option<Instant>,
        span: &mut m3d_obs::SpanGuard,
    ) -> Result<Vec<(Candidate, Signature)>, Cancelled> {
        let by_freq: Vec<SiteId> = ranked.iter().map(|&(s, _)| s).collect();

        let mut pool: HashMap<SiteId, (Candidate, Signature)> = seed
            .into_iter()
            .map(|(c, p)| (c.fault.site, (c, p)))
            .collect();
        // Score the cover suspects the seed pass did not already score.
        let missing: Vec<SiteId> = by_freq
            .iter()
            .copied()
            .filter(|s| !pool.contains_key(s))
            .collect();
        let scored_missing = self.score_suspects(&missing, tester, deadline)?;
        span.add("cover_suspects", missing.len() as u64);
        for (site, cand) in missing.into_iter().zip(scored_missing) {
            pool.insert(site, cand);
        }

        let mut residual = tester.clone();
        let mut selected: Vec<(Candidate, Signature)> = Vec::new();
        let mut used: HashSet<SiteId> = HashSet::new();
        for _round in 0..6 {
            if residual.is_empty() {
                break;
            }
            // Pick the unused candidate explaining the most residual
            // failures with the fewest mispredictions (`tpsf`: predicted
            // failures the tester did not see).
            let best = pool
                .values()
                .filter(|(c, _)| !used.contains(&c.fault.site))
                .map(|(c, p)| {
                    let explained = i64::from(residual.overlap(p));
                    let extra = i64::from(c.score.tpsf);
                    (explained * 2 - extra, c.fault.site)
                })
                .max_by_key(|&(gain, site)| (gain, std::cmp::Reverse(site)));
            let Some((gain, site)) = best else { break };
            if gain <= 0 {
                break;
            }
            used.insert(site);
            let (cand, pred) = pool[&site].clone();
            residual.remove(&pred);
            selected.push((cand, pred));
        }

        // Add signature-equivalent suspects of every selected candidate
        // (indistinguishable faults inflate resolution, as on real tools).
        let covering = selected.len();
        for site in &by_freq {
            if used.contains(site) {
                continue;
            }
            if let Some((cand, pred)) = pool.get(site) {
                if !pred.is_empty() && selected[..covering].iter().any(|(_, sig)| sig == pred) {
                    selected.push((*cand, pred.clone()));
                    used.insert(*site);
                }
            }
        }
        Ok(selected)
    }

    /// Ranks a multi-fault cover: candidates sorted by explained failures,
    /// all retained (each one carries a distinct share of the log).
    fn rank_cover(&self, mut selected: Vec<(Candidate, Signature)>) -> DiagnosisReport {
        selected.retain(|(c, _)| c.score.tfsf > 0);
        selected.sort_by(|(a, _), (b, _)| {
            b.score
                .tfsf
                .cmp(&a.score.tfsf)
                .then(a.fault.site.cmp(&b.fault.site))
        });
        let candidates: Vec<Candidate> = selected
            .into_iter()
            .take(self.config.max_candidates)
            .map(|(c, _)| c)
            .collect();
        DiagnosisReport::new(candidates)
    }

    /// Ranks candidates the way commercial delay diagnosis does — by
    /// explained failures (`tfsf`). Simulated-but-unseen failures (`tpsf`)
    /// do *not* rank within a class: gross-delay simulation over-predicts
    /// for real small-delay defects, so a candidate with extra predicted
    /// failures may still be the defect. Ties order structurally.
    fn rank_and_retain(&self, mut scored: Vec<(Candidate, Signature)>) -> DiagnosisReport {
        scored.retain(|(c, _)| c.score.tfsf > 0);
        let best_tfsf = scored.iter().map(|(c, _)| c.score.tfsf).max().unwrap_or(0);
        // Candidates explaining within half of the best are statistically
        // indistinguishable under small-delay uncertainty; they share a
        // rank band and order structurally inside it.
        let band = |tfsf: u32| -> u32 { u32::from(tfsf * 2 > best_tfsf) };
        scored.sort_by(|(a, _), (b, _)| {
            band(b.score.tfsf)
                .cmp(&band(a.score.tfsf))
                .then(a.fault.site.cmp(&b.fault.site))
        });
        let floor = self.retention_floor(best_tfsf);
        let candidates: Vec<Candidate> = scored
            .into_iter()
            .filter(|(c, _)| c.score.is_perfect() || c.score.tfsf >= floor)
            .take(self.config.max_candidates)
            .map(|(c, _)| c)
            .collect();
        DiagnosisReport::new(candidates)
    }

    /// The fewest explained failures a non-perfect candidate needs to be
    /// retained when the best candidate explains `best_tfsf`: the one
    /// expression both the ranking and phase 1's skip use.
    fn retention_floor(&self, best_tfsf: u32) -> u32 {
        (f64::from(best_tfsf) * self.config.retain_ratio).ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_dft::ScanConfig;
    use m3d_netlist::generate::Benchmark;
    use m3d_part::DesignConfig;
    use m3d_tdf::{generate_patterns, AtpgConfig, FailEntry};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};
    use std::sync::OnceLock;

    struct Env {
        design: m3d_part::M3dDesign,
        ts: m3d_tdf::TestSet,
        scan: ScanChains,
    }

    fn env() -> Env {
        let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let ts = generate_patterns(&design, &AtpgConfig::new(1, 256));
        let scan = ScanChains::new(
            design.netlist(),
            ScanConfig::for_flop_count(design.netlist().flops().len()),
        );
        Env { design, ts, scan }
    }

    fn detected_faults(e: &Env) -> Vec<Fault> {
        m3d_tdf::full_fault_list(&e.design)
            .into_iter()
            .zip(&e.ts.detected)
            .filter(|&(_, &d)| d)
            .map(|(f, _)| f)
            .collect()
    }

    /// The AES-300 environment, its fault simulator and its detected
    /// faults, built once for every case of the exactness oracle.
    fn oracle_env() -> (&'static Env, &'static FaultSim<'static>, &'static [Fault]) {
        static ENV: OnceLock<(Env, Vec<Fault>)> = OnceLock::new();
        static FSIM: OnceLock<FaultSim<'static>> = OnceLock::new();
        let (e, detected) = ENV.get_or_init(|| {
            let e = env();
            let detected = detected_faults(&e);
            (e, detected)
        });
        let fsim = FSIM.get_or_init(|| FaultSim::new(&e.design, &e.ts.patterns));
        (e, fsim, detected)
    }

    #[test]
    fn single_fault_diagnosis_is_accurate() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let diag = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default());
        let faults = detected_faults(&e);
        let mut rng = StdRng::seed_from_u64(5);
        let mut accurate = 0;
        let trials = 12;
        for _ in 0..trials {
            let f = faults[rng.gen_range(0..faults.len())];
            let mut det = fsim.detector();
            let dets = fsim.detections(&mut det, &[f]);
            let log = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);
            let report = diag.diagnose(&log);
            assert!(report.resolution() >= 1);
            if report.is_accurate(&[f]) {
                accurate += 1;
            }
        }
        assert!(
            accurate >= trials - 1,
            "bypass single-fault accuracy {accurate}/{trials}"
        );
    }

    #[test]
    fn compaction_degrades_resolution() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let faults = detected_faults(&e);
        let mut rng = StdRng::seed_from_u64(6);
        let mut res = [0usize; 2];
        for _ in 0..8 {
            let f = faults[rng.gen_range(0..faults.len())];
            let mut det = fsim.detector();
            let dets = fsim.detections(&mut det, &[f]);
            for (i, mode) in ObsMode::ALL.into_iter().enumerate() {
                let diag = Diagnoser::new(&fsim, &e.scan, mode, DiagnosisConfig::default());
                let log = FailureLog::from_detections(&dets, &e.scan, mode);
                res[i] += diag.diagnose(&log).resolution();
            }
        }
        assert!(
            res[1] >= res[0],
            "compacted resolution ({}) should not beat bypass ({})",
            res[1],
            res[0]
        );
    }

    #[test]
    fn multi_fault_cover_explains_logs() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let diag = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default());
        let faults = detected_faults(&e);
        let mut rng = StdRng::seed_from_u64(8);
        let mut any_hit = 0;
        for _ in 0..5 {
            let picks: Vec<Fault> = faults.choose_multiple(&mut rng, 3).copied().collect();
            let mut det = fsim.detector();
            let dets = fsim.detections(&mut det, &picks);
            let log = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);
            let report = diag.diagnose(&log);
            if report.first_hit_index(&picks).is_some() {
                any_hit += 1;
            }
        }
        assert!(any_hit >= 4, "cover diagnosis hit {any_hit}/5");
    }

    #[test]
    fn out_of_range_entries_degrade_instead_of_panicking() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let diag = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default());
        let f = detected_faults(&e)[0];
        let mut det = fsim.detector();
        let dets = fsim.detections(&mut det, &[f]);
        let clean = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);
        let clean_report = diag.diagnose(&clean);
        assert!(!clean_report.degraded());

        // A malformed tester log: the real entries plus one referencing a
        // nonexistent pattern and one referencing a nonexistent scan cell
        // (what `fail pattern 4294967295 flop 4294967295` parses to).
        let poisoned: FailureLog = clean
            .entries()
            .iter()
            .copied()
            .chain([
                FailEntry {
                    pattern: u32::MAX,
                    obs: m3d_dft::ObsPoint::Flop(m3d_netlist::FlopId::new(u32::MAX as usize)),
                },
                FailEntry {
                    pattern: 0,
                    obs: m3d_dft::ObsPoint::Flop(m3d_netlist::FlopId::new(
                        e.design.netlist().flops().len() + 7,
                    )),
                },
            ])
            .collect();
        let report = diag.diagnose(&poisoned);
        assert!(report.degraded(), "dropped entries must tag the report");
        assert_eq!(
            report.candidates(),
            clean_report.candidates(),
            "valid entries still diagnose normally"
        );

        // A compacted log plus observations that name no scan cell: a
        // channel past the last one, and a cycle past every chain.
        let compacted = Diagnoser::new(
            &fsim,
            &e.scan,
            ObsMode::Compacted,
            DiagnosisConfig::default(),
        );
        let clean = FailureLog::from_detections(&dets, &e.scan, ObsMode::Compacted);
        assert!(!clean.is_empty());
        let clean_report = compacted.diagnose(&clean);
        assert!(!clean_report.degraded());
        let past_chains = e.scan.max_chain_length() as u16;
        let poisoned: FailureLog = clean
            .entries()
            .iter()
            .copied()
            .chain((0..30).map(|pattern| FailEntry {
                pattern,
                obs: m3d_dft::ObsPoint::ChannelCycle {
                    channel: 9999,
                    cycle: 1,
                },
            }))
            .chain(std::iter::once(FailEntry {
                pattern: 0,
                obs: m3d_dft::ObsPoint::ChannelCycle {
                    channel: 0,
                    cycle: past_chains,
                },
            }))
            .collect();
        let report = compacted.diagnose(&poisoned);
        assert!(
            report.degraded(),
            "cell-less observations must tag the report"
        );
        assert_eq!(report.candidates(), clean_report.candidates());

        // A log of *only* junk entries degrades to an empty report.
        let junk: FailureLog = std::iter::once(FailEntry {
            pattern: u32::MAX,
            obs: m3d_dft::ObsPoint::Flop(m3d_netlist::FlopId::new(u32::MAX as usize)),
        })
        .collect();
        let report = diag.diagnose(&junk);
        assert!(report.degraded());
        assert_eq!(report.resolution(), 0);
    }

    #[test]
    fn empty_log_gives_empty_report() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let diag = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default());
        assert_eq!(diag.diagnose(&FailureLog::default()).resolution(), 0);
    }

    #[test]
    fn cancellation_is_pure_control_flow() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let diag = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default());
        let faults = detected_faults(&e);
        let mut det = fsim.detector();
        let dets = fsim.detections(&mut det, &[faults[3]]);
        let log = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);

        // A deadline that does not pass yields exactly the plain report.
        let later = Instant::now() + std::time::Duration::from_secs(3_600);
        let report = diag.try_diagnose(&log, Some(later)).expect("not cancelled");
        assert_eq!(report, diag.diagnose(&log));

        // A passed deadline cancels before any work, even for empty logs'
        // non-empty siblings; the empty log still short-circuits to Ok.
        let past = Some(Instant::now());
        assert_eq!(diag.try_diagnose(&log, past), Err(Cancelled));
        assert!(diag.try_diagnose(&FailureLog::default(), past).is_ok());
    }

    /// Entries naming no pattern or scan cell of the environment, as in
    /// `m3d-tdf`'s kernel oracle: each one degrades the report.
    fn junk_entries(e: &Env) -> [FailEntry; 4] {
        use m3d_dft::ObsPoint;
        use m3d_netlist::FlopId;
        let flops = e.design.netlist().flops().len();
        [
            FailEntry {
                pattern: u32::MAX,
                obs: ObsPoint::Flop(FlopId::new(u32::MAX as usize)),
            },
            FailEntry {
                pattern: 3,
                obs: ObsPoint::Flop(FlopId::new(flops)),
            },
            FailEntry {
                pattern: e.ts.patterns.len() as u32,
                obs: ObsPoint::Flop(FlopId::new(0)),
            },
            FailEntry {
                pattern: 3,
                obs: ObsPoint::ChannelCycle {
                    channel: 9999,
                    cycle: 0,
                },
            },
        ]
    }

    /// What the reference diagnosis computed.
    struct Reference {
        report: DiagnosisReport,
        /// Phase 1's suspects, `(site, count)` in frequency order.
        suspects: Vec<(SiteId, u32)>,
        tester: Signature,
        /// Every suspect scored, in suspect order.
        scored: Vec<(Candidate, Signature)>,
        /// Whether the phase-2 cover ran.
        cover: bool,
    }

    /// `diagnose_trusted` as it was before phase 1 scored in waves, kept
    /// as the exactness oracle's reference: every counted site sorted,
    /// every suspect scored, then the cover or the ranking.
    fn reference_diagnose(diag: &Diagnoser<'_>, log: &FailureLog) -> Reference {
        let mut span = m3d_obs::span("reference");
        let tester = Signature::from_log(log, diag.fsim.patterns());
        let counts = diag
            .fsim
            .active_site_counts(&tester, diag.scan, |flop| diag.cones.sites(flop));
        let needed =
            ((f64::from(counts.entries) * diag.config.suspect_entry_frac).ceil() as u32).max(1);
        let mut by_freq = counts.sites;
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let suspects: Vec<(SiteId, u32)> = by_freq
            .iter()
            .copied()
            .take_while(|&(_, c)| c >= needed)
            .take(diag.config.max_cover_suspects)
            .collect();
        let sites: Vec<SiteId> = suspects.iter().map(|&(s, _)| s).collect();
        let scored = diag
            .score_suspects(&sites, &tester, None)
            .expect("never cancelled");
        let cover = !scored.iter().any(|(c, _)| c.score.is_perfect());
        let report = if cover {
            let ranked = &by_freq[..by_freq.len().min(diag.config.max_cover_suspects)];
            let selected = diag
                .cover_diagnosis(ranked, &tester, scored.clone(), None, &mut span)
                .expect("never cancelled");
            diag.rank_cover(selected)
        } else {
            diag.rank_and_retain(scored.clone())
        };
        Reference {
            report,
            suspects,
            tester,
            scored,
            cover,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Scoring only the suspects that can reach the report gives the
        /// report scoring every suspect gives, at pool widths 1 and 4, on
        /// bypass and compacted logs of 1–5 faults with out-of-range
        /// entries mixed in, under the default, a low and a full
        /// retention ratio, and with the suspect cap cut to 8. A log
        /// that reaches the cover must have been scored in full.
        #[test]
        fn diagnosis_equals_the_score_every_suspect_reference(
            seed in any::<u64>(),
            k in 1usize..6,
            compacted in any::<bool>(),
            junk in 0usize..5,
            ratio in 0usize..4,
            cap in 0usize..4,
        ) {
            let (e, fsim, detected) = oracle_env();
            let mut rng = StdRng::seed_from_u64(seed);
            let picks: Vec<Fault> = (0..k)
                .map(|_| detected[rng.gen_range(0..detected.len())])
                .collect();
            let mode = if compacted { ObsMode::Compacted } else { ObsMode::Bypass };
            let config = DiagnosisConfig {
                retain_ratio: [0.55, 0.55, 0.3, 1.0][ratio],
                max_cover_suspects: [8, 160, 160, 160][cap],
                ..DiagnosisConfig::default()
            };
            let diag = Diagnoser::new(fsim, &e.scan, mode, config);
            let dets = fsim.detections(&mut fsim.detector(), &picks);
            let clean = FailureLog::from_detections(&dets, &e.scan, mode);
            let log: FailureLog = clean
                .entries()
                .iter()
                .copied()
                .chain(junk_entries(e).into_iter().take(junk))
                .collect();

            let want = reference_diagnose(&diag, &clean);
            let mut report = want.report.clone();
            if junk > 0 {
                report.mark_degraded();
            }
            for width in [1, 4] {
                let got = m3d_par::with_threads(width, || {
                    m3d_par::with_par_threshold(0, || diag.diagnose(&log))
                });
                prop_assert_eq!(&got, &report, "{:?}, {:?}, width {}", picks, mode, width);
            }
            let (scored, skipped) = diag
                .score_phase1(&want.suspects, &want.tester, None)
                .expect("never cancelled");
            prop_assert_eq!(scored.len() + skipped, want.suspects.len());
            if want.cover {
                prop_assert_eq!(scored, want.scored, "the cover's suspects were skipped");
            }
        }
    }
}
