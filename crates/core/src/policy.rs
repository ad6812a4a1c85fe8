//! The candidate pruning and reordering policy (Section V, Figs. 7–8).

use m3d_diagnosis::{miv_equivalent, Candidate, DiagnosisReport};
use m3d_part::{M3dDesign, Tier};

/// What the policy did to the ATPG report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyAction {
    /// Tier prediction had low confidence (`p ≤ T_p`): reorder only.
    Reorder,
    /// High confidence and Classifier approval: fault-free tier pruned.
    Prune,
    /// No sub-graph / no prediction available: report passed through.
    PassThrough,
    /// Classifier output was unusable (non-finite confidence): the
    /// structural baseline filter \[11\] ranked the report instead and it
    /// was tagged degraded.
    Degraded,
}

impl PolicyAction {
    /// The action's name on the `m3d-serve` wire (a report's `action`
    /// field): `reorder`, `prune`, `pass_through` or `degraded`.
    pub fn wire_name(self) -> &'static str {
        match self {
            PolicyAction::Reorder => "reorder",
            PolicyAction::Prune => "prune",
            PolicyAction::PassThrough => "pass_through",
            PolicyAction::Degraded => "degraded",
        }
    }
}

/// The policy's result: the final report, the action taken, and the backup
/// dictionary entry (pruned candidates, recoverable by a diagnosis
/// engineer if the root cause is missing from the pruned report).
#[derive(Clone, Debug)]
pub struct PolicyOutcome {
    /// The final (reordered / pruned) report.
    pub report: DiagnosisReport,
    /// The action taken.
    pub action: PolicyAction,
    /// Candidates removed by pruning (the backup dictionary entry).
    pub backup: Vec<Candidate>,
    /// The Tier-predictor output `(tier, confidence)`, if available.
    pub predicted_tier: Option<(Tier, f64)>,
    /// MIVs the MIV-pinpointer flagged as faulty.
    pub predicted_mivs: Vec<u32>,
}

impl PolicyOutcome {
    /// A pass-through outcome (no predictions available).
    pub fn pass_through(report: DiagnosisReport) -> Self {
        PolicyOutcome {
            report,
            action: PolicyAction::PassThrough,
            backup: Vec::new(),
            predicted_tier: None,
            predicted_mivs: Vec::new(),
        }
    }

    /// A degraded outcome: the classifier's confidence was unusable, so the
    /// report was ranked by the structural baseline instead and tagged
    /// [`DiagnosisReport::degraded`].
    pub fn degraded(report: &DiagnosisReport) -> Self {
        let mut report = m3d_diagnosis::baseline_filter(report);
        report.mark_degraded();
        PolicyOutcome {
            report,
            action: PolicyAction::Degraded,
            backup: Vec::new(),
            predicted_tier: None,
            predicted_mivs: Vec::new(),
        }
    }
}

/// Applies the pruning/reordering policy to an ATPG report.
///
/// 1. Candidates equivalent to MIVs predicted faulty move to the top
///    (prioritizing MIV faults for PFA). Such candidates are *protected*:
///    the subsequent pruning step may not remove them.
/// 2. If the tier confidence exceeds `tp_threshold` and the Classifier (if
///    any) approves, candidates in the tier predicted fault-free are
///    pruned into the backup dictionary; unprotected no-tier (MIV)
///    candidates are pruned too — recovering them is exactly the
///    MIV-pinpointer's job (Section VII-B).
/// 3. Otherwise all candidates in the predicted faulty tier move ahead of
///    the rest (stable reorder).
pub fn prune_and_reorder(
    design: &M3dDesign,
    report: &DiagnosisReport,
    predicted_tier: (Tier, f64),
    predicted_mivs: &[u32],
    tp_threshold: f64,
    classifier_approves: bool,
) -> PolicyOutcome {
    let (faulty_tier, confidence) = predicted_tier;
    let protected = |c: &Candidate| -> bool {
        miv_equivalent(design, c.fault.site).is_some_and(|m| predicted_mivs.contains(&m))
    };

    // Step 1: stable partition — protected MIV candidates first.
    let mut ordered: Vec<Candidate> = Vec::with_capacity(report.resolution());
    ordered.extend(report.candidates().iter().filter(|c| protected(c)).copied());
    let rest: Vec<Candidate> = report
        .candidates()
        .iter()
        .filter(|c| !protected(c))
        .copied()
        .collect();

    let high_confidence = confidence > tp_threshold;
    if high_confidence && classifier_approves {
        // Step 2: prune the fault-free tier (and unprotected MIVs).
        let mut backup = Vec::new();
        for c in rest {
            let keep = c.tier == Some(faulty_tier);
            if keep {
                ordered.push(c);
            } else {
                backup.push(c);
            }
        }
        PolicyOutcome {
            report: report.with_candidates(ordered),
            action: PolicyAction::Prune,
            backup,
            predicted_tier: Some((faulty_tier, confidence)),
            predicted_mivs: predicted_mivs.to_vec(),
        }
    } else {
        // Step 3: stable reorder — faulty-tier candidates ahead.
        ordered.extend(rest.iter().filter(|c| c.tier == Some(faulty_tier)).copied());
        ordered.extend(rest.iter().filter(|c| c.tier != Some(faulty_tier)).copied());
        PolicyOutcome {
            report: report.with_candidates(ordered),
            action: PolicyAction::Reorder,
            backup: Vec::new(),
            predicted_tier: Some((faulty_tier, confidence)),
            predicted_mivs: predicted_mivs.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_diagnosis::MatchScore;
    use m3d_netlist::generate::Benchmark;
    use m3d_netlist::SitePos;
    use m3d_part::DesignConfig;
    use m3d_tdf::{Fault, Polarity};

    fn design() -> M3dDesign {
        DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300))
    }

    fn site_in_tier(d: &M3dDesign, tier: Tier, skip: usize) -> m3d_netlist::SiteId {
        d.sites()
            .iter()
            .filter(|&(s, p)| !matches!(p, SitePos::Miv(_)) && d.tier_of_site(s) == Some(tier))
            .map(|(s, _)| s)
            .nth(skip)
            .expect("tier has sites")
    }

    fn cand(d: &M3dDesign, site: m3d_netlist::SiteId) -> Candidate {
        Candidate {
            fault: Fault::new(site, Polarity::SlowToRise),
            score: MatchScore {
                tfsf: 3,
                tfsp: 0,
                tpsf: 0,
            },
            tier: d.tier_of_site(site),
        }
    }

    #[test]
    fn wire_names_are_pinned() {
        let names = [
            PolicyAction::Reorder,
            PolicyAction::Prune,
            PolicyAction::PassThrough,
            PolicyAction::Degraded,
        ]
        .map(PolicyAction::wire_name);
        assert_eq!(names, ["reorder", "prune", "pass_through", "degraded"]);
    }

    #[test]
    fn pruning_keeps_only_the_faulty_tier() {
        let d = design();
        let top = cand(&d, site_in_tier(&d, Tier::Top, 0));
        let bottom = cand(&d, site_in_tier(&d, Tier::Bottom, 0));
        let report = DiagnosisReport::new(vec![bottom, top]);
        let out = prune_and_reorder(&d, &report, (Tier::Top, 0.97), &[], 0.9, true);
        assert_eq!(out.action, PolicyAction::Prune);
        assert_eq!(out.report.resolution(), 1);
        assert_eq!(out.report.candidates()[0].tier, Some(Tier::Top));
        assert_eq!(out.backup.len(), 1, "pruned candidate lands in backup");
    }

    #[test]
    fn low_confidence_reorders_without_pruning() {
        let d = design();
        let top = cand(&d, site_in_tier(&d, Tier::Top, 1));
        let bottom = cand(&d, site_in_tier(&d, Tier::Bottom, 1));
        let report = DiagnosisReport::new(vec![bottom, top]);
        let out = prune_and_reorder(&d, &report, (Tier::Top, 0.6), &[], 0.9, true);
        assert_eq!(out.action, PolicyAction::Reorder);
        assert_eq!(out.report.resolution(), 2);
        assert_eq!(out.report.candidates()[0].tier, Some(Tier::Top));
        assert!(out.backup.is_empty());
    }

    #[test]
    fn predicted_mivs_are_promoted_and_protected() {
        let d = design();
        assert!(d.miv_count() > 0);
        let miv_site = d.miv_site(0);
        let miv_cand = Candidate {
            fault: Fault::new(miv_site, Polarity::SlowToFall),
            score: MatchScore {
                tfsf: 1,
                tfsp: 0,
                tpsf: 0,
            },
            tier: None,
        };
        let top = cand(&d, site_in_tier(&d, Tier::Top, 2));
        let report = DiagnosisReport::new(vec![top, miv_cand]);
        // Prune with tier=Top: MIV candidate is protected by prediction.
        let out = prune_and_reorder(&d, &report, (Tier::Top, 0.99), &[0], 0.9, true);
        assert_eq!(out.report.candidates()[0].fault.site, miv_site);
        assert_eq!(out.report.resolution(), 2);
        // Without the MIV prediction the MIV candidate is pruned.
        let out2 = prune_and_reorder(&d, &report, (Tier::Top, 0.99), &[], 0.9, true);
        assert!(out2
            .report
            .candidates()
            .iter()
            .all(|c| c.fault.site != miv_site));
        assert_eq!(out2.backup.len(), 1);
    }

    #[test]
    fn classifier_veto_downgrades_to_reorder() {
        let d = design();
        let top = cand(&d, site_in_tier(&d, Tier::Top, 3));
        let bottom = cand(&d, site_in_tier(&d, Tier::Bottom, 3));
        let report = DiagnosisReport::new(vec![bottom, top]);
        let out = prune_and_reorder(&d, &report, (Tier::Top, 0.99), &[], 0.9, false);
        assert_eq!(out.action, PolicyAction::Reorder);
        assert_eq!(out.report.resolution(), 2);
    }
}

impl PolicyOutcome {
    /// Estimated size in bytes of this chip's backup-dictionary entry
    /// (site id + polarity + score counts per pruned candidate). The paper
    /// argues the dictionary stays small — e.g. 246 kB for its worst case —
    /// because only the resolution *difference* is stored.
    pub fn backup_bytes(&self) -> usize {
        // 4B site + 1B polarity + 3×4B score + 1B tier tag
        self.backup.len() * 18
    }
}

#[cfg(test)]
mod backup_tests {
    use super::*;
    use m3d_diagnosis::MatchScore;
    use m3d_tdf::{Fault, Polarity};

    #[test]
    fn backup_size_scales_with_pruned_candidates() {
        let mk = |n: usize| PolicyOutcome {
            report: DiagnosisReport::default(),
            action: PolicyAction::Prune,
            backup: (0..n)
                .map(|i| Candidate {
                    fault: Fault::new(m3d_netlist::SiteId::new(i), Polarity::SlowToRise),
                    score: MatchScore::default(),
                    tier: None,
                })
                .collect(),
            predicted_tier: None,
            predicted_mivs: Vec::new(),
        };
        assert_eq!(mk(0).backup_bytes(), 0);
        assert!(mk(10).backup_bytes() > mk(3).backup_bytes());
    }
}
