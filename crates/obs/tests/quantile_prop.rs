//! Property tests for histogram quantile edges (ISSUE 10 satellite):
//! sliding-window p50/p99 over upper-bound-inclusive buckets are exact
//! for distributions whose values lie on the bucket bounds, monotone in
//! `q` and under merge, and identical whether the histogram is built on
//! 1 thread or sharded across 4.

use m3d_obs::Histogram;
use proptest::prelude::*;

const BOUNDS: [f64; 6] = [1.0, 2.0, 5.0, 10.0, 50.0, 100.0];

/// The exact quantile of a multiset under the histogram's definition:
/// the value at 1-based rank `ceil(q · n)` (clamped to at least 1) in
/// sorted order.
fn exact_quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

fn hist_of(values: &[f64]) -> Histogram {
    let mut h = Histogram::new(&BOUNDS);
    for &v in values {
        h.record(v);
    }
    h
}

/// Values drawn from the bucket bounds themselves, so every observation
/// sits exactly on its bucket's upper bound and the histogram quantile
/// can be compared for equality against the true multiset quantile.
fn bound_values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0usize..BOUNDS.len(), 1..200)
        .prop_map(|idxs| idxs.into_iter().map(|i| BOUNDS[i]).collect::<Vec<f64>>())
}

/// Quantile fractions in (0, 1], on a centile grid.
fn centile() -> impl Strategy<Value = f64> {
    (1u32..101).prop_map(|c| f64::from(c) / 100.0)
}

proptest! {
    /// p50/p99 (and a sampled q) are *exact* when every value lies on a
    /// bucket bound — upper-bound-inclusive bucketing loses nothing.
    #[test]
    fn quantiles_are_exact_for_bound_valued_distributions(
        values in bound_values(),
        q in centile(),
    ) {
        let h = hist_of(&values);
        for q in [0.5, 0.99, q] {
            prop_assert_eq!(h.quantile(q), Some(exact_quantile(&values, q)));
        }
    }

    /// Quantiles are monotone non-decreasing in `q`.
    #[test]
    fn quantiles_are_monotone_in_q(
        values in bound_values(),
        q1 in centile(),
        q2 in centile(),
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let h = hist_of(&values);
        prop_assert!(h.quantile(lo).unwrap() <= h.quantile(hi).unwrap());
    }

    /// A merged histogram's quantile is bracketed by its inputs'
    /// quantiles (monotone under merge), and merging is exact: it equals
    /// the quantile of the concatenated multiset.
    #[test]
    fn quantiles_are_monotone_under_merge(
        a in bound_values(),
        b in bound_values(),
        q in centile(),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut merged = ha.clone();
        merged.merge(&hb);
        let (qa, qb) = (ha.quantile(q).unwrap(), hb.quantile(q).unwrap());
        let qm = merged.quantile(q).unwrap();
        prop_assert!(qa.min(qb) <= qm && qm <= qa.max(qb),
            "merge quantile {} outside [{}, {}]", qm, qa.min(qb), qa.max(qb));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        prop_assert_eq!(qm, exact_quantile(&all, q));
    }

    /// The sliding-window histogram (cumulative-snapshot difference via
    /// `delta_since`) has exact quantiles over just the window's values.
    #[test]
    fn sliding_window_quantiles_are_exact(
        values in bound_values(),
        split in 0usize..200,
        q in centile(),
    ) {
        let split = split.min(values.len().saturating_sub(1));
        let earlier = hist_of(&values[..split]);
        let now = hist_of(&values);
        let window = now.delta_since(&earlier).expect("same bounds, monotone counts");
        for q in [0.5, 0.99, q] {
            prop_assert_eq!(window.quantile(q), Some(exact_quantile(&values[split..], q)));
        }
    }

    /// Sharding the observations across 4 pool threads and merging the
    /// shards yields bit-identical quantiles to a single-threaded build.
    #[test]
    fn four_thread_sharded_build_matches_one_thread(
        values in bound_values(),
        q in centile(),
    ) {
        let serial = hist_of(&values);
        let sharded = m3d_par::with_threads(4, || {
            let chunk = m3d_par::default_chunk_size(values.len());
            let shards = m3d_par::par_chunks(&values, chunk, |_, c| hist_of(c));
            let mut merged = Histogram::new(&BOUNDS);
            for s in &shards {
                merged.merge(s);
            }
            merged
        });
        prop_assert_eq!(&sharded, &serial);
        for q in [0.5, 0.99, q] {
            prop_assert_eq!(sharded.quantile(q), serial.quantile(q));
        }
    }
}
