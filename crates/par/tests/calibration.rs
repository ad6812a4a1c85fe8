//! The `par_gate` break-even is measured once per process, on first use.
//!
//! This file holds exactly one test, so its call is the process's first
//! break-even computation: one made from inside a pool worker, where
//! nested dispatches run inline, must still time a real two-worker
//! dispatch instead of settling on the clamp's 4,096-element floor.

#[test]
fn break_even_first_computed_inside_a_worker_is_above_the_floor() {
    let seen = m3d_par::with_threads(2, || {
        m3d_par::par_map(&[(), ()], |_| {
            assert_eq!(m3d_par::num_threads(), 1, "runs inside a worker");
            m3d_par::par_break_even()
        })
    });
    for break_even in seen {
        assert!(
            break_even > 1 << 12,
            "break-even {break_even} sits on the 4,096 floor"
        );
    }
}
