//! Thread-count determinism for dataset generation: the wave-parallel
//! `generate_samples` must emit exactly the same sample batch at any
//! thread count (the RNG stream is drawn serially; only the fault
//! simulation and back-trace fan out).

use m3d_fault_localization::{generate_samples, InjectionKind, TestEnv};
use m3d_netlist::generate::Benchmark;
use m3d_part::DesignConfig;

#[test]
fn sample_features_are_bitwise_equal_across_pool_widths() {
    let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(300));
    let fsim = env.fault_sim();
    let kind = InjectionKind::Single;
    let serial = m3d_par::with_threads(1, || {
        generate_samples(&env, &fsim, m3d_dft::ObsMode::Bypass, kind, 8, 17)
    });
    let parallel = m3d_par::with_threads(4, || {
        generate_samples(&env, &fsim, m3d_dft::ObsMode::Bypass, kind, 8, 17)
    });
    assert_eq!(serial.len(), parallel.len());
    let mut saw_subgraph = false;
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.log, b.log);
        let (Some(sa), Some(sb)) = (&a.subgraph, &b.subgraph) else {
            assert_eq!(a.subgraph.is_some(), b.subgraph.is_some());
            continue;
        };
        saw_subgraph = true;
        assert_eq!(sa.data.features.cols(), m3d_hetgraph::FEATURE_DIM);
        assert_eq!(sa.sites, sb.sites);
        for r in 0..sa.data.features.rows() {
            for (x, y) in sa.data.features.row(r).iter().zip(sb.data.features.row(r)) {
                assert_eq!(x.to_bits(), y.to_bits(), "features must be bitwise equal");
            }
        }
    }
    assert!(saw_subgraph, "at least one sample back-traces");
}

#[test]
fn sample_generation_is_thread_count_independent() {
    let env = TestEnv::build(Benchmark::Aes, DesignConfig::Syn1, Some(300));
    let fsim = env.fault_sim();
    for kind in [
        InjectionKind::Single,
        InjectionKind::MivOnly,
        InjectionKind::MultiSameTier,
    ] {
        let serial = m3d_par::with_threads(1, || {
            generate_samples(&env, &fsim, m3d_dft::ObsMode::Compacted, kind, 10, 42)
        });
        let parallel = m3d_par::with_threads(8, || {
            generate_samples(&env, &fsim, m3d_dft::ObsMode::Compacted, kind, 10, 42)
        });
        assert_eq!(serial.len(), parallel.len(), "{kind:?}: batch size differs");
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.injected, b.injected, "{kind:?}: injected faults differ");
            assert_eq!(a.log, b.log, "{kind:?}: failure logs differ");
            assert_eq!(a.faulty_tier, b.faulty_tier, "{kind:?}: tier label differs");
            assert_eq!(a.miv_truth, b.miv_truth, "{kind:?}: MIV truth differs");
            assert_eq!(
                a.subgraph.is_some(),
                b.subgraph.is_some(),
                "{kind:?}: sub-graph presence differs"
            );
        }
    }
}
