//! Table IX / Fig. 9: runtime analysis of the proposed framework —
//! training-phase feature construction and GNN training, and deployment
//! `T_ATPG` (diagnosis), `T_GNN` (inference), `T_update` (pruning and
//! reordering) over the Syn-2 test set.
//!
//! Run: `cargo run --release -p m3d-bench --bin table9_runtime`

use std::time::Instant;

use m3d_bench::{print_table, test_samples, train_transferred, Scale};
use m3d_dft::ObsMode;
use m3d_fault_localization::{diagnose_all, FaultLocalizer};
use m3d_hetgraph::HetGraph;
use m3d_netlist::generate::Benchmark;
use m3d_part::DesignConfig;

fn main() {
    let scale = Scale::from_env();
    let mode = ObsMode::Bypass;
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        // Training phase: feature construction, cone walk included (a fresh
        // design has no cone index yet), and GNN training.
        let design = DesignConfig::Syn1.build_sized(bench, scale.target);
        let t0 = Instant::now();
        let _het = HetGraph::new(&design);
        let feature_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let (_corpus, fw): (_, FaultLocalizer) = train_transferred(bench, mode, &scale);
        let train_s = t1.elapsed().as_secs_f64();

        // Deployment on the Syn-2 test set. Each stage fans its
        // per-sample work across the `m3d_par` pool.
        let (env, samples) = test_samples(bench, DesignConfig::Syn2, mode, &scale);
        let fsim = env.fault_sim();

        let t2 = Instant::now();
        let reports = diagnose_all(&env, &fsim, mode, &samples);
        let t_atpg = t2.elapsed().as_secs_f64();

        let t3 = Instant::now();
        let preds = m3d_par::par_map(&samples, |s| {
            s.subgraph
                .as_ref()
                .map(|sg| (fw.tier.predict(sg), fw.miv.predict_faulty_mivs(sg)))
        });
        let t_gnn = t3.elapsed().as_secs_f64();

        let t4 = Instant::now();
        let indices: Vec<usize> = (0..samples.len()).collect();
        let _ = m3d_par::par_map(&indices, |&i| {
            fw.enhance(&env.design, &reports[i], &samples[i])
        });
        let t_update = t4.elapsed().as_secs_f64();
        let _ = preds;

        rows.push(vec![
            bench.name().to_string(),
            format!("{feature_s:.4}"),
            format!("{train_s:.2}"),
            format!("{t_atpg:.3}"),
            format!("{t_gnn:.4}"),
            format!("{t_update:.4}"),
        ]);
        eprintln!("[{}] done", bench.name());
    }
    print_table(
        "Table IX: runtime (seconds) — training and deployment (Syn-2 test set)",
        &[
            "Design",
            "Feature constr.",
            "GNN training",
            "T_ATPG",
            "T_GNN",
            "T_update",
        ],
        &rows,
    );
    println!(
        "\nFig. 9 decomposition: deployment = max(T_ATPG, T_GNN) + T_update; \
         GNN inference runs alongside the ATPG diagnosis."
    );
}
