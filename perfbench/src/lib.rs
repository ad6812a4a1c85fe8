//! The repository benchmark: the paper's unit of work (one tester failure
//! log in, one GNN-enhanced ranked report out) on three workloads, with
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one. See `README.md` in this directory for usage.

pub mod bench;
pub mod pipeline;
pub mod served;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;

use m3d_obs::Json;

/// The metric names `BENCHMARK.json` lists under `key` (`end_to_end` or
/// `per_layer`), in file order.
///
/// # Errors
///
/// Malformed JSON or a missing list.
pub fn listed_metrics(benchmark_json: &str, key: &str) -> Result<Vec<String>, String> {
    let doc = m3d_obs::json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry has no name"))
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics` (each metric with its value and unit).
pub fn result_line(out: &bench::Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}
