//! The per-layer metric set reported by a traced run. Every traced run
//! reports every name; a layer the workload does not pass through reads 0
//! (no work done there). The README maps each metric to the end-to-end
//! metric and workload it should move.

use std::collections::BTreeMap;

/// The six engine configurations of the `adhoc` workload, as metric
/// prefixes.
pub const CONFIGS: [&str; 6] = ["trs", "srs", "brs", "trs_bf", "trs_threads2", "trs_shards2"];

/// Per-configuration fields (from `RsRun.stats` / `ShardedRun.stats`).
pub const CONFIG_FIELDS: [(&str, &str); 9] = [
    ("total_ms", "ms"),
    ("phase1_ms", "ms"),
    ("phase2_ms", "ms"),
    ("dist_checks", "count"),
    ("obj_comparisons", "count"),
    ("phase1_survivors", "count"),
    ("result_size", "count"),
    ("seq_reads", "pages"),
    ("rand_reads", "pages"),
];

/// Every other per-layer metric, with its unit.
const OTHER: [(&str, &str); 27] = [
    ("trs.tree_nodes_visited", "count"),
    ("trs_bf.tree_nodes_visited", "count"),
    ("trs_shards2.candidates", "count"),
    ("trs_shards2.post_candidates", "count"),
    ("trs_shards2.pruners", "count"),
    ("trs_shards2.exchange_ms", "ms"),
    ("storage.load_ms", "ms"),
    ("order.multisort_ms", "ms"),
    ("order.runs", "count"),
    ("order.merge_passes", "count"),
    ("shard.build_ms", "ms"),
    ("server.query_p50_ms", "ms"),
    ("server.query_p90_ms", "ms"),
    ("server.mutation_p50_ms", "ms"),
    ("server.front_p50_us", "us"),
    ("server.rebuild_p50_ms", "ms"),
    ("server.engine_p50_ms", "ms"),
    ("server.cache_hit", "count"),
    ("server.cache_miss", "count"),
    ("server.queue_wait_p50_us", "us"),
    ("view.build_ms", "ms"),
    ("view.ack_p50_ms", "ms"),
    ("view.delta_add", "count"),
    ("view.delta_remove", "count"),
    ("view.fallback", "count"),
    ("view.frames", "count"),
    ("delta.queued_p50_ms", "ms"),
];

/// The full per-layer list, filled from `measured` (0 where absent).
pub fn all(measured: &BTreeMap<String, f64>) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    for cfg in CONFIGS {
        for (field, unit) in CONFIG_FIELDS {
            let name = format!("{cfg}.{field}");
            let value = measured.get(&name).copied().unwrap_or(0.0);
            out.push((name, value, unit));
        }
    }
    for (name, unit) in OTHER {
        out.push((
            name.to_string(),
            measured.get(name).copied().unwrap_or(0.0),
            unit,
        ));
    }
    debug_assert!(
        measured.keys().all(|k| out.iter().any(|(n, _, _)| n == k)),
        "a measured per-layer metric is missing from the declared list"
    );
    out
}
