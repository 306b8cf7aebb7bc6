//! `adhoc`: in-process engine calls at the paper's Figure 11 starting point
//! (synthetic-normal, n = 100 000, 5 attributes × 50 values, 10 % memory,
//! 32 KiB in-memory pages). One closed-loop client; each distinct random
//! query is answered in turn by six configurations, so they are compared on
//! identical inputs and cross-checked: `trs`, `srs`, `brs`, `trs-bf`, `trs`
//! on 2 threads, and `trs` over 2 round-robin shards with the default
//! pruner exchange. The server, views and layout preparation stay out of
//! the timed path.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky_algos::prep::{load_dataset, prepare_table, Layout, PreparedTable};
use rsky_algos::shard::ShardedTables;
use rsky_algos::{engine_by_name, EngineCtx, ReverseSkylineAlgo};
use rsky_core::dataset::Dataset;
use rsky_core::obs::{self, MetricsRegistry};
use rsky_core::query::Query;
use rsky_core::stats::RunStats;
use rsky_storage::{Disk, MemoryBudget, RecordFile, ShardPolicy, ShardSpec};

use crate::checker::{self, Rows};
use crate::layers::CONFIGS;
use crate::{median, ms, span, EndToEnd, Outcome, Setups, ATTRS};

const N: usize = 100_000;
const MEM_PCT: f64 = 10.0;
const PAGE: usize = 32 * 1024;
const TILES: u32 = 4;
/// The tables are set up afresh after every this many rounds, so that each
/// set of tables serves the same number of queries whatever the engines'
/// speed: the engines leave a scratch file on the tables' disk per query,
/// and `rss_peak_mb` then covers the same work in every run.
const ROUNDS_PER_SETUP: usize = 8;
/// `brs` answers every this many rounds (the first included). It costs
/// as much as the other five configurations together, and the queries'
/// costs differ by 20–40 % (coefficient of variation), so running it on
/// every round left about 40 distinct queries in a run and the medians
/// moved with the seed's draw of queries; the other five now see about
/// twice as many.
const BRS_EVERY: usize = 4;
/// Position of `brs` in `CONFIGS`.
const BRS: usize = 2;
/// Least number of set-ups per run (`setup_s` is their median); a run too
/// short to reach it sets up the rest after its loop.
const SETUP_REPEATS: usize = 6;
/// Counters are averaged over each configuration's first this many
/// queries, so they repeat exactly for a given seed whatever the run
/// length. A run makes at least `COUNT_QUERIES * BRS_EVERY` rounds.
const COUNT_QUERIES: usize = 5;
/// Span names of the six configurations, in `CONFIGS` order.
const SPANS: [&str; 6] = [
    "engine.trs",
    "engine.srs",
    "engine.brs",
    "engine.trs_bf",
    "engine.trs_threads2",
    "engine.trs_shards2",
];

/// The prepared tables every configuration runs on.
struct Tables {
    disk: Disk,
    budget: MemoryBudget,
    raw: RecordFile,
    sorted: PreparedTable,
    shards: ShardedTables,
}

/// One set-up's cost split by layer.
#[derive(Default)]
struct SetupCost {
    load: Duration,
    multisort: Duration,
    shards: Duration,
    runs: usize,
    merge_passes: usize,
}

fn err(e: rsky_core::error::Error) -> String {
    e.to_string()
}

/// Load + multi-attribute sort + shard tables (their layouts are prepared
/// lazily, so one warm sharded query is part of the set-up).
fn setup(ds: &Dataset, warm: &Query) -> Result<(Tables, SetupCost), String> {
    let _span = obs::handle().span("bench", "setup");
    let mut cost = SetupCost::default();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), MEM_PCT, PAGE).map_err(err)?;
    let mut disk = Disk::new_mem(PAGE);
    let t = Instant::now();
    let raw = span("storage.load", || load_dataset(&mut disk, ds)).map_err(err)?;
    cost.load = t.elapsed();
    let t = Instant::now();
    let sorted = span("order.multisort", || {
        prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget)
    })
    .map_err(err)?;
    cost.multisort = t.elapsed();
    (cost.runs, cost.merge_passes) = sorted.sort_outcome.unwrap_or((0, 0));
    let t = Instant::now();
    let shards = span("shard.build", || {
        let spec = ShardSpec::new(2, ShardPolicy::RoundRobin)?;
        let mut shards = ShardedTables::new(ds, spec, MEM_PCT, PAGE, TILES)?;
        shards.run_query("trs", 1, warm)?;
        Ok(shards)
    })
    .map_err(err)?;
    cost.shards = t.elapsed();
    Ok((
        Tables {
            disk,
            budget,
            raw,
            sorted,
            shards,
        },
        cost,
    ))
}

/// One configuration's answer to one query.
struct Answer {
    wall: Duration,
    ids: Vec<u32>,
    stats: RunStats,
}

/// Per-configuration tallies across the run.
#[derive(Default)]
struct ConfigTally {
    wall_ms: Vec<f64>,
    phase1_ms: Vec<f64>,
    phase2_ms: Vec<f64>,
    /// Counters summed over the first `COUNT_QUERIES` queries.
    counted: RunStats,
    /// Queries this configuration answered.
    answered: usize,
}

/// Sharded-run extras, summed over the first `COUNT_QUERIES` queries.
#[derive(Default)]
struct ShardTally {
    candidates: usize,
    post_candidates: usize,
    pruners: usize,
}

/// Runs the workload. `registry` is the traced run's registry, which the
/// program's own `shard.exchange` spans feed.
pub fn run(
    seed: u64,
    budget: Duration,
    registry: Option<&MetricsRegistry>,
) -> Result<Outcome, String> {
    let ds = crate::dataset(N)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let next_query =
        |rng: &mut StdRng| rsky_data::random_queries(&ds.schema, 1, rng).map(|mut v| v.remove(0));
    let warm = Query::new(&ds.schema, crate::warm_values()).map_err(err)?;

    let mut setups = Setups::new(SETUP_REPEATS);
    let (first, first_cost) = setups.time(|| setup(&ds, &warm))?;
    let mut tables = Some(first);
    let mut costs = vec![first_cost];

    let engines: Vec<(Box<dyn ReverseSkylineAlgo>, bool)> = vec![
        (engine_by_name("trs", &ds.schema, 1).map_err(err)?, true),
        (engine_by_name("srs", &ds.schema, 1).map_err(err)?, true),
        (engine_by_name("brs", &ds.schema, 1).map_err(err)?, false),
        (engine_by_name("trs-bf", &ds.schema, 1).map_err(err)?, true),
        (engine_by_name("trs", &ds.schema, 2).map_err(err)?, true),
    ];

    let rows = Rows {
        m: ATTRS,
        flat: ds.rows.as_flat(),
    };
    let mut tallies: Vec<ConfigTally> =
        (0..CONFIGS.len()).map(|_| ConfigTally::default()).collect();
    let mut shard_tally = ShardTally::default();
    let mut exchange_ms = Vec::new();
    let mut timed = Duration::ZERO;
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut rounds = 0usize;
    while timed < budget || rounds < COUNT_QUERIES * BRS_EVERY {
        let q = next_query(&mut rng).map_err(err)?;
        let tb = tables.as_mut().expect("a set-up serves every round");
        let round = obs::handle().span("bench", "round");
        // `None`: not run this round; `Some(None)`: the call failed.
        let mut answers: Vec<Option<Option<Answer>>> = Vec::with_capacity(CONFIGS.len());
        for (k, (engine, sorted)) in engines.iter().enumerate() {
            if k == BRS && !rounds.is_multiple_of(BRS_EVERY) {
                answers.push(None);
                continue;
            }
            let table = if *sorted { &tb.sorted.file } else { &tb.raw };
            let mut ctx = EngineCtx {
                disk: &mut tb.disk,
                schema: &ds.schema,
                dissim: &ds.dissim,
                budget: tb.budget,
            };
            let t = Instant::now();
            let r = span(SPANS[k], || engine.run(&mut ctx, table, &q));
            let wall = t.elapsed();
            answers.push(Some(r.ok().map(|r| Answer {
                wall,
                ids: r.ids,
                stats: r.stats,
            })));
        }
        // The exchange round's wall time is not in `ShardedRun`; a traced
        // run reads it from the registry around the call.
        let exchange = |r: &MetricsRegistry| r.histogram("shard.exchange.wall_us");
        let before = registry.and_then(exchange);
        let t = Instant::now();
        let sharded = span(SPANS[5], || tb.shards.run_query("trs", 1, &q));
        let wall = t.elapsed();
        if let Some(now) = registry.and_then(exchange) {
            let delta = match &before {
                Some(b) => now.delta_since(b),
                None => now,
            };
            if delta.count > 0 {
                exchange_ms.push(delta.sum as f64 / 1e3);
            }
        }
        answers.push(Some(sharded.ok().map(|r| {
            if rounds < COUNT_QUERIES {
                shard_tally.candidates += r.candidates;
                shard_tally.post_candidates += r.post_candidates;
                shard_tally.pruners += r.pruners;
            }
            Answer {
                wall,
                ids: r.ids,
                stats: r.stats,
            }
        })));
        drop(round);

        for (tally, answer) in tallies.iter_mut().zip(&answers) {
            let Some(answer) = answer else { continue };
            attempted += 1;
            let Some(a) = answer else {
                failed += 1;
                continue;
            };
            timed += a.wall;
            tally.wall_ms.push(ms(a.wall));
            tally.phase1_ms.push(ms(a.stats.phase1_time));
            tally.phase2_ms.push(ms(a.stats.phase2_time));
            if tally.answered < COUNT_QUERIES {
                tally.counted.merge(&a.stats);
            }
            tally.answered += 1;
        }
        rounds += 1;

        // Outside the timed section: every configuration must return the
        // checker's RS(Q).
        let expected = span("check", || {
            checker::reverse_skyline(&ds.dissim, &rows, &q.values)
        });
        for (k, a) in answers.iter().enumerate() {
            if let Some(Some(a)) = a {
                if a.ids != expected {
                    correct = false;
                    eprintln!(
                        "mismatch: {} returned {} ids, checker {} (query {:?})",
                        CONFIGS[k],
                        a.ids.len(),
                        expected.len(),
                        q.values
                    );
                }
            }
        }
        // The next set-up replaces the tables, so that two sets of tables
        // never coexist and inflate `rss_peak_mb`.
        if rounds.is_multiple_of(ROUNDS_PER_SETUP) && timed < budget {
            drop(tables.take());
            let (next, cost) = setups.time(|| setup(&ds, &warm))?;
            tables = Some(next);
            costs.push(cost);
        }
    }
    drop(tables);
    while setups.done() < SETUP_REPEATS {
        costs.push(setups.time(|| setup(&ds, &warm))?.1);
    }

    let mut layers = BTreeMap::new();
    let mut detail = Vec::new();
    let per_query = |v: u64| v as f64 / COUNT_QUERIES as f64;
    let mut medians = Vec::with_capacity(CONFIGS.len());
    for (cfg, t) in CONFIGS.iter().zip(&tallies) {
        let c = &t.counted;
        let wall = median(&t.wall_ms);
        medians.push(wall);
        detail.push((format!("{cfg}_ms"), wall, "ms"));
        for (field, value) in [
            ("total_ms", wall),
            ("phase1_ms", median(&t.phase1_ms)),
            ("phase2_ms", median(&t.phase2_ms)),
            ("dist_checks", per_query(c.dist_checks)),
            ("obj_comparisons", per_query(c.obj_comparisons)),
            ("phase1_survivors", per_query(c.phase1_survivors as u64)),
            ("result_size", per_query(c.result_size as u64)),
            ("seq_reads", per_query(c.io.seq_reads)),
            ("rand_reads", per_query(c.io.rand_reads)),
        ] {
            layers.insert(format!("{cfg}.{field}"), value);
        }
    }
    layers.insert(
        "trs.tree_nodes_visited".into(),
        per_query(tallies[0].counted.tree_nodes_visited),
    );
    layers.insert(
        "trs_bf.tree_nodes_visited".into(),
        per_query(tallies[3].counted.tree_nodes_visited),
    );
    layers.insert(
        "trs_shards2.candidates".into(),
        per_query(shard_tally.candidates as u64),
    );
    layers.insert(
        "trs_shards2.post_candidates".into(),
        per_query(shard_tally.post_candidates as u64),
    );
    layers.insert(
        "trs_shards2.pruners".into(),
        per_query(shard_tally.pruners as u64),
    );
    layers.insert("trs_shards2.exchange_ms".into(), median(&exchange_ms));
    // Set-up layers: medians over the run's set-ups.
    let of = |f: fn(&SetupCost) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());
    layers.insert("storage.load_ms".into(), of(|c| ms(c.load)));
    layers.insert("order.multisort_ms".into(), of(|c| ms(c.multisort)));
    layers.insert("order.runs".into(), of(|c| c.runs as f64));
    layers.insert("order.merge_passes".into(), of(|c| c.merge_passes as f64));
    layers.insert("shard.build_ms".into(), of(|c| ms(c.shards)));
    detail.push(("rounds".into(), rounds as f64, ""));

    Ok(Outcome {
        correct,
        attempted,
        failed,
        end_to_end: EndToEnd {
            setup_s: setups.median(),
            p50_ms: geometric_mean(&medians),
            ops_per_s: medians.iter().map(|m| 1e3 / m).sum::<f64>() / medians.len() as f64,
        },
        layers,
        detail,
    })
}

/// Geometric mean of positive `xs`.
fn geometric_mean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
