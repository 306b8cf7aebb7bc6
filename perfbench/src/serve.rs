//! `serve-churn` and `subscribe`: an in-process `rsky-server` (one pool
//! worker, otherwise default settings) over 20 000 rows of the `adhoc`
//! shape, driven over loopback by one process with at most two
//! connections. One worker makes it deterministic which worker pays for a
//! rebuild.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky_core::dataset::Dataset;
use rsky_core::obs::server_names as names;
use rsky_core::obs::{self, view_names, HistogramSummary, MetricsRegistry};
use rsky_server::json::{self, JsonValue};
use rsky_server::{Client, Server, ServerConfig, ServerHandle};

use crate::checker::{self, Rows};
use crate::{median, ms, quantile, span, EndToEnd, Outcome, Setups};

const N: usize = 20_000;
/// Set-ups per run (see `Setups`). A `subscribe` set-up builds every view,
/// so it makes fewer.
const SETUP_REPEATS: usize = 25;
const SUBSCRIBE_SETUP_REPEATS: usize = 4;
/// Standing views held by the `subscribe` workload.
const VIEWS: usize = 16;
/// `subscribe` runs the checker on every view after every this many
/// inserts. After each expire the dataset is the original again, so every
/// view is compared with its checked set-up answer.
const CHECK_EVERY: usize = 8;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The benchmark's own copy of the served rows, mutated alongside the
/// server so the checker sees the same dataset.
struct Mirror {
    m: usize,
    flat: Vec<u32>,
    pos: HashMap<u32, usize>,
}

impl Mirror {
    fn new(ds: &Dataset) -> Self {
        let m = ds.schema.num_attrs();
        let flat = ds.rows.as_flat().to_vec();
        let pos = (0..ds.rows.len()).map(|k| (ds.rows.id(k), k)).collect();
        Self { m, flat, pos }
    }

    fn insert(&mut self, id: u32, values: &[u32]) {
        self.pos.insert(id, self.flat.len() / (self.m + 1));
        self.flat.push(id);
        self.flat.extend_from_slice(values);
    }

    fn expire(&mut self, id: u32) {
        let w = self.m + 1;
        let k = self.pos.remove(&id).expect("expire of a mirrored id");
        let last = self.flat.len() / w - 1;
        if k != last {
            let moved = self.flat[last * w];
            self.flat.copy_within(last * w..(last + 1) * w, k * w);
            self.pos.insert(moved, k);
        }
        self.flat.truncate(last * w);
    }

    fn rows(&self) -> Rows<'_> {
        Rows {
            m: self.m,
            flat: &self.flat,
        }
    }
}

fn start(ds: &Dataset) -> Result<ServerHandle, String> {
    Server::start(
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        ds.clone(),
    )
    .map_err(err)
}

fn connect(h: &ServerHandle) -> Result<Client, String> {
    let c = Client::connect(h.local_addr()).map_err(err)?;
    c.set_timeout(IO_TIMEOUT).map_err(err)?;
    Ok(c)
}

fn list(values: &[u32]) -> String {
    values
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Sends one request; returns the parsed reply and the round trip.
fn call(c: &mut Client, line: &str) -> Result<(JsonValue, Duration), String> {
    let t = Instant::now();
    let reply = c.send(line).map_err(err)?;
    let rtt = t.elapsed();
    Ok((json::parse(&reply).map_err(err)?, rtt))
}

fn ok(v: &JsonValue) -> bool {
    v.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

fn u64_of(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key).and_then(JsonValue::as_u64)
}

fn ids_of(v: &JsonValue, key: &str) -> Option<Vec<u32>> {
    v.get(key).and_then(JsonValue::as_u32_list)
}

fn random_values(ds: &Dataset, rng: &mut StdRng) -> Result<Vec<u32>, String> {
    let q = rsky_data::random_queries(&ds.schema, 1, rng).map_err(err)?;
    Ok(q[0].values.clone())
}

/// A fresh row drawn from the dataset's own distribution.
fn random_row(ds: &Dataset, rng: &mut StdRng) -> Vec<u32> {
    rsky_data::synthetic::normal_rows(&ds.schema, 1, rng)
        .values(0)
        .to_vec()
}

/// Mutation lines of one round: insert a fresh id, later expire it.
fn mutation_line(insert: bool, id: u32, values: &[u32]) -> String {
    if insert {
        format!(
            "{{\"op\":\"insert\",\"id\":{id},\"values\":[{}]}}",
            list(values)
        )
    } else {
        format!("{{\"op\":\"expire\",\"id\":{id}}}")
    }
}

/// Applies an acknowledged mutation to the mirror and checks that the
/// generation advanced by exactly one.
fn apply_mutation(
    reply: &JsonValue,
    generation: &mut u64,
    mirror: &mut Mirror,
    insert: bool,
    id: u32,
    values: &[u32],
) -> bool {
    let advanced = u64_of(reply, "generation") == Some(*generation + 1);
    if !advanced {
        eprintln!("generation did not advance by one: {reply:?}");
    }
    *generation += 1;
    if insert {
        mirror.insert(id, values);
    } else {
        mirror.expire(id);
    }
    advanced
}

/// Where a query sits in its half-round.
#[derive(Clone, Copy, PartialEq)]
enum Slot {
    /// First query after a mutation: pays the worker's rebuild.
    Rebuild,
    /// A distinct query at an already-prepared generation.
    Engine,
    /// The half-round's first query again: a result-cache hit.
    Repeat,
}

/// Queries of one half-round, after its mutation: a fresh query (it pays
/// the rebuild), two fresh ones, the first one again, one fresh one.
const HALF: [Slot; 5] = [
    Slot::Rebuild,
    Slot::Engine,
    Slot::Engine,
    Slot::Repeat,
    Slot::Engine,
];

struct QuerySample {
    slot: Slot,
    rtt: Duration,
    elapsed_us: u64,
}

/// A set-up's server while it serves the loop, with its registry readings
/// at adoption so that counters cover only the loop.
struct LiveServer {
    server: ServerHandle,
    client: Client,
    generation: u64,
    registry: Arc<MetricsRegistry>,
    hits0: u64,
    misses0: u64,
    wait0: Option<HistogramSummary>,
}

/// Cache and queue figures folded over every server a run used.
#[derive(Default)]
struct ChurnTotals {
    hits: u64,
    misses: u64,
    wait_p50_us: Vec<f64>,
}

impl LiveServer {
    /// Takes over a fresh set-up; false when its first answer is not the
    /// checker's `warm_ids`.
    fn adopt(
        (server, client, first): (ServerHandle, Client, JsonValue),
        warm_ids: &[u32],
    ) -> Result<(Self, bool), String> {
        let generation = u64_of(&first, "generation").ok_or("first answer has no generation")?;
        let good = ids_of(&first, "ids").as_deref() == Some(warm_ids);
        if !good {
            eprintln!("first answer differs from the checker: {first:?}");
        }
        let registry = server.registry();
        let live = Self {
            hits0: registry.counter(names::CTR_CACHE_HIT),
            misses0: registry.counter(names::CTR_CACHE_MISS),
            wait0: registry.histogram(names::HIST_QUEUE_WAIT),
            server,
            client,
            generation,
            registry,
        };
        Ok((live, good))
    }

    /// Folds this server's loop figures into `totals` and shuts it down.
    fn retire(self, totals: &mut ChurnTotals) {
        totals.hits += self.registry.counter(names::CTR_CACHE_HIT) - self.hits0;
        totals.misses += self.registry.counter(names::CTR_CACHE_MISS) - self.misses0;
        if let Some(now) = self.registry.histogram(names::HIST_QUEUE_WAIT) {
            let waits = match &self.wait0 {
                Some(before) => now.delta_since(before),
                None => now,
            };
            if waits.count > 0 {
                totals.wait_p50_us.push(waits.quantile(0.5) as f64);
            }
        }
        drop(self.client);
        self.server.shutdown();
        self.server.join();
    }
}

/// `serve-churn`: one connection, closed loop. A round is two half-rounds,
/// each one mutation (insert of a fresh id, then expire of that id) and the
/// five queries of [`HALF`], so queries are 10 of every 12 operations and
/// exactly 1 in 5 is a cache hit by construction. A due set-up replaces the
/// serving server between rounds, when the data is the original again.
pub fn churn(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let ds = crate::dataset(N)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let warm = crate::warm_values();
    let query = |values: &[u32]| {
        format!(
            "{{\"op\":\"query\",\"engine\":\"trs\",\"values\":[{}]}}",
            list(values)
        )
    };
    let mut mirror = Mirror::new(&ds);
    let warm_ids = checker::reverse_skyline(&ds.dissim, &mirror.rows(), &warm);

    // Server start + first answer.
    let setup = || {
        let _span = obs::handle().span("bench", "setup");
        let server = span("server.start", || start(&ds))?;
        let mut client = connect(&server)?;
        let (first, _) = span("client.query", || call(&mut client, &query(&warm)))?;
        Ok((server, client, first))
    };
    let mut setups = Setups::new(SETUP_REPEATS);
    let mut totals = ChurnTotals::default();
    let (first, mut correct) = LiveServer::adopt(setups.time(setup)?, &warm_ids)?;
    let mut live = Some(first);

    let mut samples: Vec<QuerySample> = Vec::new();
    let mut mutation_ms = Vec::new();
    // Timed seconds of each half-round (a mutation and its five queries).
    let mut half_s = Vec::new();
    let mut timed = Duration::ZERO;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut next_id = N as u32;
    let mut expected: HashMap<Vec<u32>, Vec<u32>> = HashMap::new();
    while timed < budget || attempted == 0 {
        let lv = live.as_mut().expect("a set-up serves every round");
        let id = next_id;
        next_id += 1;
        let row = random_row(&ds, &mut rng);
        for insert in [true, false] {
            let half_start = timed;
            let line = mutation_line(insert, id, &row);
            let name = if insert {
                "client.insert"
            } else {
                "client.expire"
            };
            let (reply, rtt) = span(name, || call(&mut lv.client, &line))?;
            attempted += 1;
            timed += rtt;
            mutation_ms.push(ms(rtt));
            if ok(&reply) {
                correct &=
                    apply_mutation(&reply, &mut lv.generation, &mut mirror, insert, id, &row);
                expected.clear();
            } else {
                failed += 1;
                eprintln!("mutation failed: {reply:?}");
            }
            let repeated = random_values(&ds, &mut rng)?;
            for slot in HALF {
                let values = match slot {
                    Slot::Rebuild | Slot::Repeat => repeated.clone(),
                    Slot::Engine => random_values(&ds, &mut rng)?,
                };
                let (reply, rtt) = span("client.query", || call(&mut lv.client, &query(&values)))?;
                attempted += 1;
                timed += rtt;
                if !ok(&reply) {
                    failed += 1;
                    eprintln!("query failed: {reply:?}");
                    continue;
                }
                samples.push(QuerySample {
                    slot,
                    rtt,
                    elapsed_us: u64_of(&reply, "elapsed_us").unwrap_or(0),
                });
                // Outside the timed section: the reply must be at the
                // current generation and equal the checker's RS(Q).
                let want = span("check", || {
                    expected
                        .entry(values.clone())
                        .or_insert_with(|| {
                            checker::reverse_skyline(&ds.dissim, &mirror.rows(), &values)
                        })
                        .clone()
                });
                let at_gen = u64_of(&reply, "generation") == Some(lv.generation);
                let same = ids_of(&reply, "ids").as_ref() == Some(&want);
                if !(at_gen && same) {
                    correct = false;
                    eprintln!(
                        "query {values:?} at generation {}: wrong answer {reply:?}",
                        lv.generation
                    );
                }
            }
            half_s.push((timed - half_start).as_secs_f64());
        }
        if setups.due(timed, budget) {
            span("server.shutdown", || {
                live.take().expect("serving").retire(&mut totals)
            });
            let (next, good) = LiveServer::adopt(setups.time(setup)?, &warm_ids)?;
            correct &= good;
            live = Some(next);
        }
    }
    span("server.shutdown", || {
        live.take().expect("serving").retire(&mut totals)
    });
    while setups.due(timed, budget) {
        let (spare, good) = LiveServer::adopt(setups.time(setup)?, &warm_ids)?;
        correct &= good;
        span("server.shutdown", || spare.retire(&mut totals));
    }

    let rtt_ms: Vec<f64> = samples.iter().map(|s| ms(s.rtt)).collect();
    let front_us: Vec<f64> = samples
        .iter()
        .map(|s| s.rtt.as_micros() as f64 - s.elapsed_us as f64)
        .collect();
    let elapsed_ms = |slot: Slot| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.slot == slot)
            .map(|s| s.elapsed_us as f64 / 1e3)
            .collect()
    };
    let engine_ms = median(&elapsed_ms(Slot::Engine));
    let rebuild_ms = median(&elapsed_ms(Slot::Rebuild)) - engine_ms;
    let (hits, misses) = (totals.hits, totals.misses);

    let query_p50 = median(&rtt_ms);
    let query_p90 = quantile(&rtt_ms, 0.9);
    let mutation_p50 = median(&mutation_ms);
    let layers = [
        ("server.query_p50_ms", query_p50),
        ("server.query_p90_ms", query_p90),
        ("server.mutation_p50_ms", mutation_p50),
        ("server.front_p50_us", median(&front_us)),
        ("server.rebuild_p50_ms", rebuild_ms),
        ("server.engine_p50_ms", engine_ms),
        ("server.cache_hit", hits as f64),
        ("server.cache_miss", misses as f64),
        ("server.queue_wait_p50_us", median(&totals.wait_p50_us)),
    ];
    let detail = vec![
        ("query_p50_ms".into(), query_p50, "ms"),
        ("query_p90_ms".into(), query_p90, "ms"),
        ("mutation_p50_ms".into(), mutation_p50, "ms"),
        (
            "cache_hit_share".into(),
            hits as f64 / (hits + misses).max(1) as f64,
            "",
        ),
        ("queries".into(), rtt_ms.len() as f64, ""),
    ];
    Ok(Outcome {
        correct,
        attempted,
        failed,
        end_to_end: EndToEnd {
            setup_s: setups.median(),
            p50_ms: query_p50,
            // The closed loop's rate over its median half-round, not the
            // run's mean: a few half-rounds caught in a slow spell of the
            // host moved the mean rate by more than the bound.
            ops_per_s: (1 + HALF.len()) as f64 / median(&half_s),
        },
        layers: layers
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        detail,
    })
}

/// One standing view as the client rebuilds it from its delta frames.
struct View {
    values: Vec<u32>,
    members: BTreeSet<u32>,
    epoch: u64,
}

/// Subscribes `VIEWS` views on `c`; returns them and each ack's latency.
fn subscribe_all(
    c: &mut Client,
    queries: &[Vec<u32>],
) -> Result<(HashMap<u64, View>, Vec<f64>), String> {
    let mut views = HashMap::new();
    let mut build_ms = Vec::new();
    for values in queries {
        let line = format!(
            "{{\"op\":\"subscribe\",\"engine\":\"trs\",\"values\":[{}]}}",
            list(values)
        );
        let (ack, rtt) = span("client.subscribe", || call(c, &line))?;
        if !ok(&ack) {
            return Err(format!("subscribe failed: {ack:?}"));
        }
        build_ms.push(ms(rtt));
        let sub = u64_of(&ack, "sub").ok_or("subscribe ack without sub")?;
        let view = View {
            values: values.clone(),
            members: ids_of(&ack, "ids")
                .ok_or("subscribe ack without ids")?
                .into_iter()
                .collect(),
            epoch: u64_of(&ack, "epoch").ok_or("subscribe ack without epoch")?,
        };
        views.insert(sub, view);
    }
    Ok((views, build_ms))
}

/// Applies one delta frame; false on an epoch gap, a wrong generation or an
/// unknown subscription.
fn apply_frame(views: &mut HashMap<u64, View>, frame: &JsonValue, generation: u64) -> bool {
    let Some(view) = u64_of(frame, "sub").and_then(|s| views.get_mut(&s)) else {
        eprintln!("frame for an unknown subscription: {frame:?}");
        return false;
    };
    let epoch = u64_of(frame, "epoch");
    let in_order = epoch == Some(view.epoch + 1) && u64_of(frame, "generation") == Some(generation);
    view.epoch += 1;
    if frame.get("resync").and_then(JsonValue::as_bool) == Some(true) {
        view.members = ids_of(frame, "ids")
            .unwrap_or_default()
            .into_iter()
            .collect();
    } else {
        for id in ids_of(frame, "add").unwrap_or_default() {
            view.members.insert(id);
        }
        for id in ids_of(frame, "remove").unwrap_or_default() {
            view.members.remove(&id);
        }
    }
    if !in_order {
        eprintln!("out-of-order frame (want epoch {}): {frame:?}", view.epoch);
    }
    in_order
}

/// The checker's RS(Q) on the mirror for every view query.
fn expected_sets(
    ds: &Dataset,
    mirror: &Mirror,
    queries: &[Vec<u32>],
) -> HashMap<Vec<u32>, Vec<u32>> {
    queries
        .iter()
        .map(|q| {
            (
                q.clone(),
                checker::reverse_skyline(&ds.dissim, &mirror.rows(), q),
            )
        })
        .collect()
}

/// Every view's member set must equal the expected set of its query.
fn views_match(views: &HashMap<u64, View>, expected: &HashMap<Vec<u32>, Vec<u32>>) -> bool {
    let mut good = true;
    for (sub, v) in views {
        let want = &expected[&v.values];
        if !v.members.iter().eq(want.iter()) {
            eprintln!(
                "view {sub} holds {} ids, checker {}",
                v.members.len(),
                want.len()
            );
            good = false;
        }
    }
    good
}

/// The `rsky-view` counters the `subscribe` workload reports.
const VIEW_COUNTERS: [&str; 4] = [
    view_names::CTR_DELTA_ADD,
    view_names::CTR_DELTA_REMOVE,
    view_names::CTR_FALLBACK,
    view_names::CTR_FRAMES,
];

/// A set-up's server and views while they serve the loop, with the view
/// counters at adoption so that they cover only the loop.
struct LiveViews {
    server: ServerHandle,
    feed: Client,
    writer: Client,
    views: HashMap<u64, View>,
    generation: u64,
    registry: Arc<MetricsRegistry>,
    before: [u64; 4],
}

impl LiveViews {
    /// Takes over a fresh set-up; false when a view's snapshot is not the
    /// checker's answer on the original data.
    fn adopt(
        (server, feed, mut writer, views): (ServerHandle, Client, Client, HashMap<u64, View>),
        original: &HashMap<Vec<u32>, Vec<u32>>,
    ) -> Result<(Self, bool), String> {
        let good = views_match(&views, original);
        let (health, _) = call(&mut writer, "{\"op\":\"health\"}")?;
        let generation = u64_of(&health, "generation").ok_or("health reply without generation")?;
        let registry = server.registry();
        let before = VIEW_COUNTERS.map(|n| registry.counter(n));
        let live = Self {
            server,
            feed,
            writer,
            views,
            generation,
            registry,
            before,
        };
        Ok((live, good))
    }

    /// Adds this server's view counters over the loop to `totals` and shuts
    /// it down.
    fn retire(self, totals: &mut [u64; 4]) {
        for (i, name) in VIEW_COUNTERS.iter().enumerate() {
            totals[i] += self.registry.counter(name) - self.before[i];
        }
        drop((self.feed, self.writer));
        self.server.shutdown();
        self.server.join();
    }
}

/// `subscribe`: `VIEWS` distinct standing `trs` views on one connection;
/// the second connection runs a closed loop of insert/expire, and after
/// each acknowledgement the client reads all `VIEWS` delta frames. No
/// queries: a live view also answers queries, which would mix cache hits
/// into the timings. The views, like the dataset, are the same in every
/// run (a view's build cost varies several-fold with its query, so a
/// per-seed set would move `setup_s` far more than any change to the code
/// under test); `--seed` draws the inserted rows. A due set-up replaces the
/// serving server and its views between rounds.
pub fn subscribe(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let ds = crate::dataset(N)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut view_rng = StdRng::seed_from_u64(crate::DATA_SEED + 1);
    let mut queries: Vec<Vec<u32>> = Vec::new();
    while queries.len() < VIEWS {
        let v = random_values(&ds, &mut view_rng)?;
        if !queries.contains(&v) {
            queries.push(v);
        }
    }
    let mut mirror = Mirror::new(&ds);
    let original = span("check", || expected_sets(&ds, &mirror, &queries));

    // Server start + every view built.
    let mut build_ms = Vec::new();
    let mut setup = || {
        let _span = obs::handle().span("bench", "setup");
        let server = span("server.start", || start(&ds))?;
        let mut feed = connect(&server)?;
        let writer = connect(&server)?;
        let (views, acks) = subscribe_all(&mut feed, &queries)?;
        build_ms.extend(acks);
        Ok((server, feed, writer, views))
    };
    let mut setups = Setups::new(SUBSCRIBE_SETUP_REPEATS);
    let mut totals = [0u64; 4];
    let (first, mut correct) = LiveViews::adopt(setups.time(&mut setup)?, &original)?;
    let mut live = Some(first);

    let mut ack_ms = Vec::new();
    let mut delta_ms = Vec::new();
    let mut queued_ms = Vec::new();
    let mut timed = Duration::ZERO;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut next_id = N as u32;
    let mut applied = 0usize;
    while timed < budget || attempted == 0 {
        let lv = live.as_mut().expect("a set-up serves every round");
        let id = next_id;
        next_id += 1;
        let row = random_row(&ds, &mut rng);
        for insert in [true, false] {
            let line = mutation_line(insert, id, &row);
            let mutation_span = obs::handle().span(
                "bench",
                if insert {
                    "client.insert"
                } else {
                    "client.expire"
                },
            );
            let t0 = Instant::now();
            let reply = lv.writer.send(&line).map_err(err)?;
            let t1 = Instant::now();
            let reply = json::parse(&reply).map_err(err)?;
            attempted += 1;
            if !ok(&reply) {
                drop(mutation_span);
                timed += t1 - t0;
                failed += 1;
                eprintln!("mutation failed: {reply:?}");
                continue;
            }
            let mut frames = Vec::with_capacity(VIEWS);
            let frames_span = obs::handle().span("bench", "client.frames");
            for _ in 0..VIEWS {
                frames.push(lv.feed.read_line().map_err(err)?);
            }
            let t2 = Instant::now();
            drop((frames_span, mutation_span));
            timed += t2 - t0;
            ack_ms.push(ms(t1 - t0));
            delta_ms.push(ms(t2 - t0));
            queued_ms.push(ms(t2 - t1));

            // Outside the timed section.
            let check_span = obs::handle().span("bench", "check");
            correct &= apply_mutation(&reply, &mut lv.generation, &mut mirror, insert, id, &row);
            for frame in &frames {
                let frame = json::parse(frame).map_err(err)?;
                correct &= apply_frame(&mut lv.views, &frame, lv.generation);
            }
            applied += 1;
            if !insert {
                correct &= views_match(&lv.views, &original);
            } else if (applied / 2).is_multiple_of(CHECK_EVERY) {
                correct &= views_match(&lv.views, &expected_sets(&ds, &mirror, &queries));
            }
            drop(check_span);
        }
        if setups.due(timed, budget) {
            span("server.shutdown", || {
                live.take().expect("serving").retire(&mut totals)
            });
            let (next, good) = LiveViews::adopt(setups.time(&mut setup)?, &original)?;
            correct &= good;
            live = Some(next);
        }
    }
    span("server.shutdown", || {
        live.take().expect("serving").retire(&mut totals)
    });
    while setups.due(timed, budget) {
        let (spare, good) = LiveViews::adopt(setups.time(&mut setup)?, &original)?;
        correct &= good;
        span("server.shutdown", || spare.retire(&mut totals));
    }

    let delta_p50 = median(&delta_ms);
    let ack_p50 = median(&ack_ms);
    let layers = [
        ("view.build_ms", median(&build_ms)),
        ("view.ack_p50_ms", ack_p50),
        ("view.delta_add", totals[0] as f64),
        ("view.delta_remove", totals[1] as f64),
        ("view.fallback", totals[2] as f64),
        ("view.frames", totals[3] as f64),
        ("delta.queued_p50_ms", median(&queued_ms)),
    ];
    let detail = vec![
        ("mutation_p50_ms".into(), ack_p50, "ms"),
        ("delta_p50_ms".into(), delta_p50, "ms"),
        ("mutations".into(), applied as f64, ""),
    ];
    Ok(Outcome {
        correct,
        attempted,
        failed,
        end_to_end: EndToEnd {
            setup_s: setups.median(),
            p50_ms: delta_p50,
            ops_per_s: (attempted - failed) as f64 / timed.as_secs_f64(),
        },
        layers: layers
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        detail,
    })
}
