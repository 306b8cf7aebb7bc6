//! `perfbench` — the repository's canonical benchmark.
//!
//! ```text
//! perfbench --workload <adhoc|serve-churn|subscribe> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from `--seed`, sets the system up (timed as
//! `setup_s`), drives it in a closed loop for `--seconds` seconds of timed
//! operations, checks every answer against the definitional checker, and
//! prints one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` they are the per-layer
//! set (see `layers.rs`), and the span log of the program's own recorder
//! (`rsky_core::obs`) is written under `perfbench/out/`. See
//! `perfbench/README.md` for the workloads.

mod adhoc;
mod checker;
mod layers;
mod serve;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rsky_core::obs::{self, JsonlSink, MetricsRegistry, ObsHandle, RegistrySink};

/// Attributes of the synthetic dataset.
pub const ATTRS: usize = 5;
/// Values per attribute.
pub const VALUES: u32 = 50;
/// Generator seed of the dataset. The dataset (rows and the random
/// dissimilarity matrices) is the same in every run, as the paper's
/// synthetic datasets are fixed per figure; `--seed` draws the query and
/// mutation streams. Drawing the dataset from `--seed` as well widened the
/// seed-to-seed spread of `adhoc`'s `p50_ms` from 7.5 % to 11.6 %.
pub const DATA_SEED: u64 = 2011;

/// The synthetic-normal dataset of `n` rows, `ATTRS` × `VALUES`.
pub fn dataset(n: usize) -> Result<rsky_core::dataset::Dataset, String> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(DATA_SEED);
    rsky_data::synthetic::normal_dataset(ATTRS, VALUES, n, &mut rng).map_err(|e| e.to_string())
}

/// The query a set-up ends with: the centre of the value domain, the same
/// in every run so that set-up time does not depend on `--seed`.
pub fn warm_values() -> Vec<u32> {
    vec![VALUES / 2; ATTRS]
}

/// Set-up timings of one run; `setup_s` is their median. The host's speed
/// drifts over seconds, so the repeats are spread over the run: the first
/// before the timed loop, each further one once the loop has used the next
/// share of its budget (`due`), or, in `adhoc`, after a fixed number of
/// rounds.
pub struct Setups {
    times: Vec<f64>,
    repeats: usize,
}

impl Setups {
    /// Expects `repeats` set-ups.
    pub fn new(repeats: usize) -> Self {
        Self {
            times: Vec::with_capacity(repeats),
            repeats,
        }
    }

    /// Runs and times one set-up.
    pub fn time<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let out = f()?;
        self.times.push(t.elapsed().as_secs_f64());
        Ok(out)
    }

    /// Whether the next repeat is due after `timed` of a `budget`-long loop
    /// (always, once the loop has ended, until all are done).
    pub fn due(&self, timed: Duration, budget: Duration) -> bool {
        let share = self.times.len() as f64 / self.repeats as f64;
        self.times.len() < self.repeats && timed.as_secs_f64() >= budget.as_secs_f64() * share
    }

    /// Set-ups timed so far.
    pub fn done(&self) -> usize {
        self.times.len()
    }

    /// Median set-up time in seconds.
    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// Everything a workload reports back.
pub struct Outcome {
    /// Every checked answer matched the definitional checker (and every
    /// protocol invariant held).
    pub correct: bool,
    /// Operations attempted (whole rounds).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// End-to-end metrics, as measured in this run.
    pub end_to_end: EndToEnd,
    /// Per-layer metrics this workload exercises (the rest read 0).
    pub layers: BTreeMap<String, f64>,
    /// Workload-specific end-to-end detail (name, value, unit), printed
    /// ahead of the result line.
    pub detail: Vec<(String, f64, &'static str)>,
}

/// Runs `f` inside the benchmark's span `bench.<name>`. The span goes to
/// the recorder installed on this thread: in a traced run the span log and
/// registry, otherwise the inert handle, which records nothing.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = obs::handle().span("bench", name);
    f()
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd {
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// Median latency of the workload's operation, in ms (`adhoc`: the
    /// geometric mean of the six configurations' median latencies, so each
    /// configuration weighs the same).
    pub p50_ms: f64,
    /// Completed operations per second of timed closed loop (`adhoc`: the
    /// mean of the six configurations' query rates, `1000 / median ms`;
    /// `serve-churn`: the operations of a half-round over its median
    /// duration).
    pub ops_per_s: f64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds must be an integer")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds.max(1));
    let run = |registry: Option<&MetricsRegistry>| match args.workload.as_str() {
        "adhoc" => adhoc::run(args.seed, budget, registry),
        "serve-churn" => serve::churn(args.seed, budget),
        "subscribe" => serve::subscribe(args.seed, budget),
        other => Err(format!(
            "unknown workload {other:?} (adhoc | serve-churn | subscribe)"
        )),
    };
    // A traced run installs the program's own recorder on this thread: every
    // span (the benchmark's and the engines' own phase and batch spans) goes
    // to the JSONL span log and to a registry the workload reads back.
    let path =
        PathBuf::from("perfbench/out").join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let sink = if args.trace {
        match std::fs::create_dir_all("perfbench/out").and_then(|()| JsonlSink::create(&path)) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!("error: creating {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let outcome = match &sink {
        Some(sink) => {
            let (registry, reg_handle) = RegistrySink::fresh();
            let handle = ObsHandle::tee(vec![sink.handle(), reg_handle]);
            obs::with_recorder(handle, || run(Some(&registry)))
        }
        None => run(None),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rss_mb = peak_rss_mb();
    let e2e = [
        ("setup_s", outcome.end_to_end.setup_s, "s"),
        ("rss_peak_mb", rss_mb, "MiB"),
        ("p50_ms", outcome.end_to_end.p50_ms, "ms"),
        ("ops_per_s", outcome.end_to_end.ops_per_s, "1/s"),
    ];
    let mut detail = String::new();
    for (name, value, unit) in &outcome.detail {
        let _ = write!(detail, " {name}={value:.4}{unit}");
    }
    eprintln!("{}:{detail}", args.workload);
    let metrics: Vec<(String, f64, &str)> = if let Some(sink) = &sink {
        if let Err(e) = sink.flush() {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        // The traced run's own end-to-end figures: compare them with an
        // untraced run of the same seed for the tracing overhead.
        println!(
            "{{\"traced_end_to_end\":{}}}",
            metrics_json(e2e.map(|(n, v, u)| (n.into(), v, u)).as_slice())
        );
        eprintln!(
            "span log: {} lines in {}",
            sink.lines_written(),
            path.display()
        );
        layers::all(&outcome.layers)
    } else {
        e2e.map(|(n, v, u)| (n.to_string(), v, u)).to_vec()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(*value)
        );
    }
    out.push('}');
    out
}

/// A finite JSON number with all its digits (`{:?}` prints the shortest
/// exact round-trip form).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated `q`-quantile of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Milliseconds of a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
