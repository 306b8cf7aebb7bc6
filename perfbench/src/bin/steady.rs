//! Steadiness check: runs one workload N times, each with another seed, and
//! prints each end-to-end metric's median, quartiles and interquartile
//! range as a share of the median (quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them). With `--traced` it
//! also makes one traced run on the first seed and prints each end-to-end
//! metric's tracing overhead against the untraced median.
//!
//! ```text
//! steady --workload <name> [--runs 10] [--seconds 25] [--traced]
//! ```
//!
//! It runs the `perfbench` binary that sits next to it, from the current
//! directory (the repository root), with seeds `1..=runs`.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use rsky_server::json::{self, JsonValue};

struct Args {
    workload: String,
    runs: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        runs: 10,
        seconds: 25,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            a.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} must be an integer"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--runs" => a.runs = int()?,
            "--seconds" => a.seconds = int()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if a.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    Ok(a)
}

/// One run's stdout lines.
fn run_once(a: &Args, seed: u64, trace: bool) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("perfbench");
    let out = Command::new(&exe)
        .args(["--workload", &a.workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &a.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "seed {seed}: exit {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect())
}

/// `{"name": {"value": v, "unit": u}}` → name → value.
fn values(metrics: Option<&JsonValue>) -> BTreeMap<String, f64> {
    match metrics {
        Some(JsonValue::Obj(m)) => m
            .iter()
            .filter_map(|(k, v)| {
                v.get("value")
                    .and_then(JsonValue::as_f64)
                    .map(|x| (k.clone(), x))
            })
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Python's `statistics.quantiles(data, n=4)` (the default "exclusive"
/// method): the three cut points.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let m = d.len() as i64 + 1;
    [1i64, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, d.len() as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut shares = Vec::new();
    for seed in 1..=a.runs {
        let lines = match run_once(&a, seed, false) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let last = json::parse(lines.last().map_or("", String::as_str)).unwrap_or(JsonValue::Null);
        let attempted = last
            .get("attempted")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let failed = last
            .get("failed")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let correct = last.get("correct").and_then(JsonValue::as_bool) == Some(true);
        shares.push(failed / attempted.max(1.0));
        let m = values(last.get("metrics"));
        println!(
            "seed {seed}: correct={correct} attempted={attempted} failed={failed} {}",
            m.iter()
                .map(|(k, v)| format!("{k}={v:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        for (k, v) in m {
            series.entry(k).or_default().push(v);
        }
    }
    println!(
        "workload {} — {} runs of {} s",
        a.workload, a.runs, a.seconds
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>9}",
        "metric", "median", "q1", "q3", "iqr/med"
    );
    let mut medians = BTreeMap::new();
    for (k, v) in &series {
        let [q1, q2, q3] = quartiles(v);
        println!(
            "{k:<14} {q2:>12.4} {q1:>12.4} {q3:>12.4} {:>9.4}",
            (q3 - q1) / q2
        );
        medians.insert(k.clone(), q2);
    }
    let steady_share = shares.windows(2).all(|w| w[0] == w[1]);
    println!("failed share per run: {shares:?} (identical across runs: {steady_share})");

    if a.traced {
        let lines = match run_once(&a, 1, true) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let traced = lines
            .iter()
            .filter_map(|l| json::parse(l).ok())
            .find_map(|v| v.get("traced_end_to_end").cloned());
        println!("tracing overhead (traced run, seed 1, vs untraced median):");
        for (k, v) in values(traced.as_ref()) {
            if let Some(base) = medians.get(&k) {
                println!(
                    "{k:<14} traced {v:>12.4}  untraced {base:>12.4}  ratio {:>7.4}",
                    v / base
                );
            }
        }
    }
    ExitCode::SUCCESS
}
