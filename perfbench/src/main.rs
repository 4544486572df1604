//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <token_read|update_mix|link_wire|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop of two client threads with no think
//! time. A run builds the system several times (each build is one round),
//! measures the workload on each, checks every output, and prints a table
//! of named metrics followed by one JSON result line. With `--trace 0` the
//! result holds the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics of a traced run, and the spans are written to
//! `perfbench/out/spans-<workload>.tsv`. The process exits non-zero if
//! any output check fails. See `perfbench/README.md`.

mod checks;
mod layers;
mod round;
mod stats;
mod stream;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use crate::layers::PER_LAYER;
use crate::stats::{median_f64, median_u64, tail_percentile};
use crate::workloads::{Class, Kind, CLIENTS};

/// Directory, relative to the working directory, for span files and the
/// wire transport's Unix sockets.
const OUT_DIR: &str = "perfbench/out";

/// The end-to-end metrics of an untraced run, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Fewest rounds (system builds) per run: `setup_s` is their median.
const MIN_ROUNDS: usize = 10;
/// Most rounds per run, whatever the throughput.
const MAX_ROUNDS: usize = 40;

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run only round `n` of the run, with this budget, and
    /// print its records (see `round.rs`).
    round: Option<(usize, f64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let (mut round, mut budget) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?]
                })
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            "--round" => round = Some(value.parse().map_err(|e| format!("--round {value}: {e}"))?),
            "--budget" => {
                budget = Some(value.parse().map_err(|e| format!("--budget {value}: {e}"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    let round = match (round, budget) {
        (Some(r), Some(b)) => Some((r, b)),
        (None, None) => None,
        _ => return Err("--round and --budget go together".into()),
    };
    Ok(Args { workloads, seed, seconds, trace, round })
}

/// Everything a run gathers from its rounds.
#[derive(Default)]
struct Run {
    rounds: usize,
    setup_s: Vec<f64>,
    /// Per-round values of each end-to-end timing and rate, by name.
    per_round: BTreeMap<String, Vec<f64>>,
    /// Latency samples per operation class, over all rounds.
    samples: [usize; 3],
    /// Wall time of the measured (or, traced, of both halves') phases.
    measured_wall: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    violations: Vec<String>,
    archived: Vec<f64>,
    rss_mb: Vec<f64>,
    layers: BTreeMap<String, Vec<f64>>,
}

impl Run {
    /// Folds in the records one round printed.
    fn absorb(&mut self, records: &str) -> Result<(), String> {
        let mut latencies: [Vec<u64>; 3] = Default::default();
        let (mut ops, mut wall) = (0u64, 0.0);
        for line in records.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let mut nums = rest.split(' ');
            let mut num = || -> Result<f64, String> {
                let v = nums.next().unwrap_or("");
                v.parse().map_err(|_| format!("bad round record {line:?}"))
            };
            match tag {
                "setup" => self.setup_s.push(num()?),
                "measured" | "half" => {
                    ops += num()? as u64;
                    wall += num()?;
                }
                "count" => {
                    self.attempted += num()? as u64;
                    self.failed += num()? as u64;
                }
                "lat" => {
                    let class = num()? as usize;
                    let all = latencies.get_mut(class).ok_or("bad latency class")?;
                    for v in rest.split(' ').skip(1) {
                        all.push(v.parse().map_err(|_| format!("bad latency {v:?}"))?);
                    }
                }
                "layer" => {
                    let (name, v) = rest.split_once(' ').ok_or("bad layer record")?;
                    let v = v.parse().map_err(|_| format!("bad layer value {v:?}"))?;
                    self.layers.entry(name.to_string()).or_default().push(v);
                }
                "archive" => self.archived.push(num()?),
                "rss" => self.rss_mb.push(num()?),
                "error" => self.errors.push(rest.to_string()),
                "violation" => self.violations.push(rest.to_string()),
                _ => return Err(format!("unknown round record {line:?}")),
            }
        }
        self.measured_wall += wall;
        let mut add = |name: String, v: f64| self.per_round.entry(name).or_default().push(v);
        add("ops_per_s".into(), ops as f64 / wall.max(1e-9));
        for class in Class::ALL {
            let lat = &mut latencies[class as usize];
            lat.sort_unstable();
            self.samples[class as usize] += lat.len();
            if !lat.is_empty() {
                add(format!("{}_p50_us", class.name()), median_u64(lat) / 1e3);
            }
            for (p, q) in [("p90", 0.90), ("p99", 0.99)] {
                if let Some(q) = tail_percentile(lat, q) {
                    add(format!("{}_{p}_us", class.name()), q.value as f64 / 1e3);
                }
            }
        }
        Ok(())
    }

    /// Median over rounds of a per-round value; 0 if no round had it.
    fn median(&self, name: &str) -> f64 {
        self.per_round.get(name).map_or(0.0, |v| median_f64(v))
    }
}

fn spans_path(kind: Kind) -> PathBuf {
    Path::new(OUT_DIR).join(format!("spans-{}.tsv", kind.name()))
}

/// Runs rounds, each in a child process, until their measured phases
/// add up to `seconds` (and at least [`MIN_ROUNDS`] have run).
fn run_workload(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    if traced {
        trace::start_span_file(&spans_path(kind))
            .map_err(|e| format!("start {}: {e}", spans_path(kind).display()))?;
    }
    let round_budget = seconds / MIN_ROUNDS as f64;
    let mut run = Run::default();
    while run.rounds < MAX_ROUNDS {
        let remaining = seconds - run.measured_wall;
        let budget =
            if run.rounds < MIN_ROUNDS { round_budget } else { remaining.min(round_budget) };
        if budget < round_budget * 0.05 {
            break;
        }
        let out = Command::new(&exe)
            .args(["--workload", kind.name(), "--seed", &seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .args(["--round", &run.rounds.to_string(), "--budget", &budget.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("start round {}: {e}", run.rounds))?;
        if !out.status.success() {
            return Err(format!("round {} failed ({})", run.rounds, out.status));
        }
        run.absorb(&String::from_utf8_lossy(&out.stdout))?;
        run.rounds += 1;
    }
    Ok(run)
}

/// A JSON number: finite, with every digit the measurement has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints the run's table and its JSON result line; returns whether every
/// output check passed.
fn report(kind: Kind, seed: u64, run: &Run, traced: bool) -> bool {
    let name = kind.name();
    let correct = run.violations.is_empty() && run.failed == 0;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    println!("# {name}  seed {seed}  rounds {}  clients {CLIENTS}", run.rounds);
    if !traced {
        for class in Class::ALL {
            let n = run.samples[class as usize];
            for p in ["p50", "p90", "p99"] {
                let metric = format!("{}_{p}_us", class.name());
                if let Some(v) = run.per_round.get(&metric) {
                    let rounds = v.len();
                    let v = run.median(&metric);
                    println!("{name}  {metric}  {v:.2} us  (median of {rounds} rounds, n={n})");
                }
            }
        }
        let gated = kind.gated_class().name();
        for (metric, unit) in END_TO_END {
            let v = match metric {
                "op_p50_us" => run.median(&format!("{gated}_p50_us")),
                "op_p90_us" => run.median(&format!("{gated}_p90_us")),
                "ops_per_s" => run.median("ops_per_s"),
                "setup_s" => median_f64(&run.setup_s),
                "peak_rss_mb" => run.rss_mb.iter().copied().fold(0.0, f64::max),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            metrics.push((metric.to_string(), v, unit));
        }
        let ratio = run.failed as f64 / run.attempted.max(1) as f64;
        println!("{name}  failed_op_ratio  {ratio} ({} of {})", run.failed, run.attempted);
        if !run.archived.is_empty() {
            println!(
                "{name}  archive_bytes_per_user_byte  {:.4}  (median of {} rounds)",
                median_f64(&run.archived),
                run.archived.len()
            );
        }
    } else {
        println!("{name}  spans written to {}", spans_path(kind).display());
        // Each layer metric is the median of its per-round values.
        for lm in PER_LAYER {
            let v = run.layers.get(lm.name).map_or(0.0, |v| median_f64(v));
            metrics.push((lm.name.to_string(), v, lm.unit));
        }
    }
    for (metric, v, unit) in &metrics {
        println!("{name}  {metric}  {v:.3} {unit}");
    }
    for e in run.errors.iter().chain(&run.violations).take(10) {
        println!("{name}  FAILED  {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, v, unit)| {
            format!("\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*v))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    );
    correct
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <token_read|update_mix|link_wire|all> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // The wire transport binds its Unix sockets under the temp directory:
    // keep them inside the working tree, on a path short enough to bind.
    let sock_dir = Path::new(OUT_DIR).join("sock");
    if let Err(e) = std::fs::create_dir_all(&sock_dir) {
        eprintln!("perfbench: cannot create {}: {e}", sock_dir.display());
        std::process::exit(2);
    }
    std::env::set_var("TMPDIR", &sock_dir);

    if let Some((r, budget)) = args.round {
        let [kind] = args.workloads[..] else {
            eprintln!("perfbench: a round runs one workload");
            std::process::exit(2);
        };
        let spans = args.trace.then(|| spans_path(kind));
        let budget = Duration::from_secs_f64(budget);
        if let Err(e) = round::run_round(kind, args.seed, r, budget, spans.as_deref()) {
            eprintln!("perfbench: {} round {r}: {e}", kind.name());
            std::process::exit(2);
        }
        return;
    }

    let mut all_correct = true;
    for kind in args.workloads {
        let run = match run_workload(kind, args.seed, args.seconds, args.trace) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", kind.name());
                std::process::exit(2);
            }
        };
        all_correct &= report(kind, args.seed, &run, args.trace);
    }
    if !all_correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names every workload and
    /// every metric this program prints, with the same units.
    #[test]
    fn benchmark_manifest_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest: String = std::fs::read_to_string(path)
            .expect("read BENCHMARK.json")
            .split_whitespace()
            .collect();
        for kind in Kind::ALL {
            assert!(
                manifest.contains(&format!("{{\"name\":\"{}\",", kind.name())),
                "{}",
                kind.name()
            );
        }
        let metrics = END_TO_END.iter().copied().chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in metrics {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
