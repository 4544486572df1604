//! Diffs and gates the `BENCH_<id>.json` trajectories the `lab` binary
//! writes (`lab --json-dir DIR scenarios/*.jsonl`; see EXPERIMENTS.md).
//! It runs no experiments itself.
//!
//! Regression mode: diff two saved directories.
//!
//! ```text
//! report --compare old --current new [--threshold 25]
//! ```
//!
//! Exits non-zero when any metric regressed beyond the threshold (percent,
//! default 25): numeric cells by relative drift, text cells by inequality,
//! disappeared rows always.
//!
//! Gate mode: compare one numeric cell of two rows, of one trajectory or
//! of two — e.g. a14's wire churn throughput against the same table's
//! in-process baseline — and fail if the ratio candidate/baseline falls
//! below a floor:
//!
//! ```text
//! report --gate 'bench-results/BENCH_a14.json::local baseline' \
//!               'bench-results/BENCH_a14.json::wire churn' \
//!               --column ops/s --min-ratio 0.11
//! ```
//!
//! Exit status: `0` pass, `1` regression or gate failure, `2` bad
//! arguments or unreadable input.

use dl_bench::trajectory;

const USAGE: &str = "usage: report --compare OLD_DIR --current NEW_DIR [--threshold PCT]\n       \
                     report --gate FILE::ROW FILE::ROW [--column HEADER] [--min-ratio R]";

/// Loads every BENCH_*.json in `dir`, keyed by file stem.
fn load_dir(dir: &str) -> Vec<(String, trajectory::Table)> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("compare: cannot read {dir}: {e}");
            std::process::exit(2);
        }
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(entry.path()).expect("read trajectory");
        match trajectory::parse(&text) {
            Ok(t) => out.push((name, t)),
            Err(e) => {
                eprintln!("compare: skipping {name}: {e}");
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Diffs every trajectory in `current_dir` against its namesake in
/// `baseline_dir`; returns the total regression count.
fn compare_dirs(baseline_dir: &str, current_dir: &str, threshold: f64) -> usize {
    let baseline = load_dir(baseline_dir);
    let current = load_dir(current_dir);
    let mut regressions = 0usize;
    for (name, cur) in &current {
        match baseline.iter().find(|(n, _)| n == name) {
            Some((_, base)) => {
                let report = trajectory::compare(base, cur, threshold);
                print!("{}", trajectory::render(&cur.id, &report, threshold));
                regressions += report.regressions();
            }
            None => println!("== compare {}: no baseline {name} in {baseline_dir} ==", cur.id),
        }
    }
    for (name, base) in &baseline {
        if !current.iter().any(|(n, _)| n == name) {
            println!("== compare {}: {name} missing from current run ==  <-- REGRESSION", base.id);
            regressions += 1;
        }
    }
    println!(
        "\ncompare: {} trajectories, {regressions} regression(s) at threshold {threshold}%",
        current.len()
    );
    regressions
}

/// Loads one side of a `--gate` comparison: `<path>::<row label>`.
fn load_gate_cell(spec: &str, column: &str) -> Result<f64, String> {
    let (path, row) = spec
        .split_once("::")
        .ok_or_else(|| format!("--gate arguments look like <file.json>::<row label>: {spec:?}"))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("gate: cannot read {path}: {e}"))?;
    let t = trajectory::parse(&text).map_err(|e| format!("gate: {path}: {e}"))?;
    trajectory::read_cell(&t, row, column)
}

/// Cross-table single-cell gate; returns the process exit code.
fn run_gate(baseline_spec: &str, candidate_spec: &str, column: &str, min_ratio: f64) -> i32 {
    let cells = load_gate_cell(baseline_spec, column)
        .and_then(|b| load_gate_cell(candidate_spec, column).map(|c| (b, c)));
    let (base, cand) = match cells {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if base <= 0.0 {
        eprintln!("gate: baseline cell {baseline_spec:?} / {column:?} is {base}, cannot ratio");
        return 2;
    }
    let ratio = cand / base;
    let verdict = if ratio >= min_ratio { "PASS" } else { "FAIL" };
    println!(
        "gate [{column}]: candidate {cand:.1} vs baseline {base:.1} -> ratio {ratio:.3} \
         (floor {min_ratio}) {verdict}"
    );
    if ratio >= min_ratio {
        0
    } else {
        1
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`: present and not itself a flag.
fn value(flag: &str, it: &mut impl Iterator<Item = String>) -> String {
    it.next()
        .filter(|v| !v.starts_with("--"))
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn number(flag: &str, it: &mut impl Iterator<Item = String>) -> f64 {
    let v = value(flag, it);
    v.parse().unwrap_or_else(|_| usage(&format!("{flag} needs a number, got {v:?}")))
}

fn main() {
    let mut compare_dir: Option<String> = None;
    let mut current_dir: Option<String> = None;
    let mut gate: Option<(String, String)> = None;
    let mut gate_column = "ops/s".to_string();
    let mut min_ratio: f64 = 0.05;
    let mut threshold: f64 = 25.0;
    // `--flag=value` spells the same as `--flag value`.
    let mut args = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.split_once('=') {
            Some((flag, v)) if flag.starts_with("--") => {
                args.extend([flag.to_string(), v.to_string()])
            }
            _ => args.push(arg),
        }
    }
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--compare" => compare_dir = Some(value(&flag, &mut it)),
            "--current" => current_dir = Some(value(&flag, &mut it)),
            "--threshold" => threshold = number(&flag, &mut it),
            "--gate" => gate = Some((value(&flag, &mut it), value(&flag, &mut it))),
            "--column" => gate_column = value(&flag, &mut it),
            "--min-ratio" => min_ratio = number(&flag, &mut it),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    let code = match (&gate, &compare_dir, &current_dir) {
        (Some((base, cand)), None, None) => run_gate(base, cand, &gate_column, min_ratio),
        (None, Some(baseline), Some(current)) => {
            i32::from(compare_dirs(baseline, current, threshold) > 0)
        }
        _ => usage("give either --gate, or both --compare and --current"),
    };
    std::process::exit(code);
}
