//! The CI bench-regression gate.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [--summary FILE]
//! ```
//!
//! Both files are `figure6 --json` documents. The numbers are virtual
//! time from the calibrated cost model — bit-exact across machines and
//! executor sizes — so the gate demands an exact match: it exits non-zero
//! if any cell's mean, p50, p99 or crossings-per-op differs from the
//! baseline, or if a cell is missing from either document. A change that
//! moves a cell on purpose regenerates the baseline with
//!
//! ```text
//! cargo run --release -p afs-bench --bin figure6 -- --ops 200 --json BENCH_baseline.json
//! ```
//!
//! and explains the move. `--summary FILE` appends the per-cell comparison
//! as a GitHub-flavoured markdown table — CI points it at
//! `$GITHUB_STEP_SUMMARY` so the cells render on the run page.

use std::io::Write;
use std::process::ExitCode;

use afs_bench::{compare, parse_bench_doc, render_stats, BenchDoc};

/// Renders the gate comparison as a markdown table: one row per cell of
/// either document, with both sides' gated fields and a status column.
fn markdown_summary(baseline: &BenchDoc, current: &BenchDoc) -> String {
    let mut out = String::new();
    out.push_str("## Bench gate\n\n");
    out.push_str(&format!(
        "Exact match on mean, p50, p99 and crossings/op ({} ops per cell).\n\n",
        current.ops
    ));
    out.push_str("| cell | baseline | current | status |\n");
    out.push_str("|---|---|---|---|\n");
    let mut labels: Vec<&String> = baseline.strategies.keys().collect();
    labels.extend(
        current
            .strategies
            .keys()
            .filter(|l| !baseline.strategies.contains_key(*l)),
    );
    for label in labels {
        let base = baseline.strategies.get(label);
        let cur = current.strategies.get(label);
        let status = match (base, cur) {
            (Some(b), Some(c)) if b == c => "✅",
            (Some(_), Some(_)) => "❌ changed",
            (Some(_), None) => "❌ missing from current run",
            (None, _) => "❌ not in the baseline",
        };
        let render = |s: Option<&afs_bench::StrategyStats>| s.map_or("—".to_owned(), render_stats);
        out.push_str(&format!(
            "| {label} | {} | {} | {status} |\n",
            render(base),
            render(cur)
        ));
    }
    out.push('\n');
    out
}

fn die(msg: &str) -> ExitCode {
    eprintln!("bench_gate: {msg}");
    eprintln!("usage: bench_gate <baseline.json> <current.json> [--summary FILE]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut summary_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--summary" => {
                let Some(value) = iter.next() else {
                    return die("--summary needs an output path");
                };
                summary_path = Some(value.clone());
            }
            other if other.starts_with("--") => {
                return die(&format!("unknown flag {other}"));
            }
            path => paths.push(path.to_owned()),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return die("expected exactly two file arguments");
    };

    let load = |path: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_bench_doc(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = match load(baseline_path) {
        Ok(doc) => doc,
        Err(e) => return die(&e),
    };
    let current = match load(current_path) {
        Ok(doc) => doc,
        Err(e) => return die(&e),
    };

    let violations = compare(&baseline, &current);
    if let Some(path) = summary_path {
        // Append rather than truncate: $GITHUB_STEP_SUMMARY accumulates
        // sections from every step in the job.
        let table = markdown_summary(&baseline, &current);
        let write = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(table.as_bytes()));
        if let Err(e) = write {
            return die(&format!("cannot write summary {path}: {e}"));
        }
    }
    for (label, cur) in &current.strategies {
        println!("{label}: {}", render_stats(cur));
    }
    if violations.is_empty() {
        println!("bench gate: PASS ({} cells)", current.strategies.len());
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("bench gate: MISMATCH — {v}");
        }
        eprintln!(
            "bench gate: if the change is intended, regenerate the baseline with \
             `cargo run --release -p afs-bench --bin figure6 -- --ops 200 --json \
             BENCH_baseline.json` and explain it"
        );
        ExitCode::FAILURE
    }
}
