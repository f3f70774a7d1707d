//! `e2e --noise N`: how far the end-to-end metrics move when nothing
//! changed. Every workload is run 2N times as child processes (a fresh
//! process per run, as the driver does, each with its own seed), the runs
//! alternating between two sets A and B. Printed per metric × workload:
//! each set's median and quartiles, the gap between the set medians (what a
//! no-op change would be charged with), the spread of all 2N runs
//! (interquartile range ÷ median, the driver's acceptance statistic), and
//! the bound. README.md holds the table this printed for N = 5.

use std::process::{Command, Stdio};

use crate::run::WORKLOADS;
use crate::stats::summarize;
use crate::{Better, END_TO_END};

/// `"name":{"value":<number>` in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

fn run_child(workload: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() || !line.contains("\"correct\":true") {
        return Err(format!(
            "{workload} seed {seed} failed ({}): {line}",
            out.status
        ));
    }
    Ok(line)
}

pub fn run(n: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    if n < 2 {
        return Err("--noise needs at least 2 runs per set".into());
    }
    println!(
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | gap B vs A | spread of {} | bound | |",
        2 * n
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut within = true;
    for w in &WORKLOADS {
        let mut lines: [Vec<String>; 2] = [vec![], vec![]];
        for k in 0..2 * n {
            eprintln!("{} run {}/{}", w.name, k + 1, 2 * n);
            lines[k % 2].push(run_child(w.name, seed + k as u64, seconds)?);
        }
        for (name, _, better, bound) in END_TO_END {
            let values = |set: &[String]| -> Result<Vec<f64>, String> {
                set.iter()
                    .map(|l| metric_value(l, name).ok_or(format!("{name} missing in {l}")))
                    .collect()
            };
            let (a, b) = (values(&lines[0])?, values(&lines[1])?);
            let (sa, sb) = (summarize(&a), summarize(&b));
            let all = summarize(&[a, b].concat());
            // Positive = set B reads worse than set A.
            let gap = match better {
                Better::Lower => (sb.median - sa.median) / sa.median,
                Better::Higher => (sa.median - sb.median) / sa.median,
            };
            let verdict = if all.spread() > bound || gap.abs() > bound {
                within = false;
                "OVER"
            } else if all.spread() * 3.0 > bound {
                "ok"
            } else {
                "steady"
            };
            println!(
                "| {} | {} | {:.4} [{:.4}, {:.4}] | {:.4} [{:.4}, {:.4}] | {:+.1}% | {:.1}% | {:.0}% | {verdict} |",
                w.name,
                name,
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                gap * 100.0,
                all.spread() * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_value_reads_a_result_line() {
        let line = "{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\
                    \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"},\
                    \"query_rps\":{\"value\":6021.5,\"unit\":\"1/s\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(0.8127));
        assert_eq!(metric_value(line, "query_rps"), Some(6021.5));
        assert_eq!(metric_value(line, "reopen_s"), None);
    }
}
