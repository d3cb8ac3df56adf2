//! `compare PARENT.jsonl CHANGE.jsonl`: the A/B verdict for every
//! (workload, end-to-end metric) pair of two result files written by
//! `run --out`. The i-th run of a workload in one file is paired with the
//! i-th run of it in the other.

use crate::stats::{median, quartiles, verdict, Verdict};
use fiq_core::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Pairs a claim of gain needs.
const MIN_PAIRS: usize = 10;

/// One workload run read back from a results file.
struct RunResult {
    started_ms: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn read_results(path: &str) -> Result<BTreeMap<String, Vec<RunResult>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut out: BTreeMap<String, Vec<RunResult>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let v = Json::parse(line).map_err(|e| bad(&e))?;
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        if v.get("correct") != Some(&Json::Bool(true)) {
            return Err(bad("a run whose checks failed cannot be compared"));
        }
        let Some(Json::Obj(fields)) = v.get("metrics") else {
            return Err(bad("no metrics object"));
        };
        let metrics = fields
            .iter()
            .map(|(k, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| bad(&format!("metric {k} has no value")))
            })
            .collect::<Result<_, _>>()?;
        out.entry(workload.to_string())
            .or_default()
            .push(RunResult {
                started_ms: v.get("started_ms").and_then(Json::as_u64).unwrap_or(0),
                failed: v.get("failed").and_then(Json::as_u64).unwrap_or(0),
                metrics,
            });
    }
    Ok(out)
}

/// `(name, unit, higher is better, bound)` of each end-to-end metric.
fn read_bounds(path: &Path) -> Result<Vec<(String, String, bool, f64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let bench = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            match (
                s("name"),
                s("unit"),
                s("better"),
                m.get("bound").and_then(Json::as_f64),
            ) {
                (Some(name), Some(unit), Some(better), Some(bound)) => {
                    Ok((name, unit, better == "higher", bound))
                }
                _ => Err(format!("malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

/// Prints one verdict row per (workload, metric). Returns false when any
/// row regressed.
pub fn run(files: &[String], bench_json: Option<&Path>) -> Result<bool, String> {
    let [parent, change] = files else {
        return Err("compare takes PARENT.jsonl CHANGE.jsonl".into());
    };
    let bounds = read_bounds(bench_json.unwrap_or(Path::new("BENCHMARK.json")))?;
    let (parent, change) = (read_results(parent)?, read_results(change)?);
    let mut regressed = false;
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            println!("{workload}: no runs of the change");
            continue;
        };
        let n = p_runs.len().min(c_runs.len());
        let (p_runs, c_runs) = (&p_runs[..n], &c_runs[..n]);
        let change_first = p_runs
            .iter()
            .zip(c_runs)
            .filter(|(p, c)| c.started_ms < p.started_ms)
            .count();
        let failed = |runs: &[RunResult]| runs.iter().map(|r| r.failed).sum::<u64>();
        println!(
            "{workload}: {n} pairs, change ran first in {change_first}; failed operations parent {} change {}",
            failed(p_runs),
            failed(c_runs)
        );
        // A gain needs enough pairs, and no more failures than the parent.
        let may_gain = n >= MIN_PAIRS && failed(c_runs) <= failed(p_runs);
        if n < MIN_PAIRS {
            println!("{workload}: fewer than {MIN_PAIRS} pairs, so no gain can be claimed");
        }
        for (name, unit, higher, bound) in &bounds {
            let values = |runs: &[RunResult]| -> Option<Vec<f64>> {
                runs.iter().map(|r| r.metrics.get(name).copied()).collect()
            };
            let (Some(p), Some(c)) = (values(p_runs), values(c_runs)) else {
                println!("{workload:<18} {name:<18} missing");
                continue;
            };
            let mut v = verdict(&p, &c, *higher, *bound);
            if v == Verdict::Gain && !may_gain {
                v = Verdict::Ok;
            }
            regressed |= v == Verdict::Regressed;
            let better = |x: f64, y: f64| if *higher { x > y } else { x < y };
            let wins = p.iter().zip(&c).filter(|(p, c)| better(**c, **p)).count();
            let side = |x: &[f64]| {
                let q = quartiles(x);
                format!("{:.6} [{:.6}, {:.6}]", median(x), q[0], q[2])
            };
            println!(
                "{workload:<18} {name:<18} parent {} change {} {unit}; change/parent {:.4} \
                 (base: parent median {:.6} {unit}); change wins {wins}/{n}; bound {bound}; {}",
                side(&p),
                side(&c),
                median(&c) / median(&p),
                median(&p),
                v.name()
            );
        }
    }
    Ok(!regressed)
}
