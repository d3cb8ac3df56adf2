//! `fiq-benchmark`: end-to-end and per-layer measurements of `fiq`
//! campaigns. See README.md for the workloads, the metrics and how to
//! read the ledger.
//!
//! ```text
//! fiq-benchmark measure --workload W [--seed S] [--seconds N] [--trace 0|1] [--spans FILE]
//! fiq-benchmark run     [--workload W]... [--seed S] [--seconds N] [--out FILE]
//! fiq-benchmark trace   [--workload W]... [--seed S] [--seconds N] [--spans FILE] [--out FILE]
//! fiq-benchmark compare PARENT.jsonl CHANGE.jsonl [--bench-json BENCHMARK.json]
//! ```
//!
//! `measure` runs one workload in this process and prints one JSON object
//! as its last line of output; `run` and `trace` run each workload in a
//! child `measure` process, one after another, so each keeps its own peak
//! memory.

mod compare;
mod inproc;
mod kernel;
mod reference;
mod serve;
mod stats;
mod trace;

use fiq_core::json::Json;
use fiq_core::report::CellSummary;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The workloads, in the order `run` and `trace` execute them.
pub const WORKLOADS: [&str; 4] = [
    "grid-replay",
    "grid-checkpointed",
    "exact-masky",
    "serve-loop",
];

/// The seed whose outcome digests `digests.json` stores.
pub const DEFAULT_SEED: u64 = 1;

/// Seconds one workload measures for by default: the `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Scratch space for the streams a run writes, under the working
/// directory; removed when the run ends.
const WORK_ROOT: &str = ".bench_work";

/// `(name, unit, higher is better)` of every end-to-end metric, printed
/// by an untraced run.
pub const END_TO_END: [(&str, &str, bool); 6] = [
    ("setup_s", "s", false),
    ("campaign_s", "s", false),
    ("tasks_per_s", "1/s", true),
    ("points_per_s", "1/s", true),
    ("turnaround_ms", "ms", false),
    ("peak_rss_mb", "MiB", false),
];

/// `(name, unit, higher is better)` of every per-layer metric, printed by
/// a traced run. A layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str, bool); 34] = [
    ("frontend.compile_ms", "ms", false),
    ("opt.optimize_ms", "ms", false),
    ("backend.lower_ms", "ms", false),
    ("profile.golden_llfi_ms", "ms", false),
    ("profile.golden_pinfi_ms", "ms", false),
    ("profile.snapshot_ms", "ms", false),
    ("collapse.analyze_ms", "ms", false),
    ("collapse.classify_ms", "ms", false),
    ("collapse.executed_frac", "ratio", false),
    ("engine.plan_ms", "ms", false),
    ("engine.exec_llfi_ms", "ms", false),
    ("engine.exec_pinfi_ms", "ms", false),
    ("engine.task_x_golden_llfi", "x", false),
    ("engine.task_x_golden_pinfi", "x", false),
    ("engine.streams_ms", "ms", false),
    ("engine.stream_bytes", "bytes", false),
    ("engine.steps_executed", "count", false),
    ("engine.steps_quiescent", "count", true),
    ("engine.steps_skipped_ff", "count", true),
    ("engine.steps_reconstructed_ee", "count", true),
    ("engine.digest_compares", "count", false),
    ("engine.tasks_early_exited", "count", true),
    ("interp.ns_per_step", "ns", false),
    ("asm.ns_per_step", "ns", false),
    ("report.build_ms", "ms", false),
    ("serve.submit_ms", "ms", false),
    ("serve.prepare_ms", "ms", false),
    ("serve.shard_exec_ms", "ms", false),
    ("serve.merge_ms", "ms", false),
    ("serve.extra_attempts", "count", false),
    ("serve.unattributed_ms", "ms", false),
    ("unattributed_ms", "ms", false),
    ("bench.unattributed_pct", "%", false),
    ("bench.trace_overhead_pct", "%", false),
];

/// Settings of one workload run.
pub struct Params {
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Seconds to keep repeating the workload for.
    pub seconds: f64,
    /// Scratch directory for the run's streams.
    pub work: PathBuf,
}

/// The timed section of a run: repetitions go on while one more, as long
/// as the longest so far, would still end within `--seconds`.
pub struct Budget {
    start: Instant,
    seconds: f64,
    longest: f64,
}

impl Budget {
    /// Starts the clock.
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
            longest: 0.0,
        }
    }

    /// Runs one repetition and keeps its length.
    pub fn time<T>(&mut self, rep: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = rep();
        self.longest = self.longest.max(t.elapsed().as_secs_f64());
        out
    }

    /// Whether another repetition fits before the deadline.
    pub fn another_fits(&self) -> bool {
        self.start.elapsed().as_secs_f64() + self.longest <= self.seconds
    }
}

/// What one workload run measured and checked.
pub struct Measured {
    /// Operations attempted (injection runs, plus submissions).
    pub attempted: u64,
    /// Operations that failed or were retried.
    pub failed: u64,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// Metric values, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub spans: Vec<trace::Span>,
}

/// Per-layer metric values, every one present (0 for a layer the
/// workload does not run).
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect())
    }
}

impl Layers {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`]: a bug here, not bad
    /// input.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .0;
        self.0.insert(key, value);
    }

    /// The values in [`PER_LAYER`] order.
    pub fn into_metrics(self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, _, _)| (name, self.0[name]))
            .collect()
    }
}

/// Sets the per-layer work counts: the engine's telemetry counters summed
/// over `cells`.
pub fn set_engine_counts<'a>(l: &mut Layers, cells: impl Iterator<Item = &'a CellSummary> + Clone) {
    for (metric, counter) in [
        ("engine.steps_executed", "steps_executed"),
        ("engine.steps_quiescent", "steps_quiescent"),
        ("engine.steps_skipped_ff", "steps_skipped_ff"),
        ("engine.steps_reconstructed_ee", "steps_reconstructed_ee"),
        ("engine.digest_compares", "digest_compares"),
        ("engine.tasks_early_exited", "early_exited"),
    ] {
        l.set(
            metric,
            cells.clone().map(|c| c.counter(counter) as f64).sum(),
        );
    }
}

/// FNV-1a (64-bit) over the body lines of JSONL streams: every line but
/// each file's header, newline included.
pub fn fnv1a_bodies(paths: &[PathBuf]) -> Result<u64, String> {
    paths.iter().try_fold(FNV_OFFSET, |h, path| {
        let text = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Ok(fnv1a(h, body(&text)))
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A JSONL stream without its header line.
fn body(text: &[u8]) -> &[u8] {
    text.iter()
        .position(|&b| b == b'\n')
        .map_or(&[], |i| &text[i + 1..])
}

/// Compares a workload's outcome digest with the one stored for the
/// default seed and notes it.
pub fn check_digest(
    workload: &str,
    p: &Params,
    digest: u64,
    problems: &mut Vec<String>,
    notes: &mut Vec<String>,
) {
    let hex = format!("{digest:016x}");
    notes.push(format!(
        "{workload}: outcome digest {hex} at seed {}",
        p.seed
    ));
    if p.seed != DEFAULT_SEED {
        return;
    }
    let stored = Json::parse(include_str!("../digests.json")).expect("digests.json is valid JSON");
    match stored.get(workload).and_then(Json::as_str) {
        Some(want) if want == hex => {}
        Some(want) => problems.push(format!(
            "{workload}: outcome digest {hex} differs from the stored {want}"
        )),
        None => problems.push(format!("{workload}: no digest stored in digests.json")),
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Parsed command-line flags.
#[derive(Default)]
struct Args {
    positional: Vec<String>,
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    bench_json: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workloads.push(w);
            }
            "--seed" => a.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out" => a.out = Some(value()?.into()),
            "--spans" => a.spans = Some(value()?.into()),
            "--bench-json" => a.bench_json = Some(value()?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) => parse_args(rest).and_then(|a| match cmd.as_str() {
            "measure" => measure(&a),
            "run" => spawn_each(&a, false),
            "trace" => spawn_each(&a, true),
            "compare" => compare::run(&a.positional, a.bench_json.as_deref()),
            other => Err(format!("unknown command `{other}`")),
        }),
        None => Err("usage: fiq-benchmark measure|run|trace|compare …".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fiq-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process and prints its result as the last
/// line of standard output. Returns whether every check passed.
fn measure(a: &Args) -> Result<bool, String> {
    let [workload] = a.workloads.as_slice() else {
        return Err("measure takes exactly one --workload".into());
    };
    let work = Path::new(WORK_ROOT).join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let p = Params {
        seed: a.seed.unwrap_or(DEFAULT_SEED),
        seconds: a.seconds.unwrap_or(DEFAULT_SECONDS),
        work,
    };
    let result = match (workload.as_str(), a.trace) {
        ("serve-loop", false) => serve::measure(&p),
        ("serve-loop", true) => serve::trace(&p),
        (w, false) => inproc::measure(w, &p),
        (w, true) => inproc::trace(w, &p),
    };
    let cleanup = std::fs::remove_dir_all(&p.work);
    // Fails, harmlessly, while another run still has its directory there.
    let _ = std::fs::remove_dir(WORK_ROOT);
    let m = result?;
    cleanup.map_err(|e| format!("remove {}: {e}", p.work.display()))?;

    for note in &m.notes {
        println!("{note}");
    }
    if a.trace {
        let rows = trace::ledger(&m.spans);
        let wall = trace::wall_ns(&m.spans) as f64;
        for (row, ns) in &rows {
            let share = *ns as f64 * 100.0 / wall;
            println!(
                "ledger {workload} {row} {:.3} ms {share:.2}%",
                *ns as f64 / 1e6
            );
        }
        if let Some(path) = &a.spans {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("open {}: {e}", path.display()))?;
            f.write_all(trace::to_jsonl(workload, &m.spans).as_bytes())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    for problem in &m.problems {
        println!("check failed: {problem}");
    }
    let table: &[(&str, &str, bool)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = m
        .metrics
        .iter()
        .map(|&(name, value)| {
            let unit = table.iter().find(|t| t.0 == name).map_or("", |t| t.1);
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::f64(value)),
                    ("unit".into(), Json::str(unit)),
                ]),
            )
        })
        .collect();
    let correct = m.problems.is_empty();
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::u64(m.attempted.max(1))),
            ("failed".into(), Json::u64(m.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    );
    Ok(correct)
}

/// Runs each selected workload in a child `measure` process, one after
/// another, and prints `<workload> <metric> <value> <unit>` lines.
fn spawn_each(a: &Args, traced: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let workloads: Vec<&str> = if a.workloads.is_empty() {
        WORKLOADS.to_vec()
    } else {
        a.workloads.iter().map(String::as_str).collect()
    };
    let seed = a.seed.unwrap_or(DEFAULT_SEED);
    if let Some(spans) = &a.spans {
        std::fs::write(spans, "").map_err(|e| format!("create {}: {e}", spans.display()))?;
    }
    let mut all_ok = true;
    for w in workloads {
        let started_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let mut cmd = Command::new(&exe);
        cmd.args(["measure", "--workload", w, "--seed", &seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if let Some(s) = a.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if let Some(spans) = &a.spans {
            cmd.arg("--spans").arg(spans);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut last = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("read {w} output: {e}"))?;
            if !last.is_empty() {
                // Notes and the ledger; a traced run's ledger is its result.
                if traced {
                    println!("{last}");
                } else {
                    eprintln!("{last}");
                }
            }
            last = line;
        }
        let status = child.wait().map_err(|e| format!("wait for {w}: {e}"))?;
        let result =
            Json::parse(&last).map_err(|e| format!("{w}: no result line ({e}): {last}"))?;
        let correct = result.get("correct") == Some(&Json::Bool(true));
        all_ok &= correct && status.success();
        if !correct {
            eprintln!("{w}: checks failed");
        }
        let metrics = result.get("metrics").cloned().unwrap_or(Json::Null);
        if let Json::Obj(fields) = &metrics {
            for (name, m) in fields {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{w} {name} {value} {unit}");
            }
        }
        if let Some(out) = &a.out {
            append_result(out, w, seed, started_ms, &result)?;
        }
    }
    Ok(all_ok)
}

/// Appends one workload's result to a JSONL results file, the input of
/// `compare`.
fn append_result(
    path: &Path,
    workload: &str,
    seed: u64,
    started_ms: u64,
    result: &Json,
) -> Result<(), String> {
    let mut fields = vec![
        ("workload".to_string(), Json::str(workload)),
        ("seed".into(), Json::u64(seed)),
        ("started_ms".into(), Json::u64(started_ms)),
    ];
    if let Json::Obj(rest) = result {
        fields.extend(rest.iter().cloned());
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(f, "{}", Json::Obj(fields)).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names the same metrics, units and directions as
    /// the tables the program prints from.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let bench = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = bench.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (m, &(name, unit, higher)) in listed.iter().zip(table) {
                assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
                let better = if higher { "higher" } else { "lower" };
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(better),
                    "{name}"
                );
            }
        }
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let digests = Json::parse(include_str!("../digests.json")).unwrap();
        for w in WORKLOADS {
            assert!(digests.get(w).and_then(Json::as_str).is_some(), "{w}");
        }
    }

    #[test]
    fn budget_stops_before_the_longest_repetition_would_overrun() {
        assert!(Budget::new(10.0).another_fits());
        let mut b = Budget::new(0.05);
        b.time(|| std::thread::sleep(std::time::Duration::from_millis(30)));
        // 30 ms gone and another 30 ms repetition would end past 50 ms.
        assert!(!b.another_fits());
    }

    #[test]
    fn digest_skips_the_header_line() {
        assert_eq!(body(b"header one\nx\ny\n"), body(b"other\nx\ny\n"));
        assert_eq!(body(b"header only\n"), b"");
        assert_eq!(body(b"torn header"), b"");
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }
}
