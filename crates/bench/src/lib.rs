//! # fiq-bench — the experiment harness
//!
//! Shared machinery for the experiment binaries that regenerate every
//! table and figure of the paper (see DESIGN.md §6 for the index):
//!
//! | target | paper artifact |
//! |---|---|
//! | `cargo run --release -p fiq-bench --bin tables` | Tables I–III (descriptive) |
//! | `cargo run --release -p fiq-bench --bin table4` | Table IV (dynamic counts) |
//! | `cargo run --release -p fiq-bench --bin paper` | Figure 3, Figure 4 and Table V, from one grid run |
//! | `cargo run --release -p fiq-bench --bin ablation` | DESIGN.md ✦ ablations (beyond the paper) |
//! | `cargo run --release -p fiq-bench --bin calibration` | §VII calibration heuristics (beyond the paper) |
//!
//! All binaries accept `--injections N` (default 300), `--seed S`
//! (default 2014), `--threads T` and `--full` (paper-scale 1000
//! injections). `paper` writes into `--out DIR` (default `results`):
//! the grid's record stream `grid-seed<S>-n<N>.jsonl`, which
//! `fiq report [--json]` reads, and the renders `fig3.txt`, `fig4.txt`
//! and `table5.txt`.

#![warn(missing_docs)]

use fiq_asm::AsmProgram;
use fiq_core::json::Json;
use fiq_core::{
    run_campaign, wilson_ci95, CampaignConfig, CampaignReport, Category, CellSpec, Collapse,
    EngineOptions, LlfiProfile, OutcomeCounts, PinfiProfile, Progress, Substrate,
};
use fiq_ir::Module;
use fiq_serve::{Preparations, Prepared, Submission};
use fiq_workloads::Workload;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Experiment configuration, parsed from command-line flags.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Injections per (benchmark, category, tool) cell.
    pub injections: u32,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Directory `paper` writes its record stream and renders into.
    pub out: PathBuf,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig {
            injections: 300,
            seed: 2014,
            threads: 0,
            out: PathBuf::from("results"),
        }
    }
}

/// The flags every experiment binary accepts.
const USAGE: &str = "[--injections N] [--seed S] [--threads T] [--full] [--out DIR]";

impl ExperimentConfig {
    /// Parses flags (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a one-line message for an unknown flag, a missing value or
    /// a value that does not parse.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<ExperimentConfig, String> {
        fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
            let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not a valid value"))
        }
        let mut cfg = ExperimentConfig::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--injections" => cfg.injections = value(&a, args.next())?,
                "--seed" => cfg.seed = value(&a, args.next())?,
                "--threads" => cfg.threads = value(&a, args.next())?,
                "--full" => cfg.injections = 1000,
                "--out" => cfg.out = value(&a, args.next())?,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(cfg)
    }

    /// Parses `std::env::args`; on an error prints it with the usage and
    /// exits with status 2.
    pub fn from_env() -> ExperimentConfig {
        ExperimentConfig::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            let bin = std::env::args().next().unwrap_or_default();
            eprintln!("{e}\nusage: {bin} {USAGE}");
            std::process::exit(2)
        })
    }

    /// The campaign configuration equivalent.
    pub fn campaign(&self) -> CampaignConfig {
        CampaignConfig {
            injections: self.injections,
            seed: self.seed,
            threads: self.threads,
            ..CampaignConfig::default()
        }
    }
}

/// The campaign spec `fiq campaign` would build for one workload and
/// category under `cfg`.
fn submission(
    w: &Workload,
    category: Category,
    cfg: &ExperimentConfig,
    fast_forward: bool,
) -> Submission {
    Submission {
        name: w.name.to_string(),
        source: w.source.to_string(),
        category,
        injections: cfg.injections,
        seed: cfg.seed,
        threads: cfg.threads,
        shards: 1,
        priority: 0,
        collapse: Collapse::Sampled,
        divergence: false,
        fast_forward,
    }
}

/// Compiles and profiles a workload at both levels through the product's
/// preparation, without checkpoints.
///
/// # Errors
///
/// Returns the compile or golden-run failure.
pub fn prepare(w: &Workload, cfg: &ExperimentConfig) -> Result<Prepared, String> {
    fiq_serve::prepare(&submission(w, Category::All, cfg, false))
}

/// The module, program and both golden profiles a prepared pair of cells
/// borrows.
pub fn levels<'a>(
    cells: &[CellSpec<'a>],
) -> (
    &'a Module,
    &'a LlfiProfile,
    &'a AsmProgram,
    &'a PinfiProfile,
) {
    match (&cells[0].substrate, &cells[1].substrate) {
        (&Substrate::Llfi { module, profile: l }, &Substrate::Pinfi { prog, profile: p }) => {
            (module, l, prog, p)
        }
        _ => unreachable!("Prepared::cells() is one LLFI cell, then one PINFI cell"),
    }
}

/// What one [`paper`] run did.
pub struct Paper {
    /// The grid's record stream.
    pub records: PathBuf,
    /// The report every render reads, built from [`Paper::records`].
    pub report: CampaignReport,
    /// Tasks in the grid.
    pub total_tasks: usize,
    /// Tasks the record stream already held, so this run skipped them.
    pub resumed_tasks: usize,
    /// Artifact sets built and reused (`Preparations::to_json`).
    pub preparations: Json,
}

/// The paper grid: `workloads` × [`Category::ALL`] × {LLFI, PINFI}, run
/// once as one fast-forwarded campaign into
/// `<out>/grid-seed<S>-n<N>.jsonl`, then Fig 3, Fig 4 and Table V
/// rendered from those records into `<out>/fig3.txt`, `fig4.txt` and
/// `table5.txt`. Each workload is prepared once and its artifacts
/// reused across the five categories. The run resumes an existing record
/// stream, so on a complete one it executes no task and only renders.
///
/// # Errors
///
/// Returns a preparation, engine, record-stream or file-system failure.
pub fn paper(workloads: &[&Workload], cfg: &ExperimentConfig) -> Result<Paper, String> {
    let preparations = Preparations::default();
    let prepared = workloads
        .iter()
        .flat_map(|w| Category::ALL.map(|c| submission(w, c, cfg, true)))
        .map(|sub| preparations.prepare(&sub))
        .collect::<Result<Vec<_>, _>>()?;
    let first = prepared.first().ok_or("the grid has no workloads")?;
    let cells: Vec<CellSpec<'_>> = prepared.iter().flat_map(Prepared::cells).collect();
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("create {}: {e}", cfg.out.display()))?;
    let records = cfg
        .out
        .join(format!("grid-seed{}-n{}.jsonl", cfg.seed, cfg.injections));
    let progress = |p: Progress| {
        if p.completed.is_multiple_of(1000) {
            eprintln!("  grid: {}/{} injections", p.completed, p.total);
        }
    };
    let opts = EngineOptions {
        records: Some(&records),
        resume: true,
        fast_forward: first.fast_forward,
        early_exit: first.early_exit,
        progress: Some(&progress),
        ..EngineOptions::default()
    };
    let run = run_campaign(&cells, &first.cfg, &opts)?;
    let report = CampaignReport::build(&records, None, None)?;
    for (name, render) in [
        ("fig3.txt", fig3 as fn(&_) -> _),
        ("fig4.txt", fig4),
        ("table5.txt", table5),
    ] {
        let path = cfg.out.join(name);
        std::fs::write(&path, render(&report))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(Paper {
        records,
        report,
        total_tasks: run.total_tasks,
        resumed_tasks: run.resumed_tasks,
        preparations: preparations.to_json(),
    })
}

/// Appends one formatted line to a render; writing to a `String` cannot
/// fail.
macro_rules! put {
    ($s:ident) => {
        $s.push('\n')
    };
    ($s:ident, $($fmt:tt)+) => {{
        let _ = writeln!($s, $($fmt)+);
    }};
}

/// The grid's workload labels, in record-header order (the grid is
/// workload-major).
fn benches(report: &CampaignReport) -> Vec<&str> {
    let mut names: Vec<&str> = report.cells.iter().map(|c| c.label.as_str()).collect();
    names.dedup();
    names
}

/// One cell's outcome counts.
///
/// # Panics
///
/// Panics if the grid lacks the cell; a grid holds every combination.
fn counts<'a>(
    report: &'a CampaignReport,
    bench: &str,
    tool: &str,
    cat: Category,
) -> &'a OutcomeCounts {
    let mut cells = report.cells.iter();
    let found = cells.find(|c| c.label == bench && c.tool == tool && c.category == cat.name());
    &found.expect("the grid holds every cell").counts
}

/// Figure 3: aggregated crash / SDC / benign outcomes per benchmark,
/// both tools injecting into the `all` category.
fn fig3(report: &CampaignReport) -> String {
    let mut s = String::new();
    put!(
        s,
        "FIGURE 3: Aggregated fault injection results with LLFI and PINFI \
         ({} injections/cell, seed {})\n",
        report.injections,
        report.seed
    );
    s.push_str(
        "Benchmark    Tool    crash%    sdc%  benign%   hang%   breakdown (crash/sdc/benign)\n",
    );
    let mut sums = [("llfi", 0.0, 0.0), ("pinfi", 0.0, 0.0)];
    for cell in report
        .cells
        .iter()
        .filter(|c| c.category == Category::All.name())
    {
        let c = &cell.counts;
        let (crash, sdc, benign) = (c.crash_pct(), c.sdc_pct(), c.benign_pct());
        put!(
            s,
            "{:<12} {:<6} {crash:>6.1}% {sdc:>6.1}% {benign:>7.1}% {:>6.1}%   |{}|{}|{}|",
            cell.label,
            cell.tool,
            c.hang_pct(),
            bar(crash, 12),
            bar(sdc, 12),
            bar(benign, 12)
        );
        let sum = &mut sums[usize::from(cell.tool != "llfi")];
        sum.1 += crash;
        sum.2 += sdc;
    }
    let n = benches(report).len() as f64;
    put!(s);
    for (tool, crash, sdc) in sums {
        put!(
            s,
            "{:<12} {tool:<6} {:>6.1}% {:>6.1}%",
            "average",
            crash / n,
            sdc / n
        );
    }
    s.push_str("\nPaper: average crash ≈ 30%, average SDC ≈ 10% for both tools;\n");
    s.push_str("SDC percentages close between tools, crash percentages diverge.\n");
    s
}

/// A cell's SDC 95% confidence interval and its Fig 4 column.
fn sdc_ci(c: &OutcomeCounts) -> ((f64, f64), String) {
    let (lo, hi) = wilson_ci95(c.sdc, c.activated());
    (
        (lo, hi),
        format!("{:>5.1}% [{lo:>4.1},{hi:>5.1}]", c.sdc_pct()),
    )
}

/// Figure 4: SDC percentages among activated faults for LLFI vs PINFI,
/// per category, with 95% confidence intervals — subfigures (a)
/// arithmetic, (b) cast, (c) cmp, (d) load, (e) all.
fn fig4(report: &CampaignReport) -> String {
    let mut s = String::new();
    put!(
        s,
        "FIGURE 4: SDC results for LLFI and PINFI ({} injections/cell, seed {})",
        report.injections,
        report.seed
    );
    let (mut total, mut agree) = (0, 0);
    for (sub, cat) in ["(a)", "(b)", "(c)", "(d)", "(e)"]
        .into_iter()
        .zip(Category::ALL)
    {
        put!(s);
        put!(s, "{sub} {cat} instructions");
        s.push_str("    benchmark    LLFI sdc% [95% CI] PINFI sdc% [95% CI]   overlap?\n");
        for bench in benches(report) {
            let l = counts(report, bench, "llfi", cat);
            let r = counts(report, bench, "pinfi", cat);
            // A level without candidates has no rate, so its cell is not
            // compared and not counted in the summary.
            let row = match (l.activated(), r.activated()) {
                (0, 0) => "(no candidates in this category)".to_string(),
                (_, 0) => format!("{} (no PINFI candidates)", sdc_ci(l).1),
                (0, _) => format!("(no LLFI candidates) {}", sdc_ci(r).1),
                _ => {
                    let (((llo, lhi), lcol), ((rlo, rhi), rcol)) = (sdc_ci(l), sdc_ci(r));
                    let overlap = llo <= rhi && rlo <= lhi;
                    total += 1;
                    agree += usize::from(overlap);
                    format!("{lcol} {rcol}   {}", if overlap { "yes ✓" } else { "NO" })
                }
            };
            put!(s, "    {bench:<12} {row}");
        }
    }
    s.push_str("\nPaper finding: the LLFI-vs-PINFI SDC difference is within the\n");
    s.push_str("confidence interval for most benchmark/category combinations.\n");
    put!(
        s,
        "Measured: {agree}/{total} cells with overlapping SDC confidence intervals."
    );
    s
}

/// Table V: crash percentages per benchmark for LLFI and PINFI, per
/// category, and the largest LLFI-vs-PINFI gap in each category.
fn table5(report: &CampaignReport) -> String {
    fn row<S: AsRef<str>>(name: &str, cols: &[S]) -> String {
        let mut line = format!("{name:<12}");
        for pair in cols.chunks(2) {
            let _ = write!(line, " | {:>5} {:>5}", pair[0].as_ref(), pair[1].as_ref());
        }
        line
    }
    let mut s = String::new();
    put!(
        s,
        "TABLE V: Crash percentage of the benchmark programs for LLFI and PINFI \
         ({} injections/cell, seed {})\n",
        report.injections,
        report.seed
    );
    put!(
        s,
        "{}",
        row(
            "",
            &["All", "", "arith", "", "Cast", "", "Cmp", "", "Load", ""]
        )
    );
    put!(s, "{}", row("Programs", &["LLFI", "PINFI"].repeat(5)));
    // Column order: `all` first, then the categories as Fig 4 orders them.
    let columns = [
        Category::All,
        Category::Arithmetic,
        Category::Cast,
        Category::Cmp,
        Category::Load,
    ];
    for bench in benches(report) {
        let cols: Vec<String> = columns
            .iter()
            .flat_map(|&cat| ["llfi", "pinfi"].map(|tool| counts(report, bench, tool, cat)))
            .map(|c| {
                if c.activated() == 0 {
                    "-".to_string()
                } else {
                    format!("{:.0}%", c.crash_pct())
                }
            })
            .collect();
        put!(s, "{}", row(bench, &cols));
    }
    put!(s);
    // Maximum divergence per category, the paper's headline numbers
    // (17% all / 40% arithmetic / 32% cast / 21% load; cmp similar).
    put!(s, "Maximum LLFI-vs-PINFI crash divergence per category:");
    for cat in Category::ALL {
        let mut widest: Option<(f64, &str)> = None;
        for bench in benches(report) {
            let l = counts(report, bench, "llfi", cat);
            let r = counts(report, bench, "pinfi", cat);
            if l.activated() == 0 || r.activated() == 0 {
                continue;
            }
            let d = (l.crash_pct() - r.crash_pct()).abs();
            if widest.is_none_or(|(max, _)| d > max) {
                widest = Some((d, bench));
            }
        }
        match widest {
            Some((max, at)) => put!(s, "  {cat:<11} {max:>5.1} points (at {at})"),
            None => put!(s, "  {cat:<11} no benchmark has candidates at both levels"),
        }
    }
    s.push_str("\nPaper: max differences — 17% (all, ocean), 40% (arithmetic, bzip2),\n");
    s.push_str("32% (cast, hmmer), 21% (load, hmmer); cmp similar for both tools.\n");
    s
}

/// Renders a horizontal ASCII bar of width proportional to `pct` (0-100).
fn bar(pct: f64, width: usize) -> String {
    let filled = (((pct / 100.0) * width as f64).round() as usize).min(width);
    "█".repeat(filled) + &"·".repeat(width - filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(0.0, 4), "····");
        assert_eq!(bar(100.0, 4), "████");
        assert_eq!(bar(50.0, 4), "██··");
    }

    #[test]
    fn default_config() {
        let c = ExperimentConfig::default();
        assert_eq!((c.injections, c.seed, c.threads), (300, 2014, 0));
        assert_eq!(c.out, PathBuf::from("results"));
    }
}
