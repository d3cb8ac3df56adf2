//! # fiq-bench — the experiment harness
//!
//! Shared machinery for the experiment binaries that regenerate every
//! table and figure of the paper (see DESIGN.md §6 for the index):
//!
//! | target | paper artifact |
//! |---|---|
//! | `cargo run --release -p fiq-bench --bin tables` | Tables I–III (descriptive) |
//! | `cargo run --release -p fiq-bench --bin table4` | Table IV (dynamic counts) |
//! | `cargo run --release -p fiq-bench --bin fig3` | Figure 3 (aggregate outcome breakdown) |
//! | `cargo run --release -p fiq-bench --bin fig4` | Figure 4 (SDC% per category, 95% CI) |
//! | `cargo run --release -p fiq-bench --bin table5` | Table V (crash% per category) |
//! | `cargo run --release -p fiq-bench --bin ablation` | DESIGN.md ✦ ablations (beyond the paper) |
//!
//! All binaries accept `--injections N` (default 300), `--seed S`,
//! `--threads T`, `--full` (paper-scale 1000 injections), and
//! `--json PATH` (machine-readable results).

#![warn(missing_docs)]

use fiq_asm::MachOptions;
use fiq_backend::LowerOptions;
use fiq_core::json::Json;
use fiq_core::{
    profile_llfi, profile_pinfi, run_campaign, CampaignConfig, Category, CellReport, CellSpec,
    EngineOptions, LlfiProfile, PinfiOptions, PinfiProfile, Progress, Substrate,
};
use fiq_interp::InterpOptions;
use fiq_workloads::{Compiled, Workload, CATALOG};
use std::sync::Mutex;
use std::time::Instant;

/// Experiment configuration, parsed from command-line flags.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Injections per (benchmark, category, tool) cell.
    pub injections: u32,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Backend options (ablations override these).
    pub lower: LowerOptions,
    /// PINFI heuristic options.
    pub pinfi: PinfiOptions,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig {
            injections: 300,
            seed: 2014,
            threads: 0,
            json: None,
            lower: LowerOptions::default(),
            pinfi: PinfiOptions::default(),
        }
    }
}

impl ExperimentConfig {
    /// Parses flags from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn from_args() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--injections" => {
                    cfg.injections = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--injections N");
                }
                "--seed" => {
                    cfg.seed = args.next().and_then(|v| v.parse().ok()).expect("--seed S");
                }
                "--threads" => {
                    cfg.threads = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--threads T");
                }
                "--full" => cfg.injections = 1000,
                "--json" => cfg.json = Some(args.next().expect("--json PATH")),
                "--no-fold-gep" => cfg.lower.fold_gep = false,
                "--no-callee-saved" => cfg.lower.use_callee_saved = false,
                "--no-flag-pruning" => cfg.pinfi.flag_pruning = false,
                "--no-xmm-pruning" => cfg.pinfi.xmm_pruning = false,
                other => panic!("unknown flag {other}; see crate docs for usage"),
            }
        }
        cfg
    }

    /// The campaign configuration equivalent.
    pub fn campaign(&self) -> CampaignConfig {
        CampaignConfig {
            injections: self.injections,
            seed: self.seed,
            threads: self.threads,
            pinfi: self.pinfi,
            ..CampaignConfig::default()
        }
    }
}

/// A workload compiled and profiled at both levels.
pub struct Prepared {
    /// The workload.
    pub workload: &'static Workload,
    /// Compiled module + program.
    pub compiled: Compiled,
    /// IR-level profile.
    pub llfi: LlfiProfile,
    /// Assembly-level profile.
    pub pinfi: PinfiProfile,
}

/// Compiles and profiles the whole catalog.
///
/// # Panics
///
/// Panics if a workload fails to compile or its golden run fails — both
/// are bugs, not runtime conditions.
pub fn prepare_all(lower: LowerOptions) -> Vec<Prepared> {
    CATALOG
        .iter()
        .map(|w| {
            let compiled = w
                .compile_with(lower)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let llfi = profile_llfi(&compiled.module, InterpOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let pinfi = profile_pinfi(&compiled.program, MachOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(
                llfi.golden_output, pinfi.golden_output,
                "{}: golden outputs must agree",
                w.name
            );
            Prepared {
                workload: w,
                compiled,
                llfi,
                pinfi,
            }
        })
        .collect()
}

/// One cell of the campaign grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Benchmark name.
    pub bench: String,
    /// `"llfi"` or `"pinfi"`.
    pub tool: String,
    /// Instruction category.
    pub category: Category,
    /// Campaign results.
    pub report: CellReport,
}

/// Runs the full (benchmark × category × tool) grid as a single
/// multi-cell campaign on the shared work-stealing engine, so the pool
/// stays saturated across cell boundaries instead of draining at the
/// end of every cell.
///
/// # Panics
///
/// Panics if the engine reports a worker failure — a bug, not a runtime
/// condition, for the bundled workloads.
pub fn run_grid(prepared: &[Prepared], cats: &[Category], cfg: &ExperimentConfig) -> Vec<GridCell> {
    let camp = cfg.campaign();
    let mut cells = Vec::new();
    for p in prepared {
        for &cat in cats {
            cells.push(CellSpec {
                label: p.workload.name.to_string(),
                category: cat,
                substrate: Substrate::Llfi {
                    module: &p.compiled.module,
                    profile: &p.llfi,
                },
                snapshots: None,
            });
            cells.push(CellSpec {
                label: p.workload.name.to_string(),
                category: cat,
                substrate: Substrate::Pinfi {
                    prog: &p.compiled.program,
                    profile: &p.pinfi,
                },
                snapshots: None,
            });
        }
    }
    let started = Instant::now();
    let last_print = Mutex::new(started);
    let progress = |p: Progress| {
        let mut last = last_print.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        if p.completed != p.total && now.duration_since(*last).as_millis() < 1000 {
            return;
        }
        *last = now;
        let secs = started.elapsed().as_secs_f64();
        let rate = if secs > 0.0 {
            p.completed as f64 / secs
        } else {
            0.0
        };
        eprintln!(
            "  grid: {}/{} injections ({rate:.0}/s)",
            p.completed, p.total
        );
    };
    let opts = EngineOptions {
        progress: Some(&progress),
        ..EngineOptions::default()
    };
    let run = run_campaign(&cells, &camp, &opts).expect("campaign engine run succeeds");
    cells
        .iter()
        .zip(run.cells)
        .map(|(spec, report)| GridCell {
            bench: spec.label.clone(),
            tool: spec.substrate.tool().to_string(),
            category: spec.category,
            report,
        })
        .collect()
}

/// Finds a cell in a grid.
pub fn cell<'a>(grid: &'a [GridCell], bench: &str, tool: &str, cat: Category) -> &'a GridCell {
    grid.iter()
        .find(|c| c.bench == bench && c.tool == tool && c.category == cat)
        .expect("cell present")
}

/// The machine-readable form of a grid (one object per cell).
pub fn grid_json(grid: &[GridCell]) -> Json {
    Json::Arr(
        grid.iter()
            .map(|c| {
                let counts = Json::Obj(vec![
                    ("benign".into(), Json::u64(c.report.counts.benign)),
                    ("sdc".into(), Json::u64(c.report.counts.sdc)),
                    ("crash".into(), Json::u64(c.report.counts.crash)),
                    ("hang".into(), Json::u64(c.report.counts.hang)),
                    (
                        "not_activated".into(),
                        Json::u64(c.report.counts.not_activated),
                    ),
                ]);
                let report = Json::Obj(vec![
                    ("counts".into(), counts),
                    ("requested".into(), Json::u64(u64::from(c.report.requested))),
                    ("planned".into(), Json::u64(u64::from(c.report.planned))),
                    ("executed".into(), Json::u64(u64::from(c.report.executed))),
                    (
                        "dynamic_population".into(),
                        Json::u64(c.report.dynamic_population),
                    ),
                ]);
                Json::Obj(vec![
                    ("bench".into(), Json::str(c.bench.clone())),
                    ("tool".into(), Json::str(c.tool.clone())),
                    ("category".into(), Json::str(c.category.name())),
                    ("report".into(), report),
                ])
            })
            .collect(),
    )
}

/// Writes the grid as JSON if the config asks for it.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn maybe_write_json(cfg: &ExperimentConfig, grid: &[GridCell]) {
    if let Some(path) = &cfg.json {
        std::fs::write(path, grid_json(grid).to_string()).expect("write json");
        eprintln!("wrote {path}");
    }
}

/// Renders a horizontal ASCII bar of width proportional to `pct` (0-100).
pub fn bar(pct: f64, width: usize) -> String {
    let filled = ((pct / 100.0) * width as f64).round() as usize;
    let mut s = String::new();
    for _ in 0..filled.min(width) {
        s.push('█');
    }
    for _ in filled.min(width)..width {
        s.push('·');
    }
    s
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
        assert_eq!(c.injections, 300);
        assert!(c.lower.fold_gep);
        assert!(c.pinfi.flag_pruning);
    }
}
