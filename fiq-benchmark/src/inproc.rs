//! The in-process workloads: `grid-replay`, `grid-checkpointed` and
//! `exact-masky`. Each repetition is one whole campaign — set-up, engine
//! run and report — driven only through the public calls of each layer.

use crate::kernel::{masky_source, splitmix64};
use crate::reference::Reference;
use crate::stats::median;
use crate::trace::{append, ledger, wall_ns, Span, Tracer, CALIBRATE};
use crate::{
    check_digest, fnv1a_bodies, peak_rss_mb, set_engine_counts, Budget, Layers, Measured, Params,
};
use fiq_asm::{AsmProgram, MachOptions};
use fiq_core::{
    analyze_llfi, analyze_pinfi, collapse_llfi, collapse_pinfi, cross_check_llfi,
    cross_check_pinfi, plan_campaign, profile_llfi, profile_llfi_with_snapshots, profile_pinfi,
    profile_pinfi_with_snapshots, run_campaign_shard, CampaignConfig, CampaignReport, CampaignRun,
    Category, CellSpec, Collapse, EngineOptions, LlfiProfile, PinfiOptions, PinfiProfile,
    ShardSpec, SnapshotCache, Substrate,
};
use fiq_interp::InterpOptions;
use fiq_ir::Module;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Loop iterations of the `exact-masky` kernel.
const MASKY_ITERATIONS: u32 = 45;
/// Iterations of the kernel the brute-force cross-check enumerates.
const CROSS_CHECK_ITERATIONS: u32 = 16;
/// Tasks per cell that `grid-checkpointed` re-runs without checkpoints.
const REPLAY_CHECK_TASKS: usize = 8;
/// Worker threads of every campaign: the host's two vCPUs, the default of
/// `fiq campaign` there.
const THREADS: usize = 2;
/// Repetitions every run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// What one workload runs: its programs, cells and engine options.
struct Spec {
    sources: Vec<(String, String)>,
    cats: Vec<Category>,
    injections: u32,
    /// Capture checkpoints and run with fast-forward and early exit.
    checkpoints: bool,
    divergence: bool,
    collapse: Collapse,
}

impl Spec {
    fn new(workload: &str, seed: u64) -> Spec {
        let grid = |injections: u32, checkpoints: bool| Spec {
            sources: fiq_workloads::CATALOG
                .iter()
                .map(|w| (w.name.to_string(), w.source.to_string()))
                .collect(),
            cats: vec![
                Category::Arithmetic,
                Category::Cmp,
                Category::Load,
                Category::All,
            ],
            injections,
            checkpoints,
            divergence: checkpoints,
            collapse: Collapse::Sampled,
        };
        match workload {
            "grid-replay" => grid(6, false),
            "grid-checkpointed" => grid(16, true),
            _ => Spec {
                sources: vec![("masky".into(), masky_source(seed, MASKY_ITERATIONS))],
                cats: vec![Category::Arithmetic],
                injections: 0,
                checkpoints: true,
                divergence: false,
                collapse: Collapse::Exact,
            },
        }
    }

    /// The campaign seed of repetition `r`: the run's seed for the
    /// first, one derived from it for each other, so every repetition of a
    /// sampled workload draws its own plan.
    fn plan_seed(seed: u64, r: usize) -> u64 {
        match r {
            0 => seed,
            _ => splitmix64(&mut (seed ^ ((r as u64) << 32))),
        }
    }

    fn config(&self, seed: u64) -> CampaignConfig {
        CampaignConfig {
            injections: self.injections,
            seed,
            threads: THREADS,
            ..CampaignConfig::default()
        }
    }

    fn options<'a>(&self, files: &'a Files, streams: bool, telemetry: bool) -> EngineOptions<'a> {
        EngineOptions {
            records: streams.then_some(files.records.as_path()),
            divergence: (streams && self.divergence).then_some(files.divergence.as_path()),
            telemetry: telemetry.then_some(files.telemetry.as_path()),
            fast_forward: self.checkpoints,
            early_exit: self.checkpoints,
            collapse: self.collapse,
            ..EngineOptions::default()
        }
    }

    fn report(&self, files: &Files) -> Result<CampaignReport, String> {
        let div = self.divergence.then_some(files.divergence.as_path());
        CampaignReport::build(&files.records, None, div)
    }
}

/// The stream files of one campaign.
struct Files {
    records: PathBuf,
    divergence: PathBuf,
    telemetry: PathBuf,
}

impl Files {
    fn new(dir: &Path, tag: &str) -> Files {
        let f = |s: &str| dir.join(format!("{tag}.{s}.jsonl"));
        Files {
            records: f("records"),
            divergence: f("divergence"),
            telemetry: f("telemetry"),
        }
    }

    /// Bytes of the record and divergence streams.
    fn stream_bytes(&self) -> u64 {
        [&self.records, &self.divergence]
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }
}

/// One program compiled and profiled at both levels.
struct Prog {
    module: Module,
    asm: AsmProgram,
    lp: LlfiProfile,
    pp: PinfiProfile,
    snaps: Option<[Arc<SnapshotCache>; 2]>,
    /// Host seconds of the profiled golden run, `[llfi, pinfi]`.
    golden_s: [f64; 2],
}

fn set_up(tr: &mut Tracer, c: u64, spec: &Spec) -> Result<Vec<Prog>, String> {
    spec.sources
        .iter()
        .map(|(name, src)| {
            let mut module = tr
                .span("frontend.compile", c, |_| fiq_frontend::compile(name, src))
                .map_err(|e| format!("{name}: {e}"))?;
            tr.span("opt.optimize", c, |_| fiq_opt::optimize_module(&mut module));
            let asm = tr
                .span("backend.lower", c, |_| {
                    fiq_backend::lower_module(&module, Default::default())
                })
                .map_err(|e| format!("{name}: {e}"))?;
            let lp = tr.span("profile.golden_llfi", c, |_| {
                profile_llfi(&module, InterpOptions::default())
            })?;
            let gl = tr.last_secs("profile.golden_llfi");
            let pp = tr.span("profile.golden_pinfi", c, |_| {
                profile_pinfi(&asm, MachOptions::default())
            })?;
            let gp = tr.last_secs("profile.golden_pinfi");
            let snaps = match spec.checkpoints {
                true => Some(tr.span("profile.snapshot", c, |_| {
                    snapshots(&module, &asm, &lp, &pp)
                })?),
                false => None,
            };
            Ok(Prog {
                module,
                asm,
                lp,
                pp,
                snaps,
                golden_s: [gl, gp],
            })
        })
        .collect()
}

/// Checkpoints at 64 evenly spaced points of each golden run, the
/// default of `fiq campaign` and `fiq serve`.
fn snapshots(
    module: &Module,
    asm: &AsmProgram,
    lp: &LlfiProfile,
    pp: &PinfiProfile,
) -> Result<[Arc<SnapshotCache>; 2], String> {
    let l_iv = (lp.golden_steps / 64).max(1);
    let p_iv = (pp.golden_steps / 64).max(1);
    let (_, ls) = profile_llfi_with_snapshots(module, InterpOptions::default(), l_iv)?;
    let (_, ps) = profile_pinfi_with_snapshots(asm, MachOptions::default(), p_iv)?;
    Ok([
        Arc::new(SnapshotCache::Llfi(ls)),
        Arc::new(SnapshotCache::Pinfi(ps)),
    ])
}

/// The campaign's cells (program × category × tool) and, per cell, the
/// `(program, tool)` its golden-run cost comes from.
fn cells<'a>(progs: &'a [Prog], spec: &Spec) -> (Vec<CellSpec<'a>>, Vec<(usize, usize)>) {
    let mut cells = Vec::new();
    let mut origin = Vec::new();
    for (pi, (p, (name, _))) in progs.iter().zip(&spec.sources).enumerate() {
        let snap = |i: usize| p.snaps.as_ref().map(|s| Arc::clone(&s[i]));
        for &category in &spec.cats {
            cells.push(CellSpec {
                label: name.clone(),
                category,
                substrate: Substrate::Llfi {
                    module: &p.module,
                    profile: &p.lp,
                },
                snapshots: snap(0),
            });
            cells.push(CellSpec {
                label: name.clone(),
                category,
                substrate: Substrate::Pinfi {
                    prog: &p.asm,
                    profile: &p.pp,
                },
                snapshots: snap(1),
            });
            origin.extend([(pi, 0), (pi, 1)]);
        }
    }
    (cells, origin)
}

fn whole(plan: &fiq_core::CampaignPlan) -> ShardSpec {
    plan.shards(1)[0]
}

/// Checks every cell's outcome counts against its plan.
fn check_counts(run: &CampaignRun, spec: &Spec, problems: &mut Vec<String>) {
    for (i, r) in run.cells.iter().enumerate() {
        let expect = match spec.collapse {
            Collapse::Sampled => u64::from(r.planned),
            Collapse::Exact => r.fault_space,
        };
        if r.executed != r.planned || r.counts.total() != expect {
            problems.push(format!(
                "cell {i}: executed {} of {} planned, outcomes sum to {} (expected {expect})",
                r.executed,
                r.planned,
                r.counts.total()
            ));
        }
    }
}

/// The timings and sizes of one untraced repetition.
struct Rep {
    setup_s: f64,
    campaign_s: f64,
    turnaround_s: f64,
    tasks: u64,
    points: u64,
}

/// Repetition `r`: one whole campaign, from set-up and planning through
/// the engine over the full task range to the report.
fn run_rep(spec: &Spec, p: &Params, r: usize, problems: &mut Vec<String>) -> Result<Rep, String> {
    let mut tr = Tracer::default();
    let c = r as u64;
    let cfg = spec.config(Spec::plan_seed(p.seed, r));
    // The first repetition's streams are kept for the output checks.
    let files = &Files::new(&p.work, if r == 0 { "first" } else { "rep" });
    let run = tr.span("bench.workload", c, |tr| -> Result<_, String> {
        let progs = tr.span("bench.setup", c, |tr| set_up(tr, c, spec))?;
        let (cells, _) = cells(&progs, spec);
        let plan = tr.span("engine.plan", c, |_| {
            plan_campaign(&cells, &cfg, spec.collapse)
        })?;
        let opts = spec.options(files, true, false);
        let run = tr.span("bench.campaign", c, |_| {
            run_campaign_shard(&cells, &cfg, &opts, &plan, whole(&plan))
        })?;
        tr.span("report.build", c, |_| spec.report(files))?;
        Ok(run)
    })?;
    check_counts(&run, spec, problems);
    Ok(Rep {
        setup_s: tr.last_secs("bench.setup") + tr.last_secs("engine.plan"),
        campaign_s: tr.last_secs("bench.campaign"),
        turnaround_s: tr.last_secs("bench.workload"),
        tasks: run.total_tasks as u64,
        points: run.cells.iter().map(|r| r.counts.total()).sum(),
    })
}

/// The untraced measurement: repetitions while another fits in
/// `--seconds`, at least [`MIN_REPS`]. A sampled workload draws a new plan
/// for every repetition, because a plan's cost depends on where its
/// faults land (a fault that is never masked runs to the end, or to the
/// hang budget): the more distinct tasks a run covers, the less its result
/// depends on the seed. Each repetition's host times are scaled to the
/// nominal host speed measured around it (see [`crate::reference`]);
/// set-up time is the median over repetitions, and the other metrics
/// combine all of them.
pub fn measure(workload: &str, p: &Params) -> Result<Measured, String> {
    let spec = Spec::new(workload, p.seed);
    let mut problems = Vec::new();
    let mut reps = Vec::new();
    let mut reference = Reference::new(THREADS);
    reference.sample();
    let mut budget = Budget::new(p.seconds);
    while reps.len() < MIN_REPS || budget.another_fits() {
        let r = reps.len();
        let rep = budget.time(|| {
            let rep = run_rep(&spec, p, r, &mut problems);
            reference.sample();
            rep
        })?;
        reps.push(rep);
    }
    let peak = peak_rss_mb()?;

    let scaled = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> {
        reps.iter()
            .enumerate()
            .map(|(r, rep)| f(rep) * reference.scale(r))
            .collect()
    };
    let total = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).sum::<f64>();
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let (setup, campaign, turnaround) = (
        scaled(&|r| r.setup_s),
        scaled(&|r| r.campaign_s),
        scaled(&|r| r.turnaround_s),
    );
    let n = reps.len() as f64;
    let tasks = total(&|r| r.tasks as f64);
    let metrics = vec![
        ("setup_s", median(&setup)),
        ("campaign_s", sum(&campaign) / n),
        ("tasks_per_s", tasks / sum(&campaign)),
        (
            "points_per_s",
            total(&|r| r.points as f64) / (sum(&setup) + sum(&campaign)),
        ),
        ("turnaround_ms", sum(&turnaround) / n * 1e3),
        ("peak_rss_mb", peak),
    ];
    let round = |v: f64| (v * 1e4).round() / 1e4;
    let mut notes = vec![
        format!(
            "{workload}: {} repetitions on {THREADS} worker threads, {tasks} tasks",
            reps.len(),
        ),
        format!(
            "{workload}: per repetition [setup s, campaign s, host-time scale]: {:?}",
            reps.iter()
                .enumerate()
                .map(|(r, rep)| [rep.setup_s, rep.campaign_s, reference.scale(r)].map(round))
                .collect::<Vec<_>>()
        ),
    ];
    check_outputs(workload, &spec, p, &mut problems, &mut notes)?;
    Ok(Measured {
        attempted: tasks as u64,
        failed: 0,
        problems,
        metrics,
        notes,
        spans: Vec::new(),
    })
}

/// The output checks, run after the timed section.
fn check_outputs(
    workload: &str,
    spec: &Spec,
    p: &Params,
    problems: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let rep = Files::new(&p.work, "first");
    let mut streams = vec![rep.records.clone()];
    if spec.divergence {
        streams.push(rep.divergence.clone());
    }
    check_digest(workload, p, fnv1a_bodies(&streams)?, problems, notes);
    match workload {
        "grid-checkpointed" => check_replay_equivalence(spec, p, &rep, problems),
        "exact-masky" => check_exact_against_brute_force(p.seed, problems),
        _ => Ok(()),
    }
}

/// Re-runs the first tasks of every cell with fast-forward and early exit
/// off; their record lines must equal the checkpointed run's.
fn check_replay_equivalence(
    spec: &Spec,
    p: &Params,
    rep: &Files,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
    };
    let expected = read(&rep.records)?;
    let expected: Vec<&str> = expected.lines().skip(1).collect();
    let cfg = spec.config(p.seed);
    let progs = set_up(&mut Tracer::default(), 0, spec)?;
    let (cells, _) = cells(&progs, spec);
    let plan = plan_campaign(&cells, &cfg, spec.collapse)?;
    let check = Files::new(&p.work, "replay-check");
    let opts = EngineOptions {
        records: Some(&check.records),
        collapse: spec.collapse,
        ..EngineOptions::default()
    };
    let mut lo = 0usize;
    for (ci, &planned) in plan.planned().iter().enumerate() {
        let n = planned as usize;
        let hi = lo + n.min(REPLAY_CHECK_TASKS);
        let shard = ShardSpec {
            index: 0,
            count: 1,
            lo,
            hi,
        };
        run_campaign_shard(&cells, &cfg, &opts, &plan, shard)?;
        let got = read(&check.records)?;
        if !got.lines().skip(1).eq(expected[lo..hi].iter().copied()) {
            problems.push(format!(
                "cell {ci}: records without checkpoints differ from the checkpointed run"
            ));
        }
        lo += n;
    }
    Ok(())
}

/// Cross-checks exact collapse against brute-force enumeration on a small
/// kernel of the same family.
fn check_exact_against_brute_force(seed: u64, problems: &mut Vec<String>) -> Result<(), String> {
    let src = masky_source(seed, CROSS_CHECK_ITERATIONS);
    let mut module = fiq_frontend::compile("masky", &src).map_err(|e| e.to_string())?;
    fiq_opt::optimize_module(&mut module);
    let asm = fiq_backend::lower_module(&module, Default::default()).map_err(|e| e.to_string())?;
    let lp = profile_llfi(&module, InterpOptions::default())?;
    let pp = profile_pinfi(&asm, MachOptions::default())?;
    let cfg = CampaignConfig::default();
    let cat = Category::Arithmetic;
    let checks = [
        (
            "llfi",
            cross_check_llfi(&module, &lp, cat, cfg.hang_budget(lp.golden_steps))?,
        ),
        (
            "pinfi",
            cross_check_pinfi(
                &asm,
                &pp,
                cat,
                PinfiOptions::default(),
                cfg.hang_budget(pp.golden_steps),
            )?,
        ),
    ];
    for (tool, check) in checks {
        if !check.matches() || check.collapsed.total() != check.stats.space() {
            problems.push(format!(
                "{tool}: collapsed {:?} over {} points differs from brute force {:?}",
                check.collapsed,
                check.stats.space(),
                check.brute
            ));
        }
    }
    Ok(())
}

/// Per-cell results of one traced repetition.
struct TracedCell {
    tool: usize,
    /// Host seconds of the cell's profiled golden run.
    golden_s: f64,
    tasks: u64,
    space: u64,
    /// Seconds of the cell's traced engine call.
    exec_s: f64,
    /// Seconds of the cell's engine call without telemetry, with the
    /// streams on and with them off.
    streams_s: [f64; 2],
    files: Files,
}

/// A repetition split into one campaign per cell, with telemetry on and a
/// span around every layer call. A cell's plan does not depend on the
/// other cells, so the split runs the same tasks as the whole grid.
/// Right after each cell's traced engine call, a [`CALIBRATE`] span runs
/// the cell again without telemetry, with the streams on and then off, so
/// both timings meet the host conditions of the traced call.
fn run_traced(
    spec: &Spec,
    seed: u64,
    c: u64,
    work: &Path,
) -> Result<(Vec<TracedCell>, Tracer), String> {
    let mut tr = Tracer::default();
    let cfg = spec.config(seed);
    let calib = Files::new(work, "calibrate");
    let cells = tr.span("bench.workload", c, |tr| -> Result<_, String> {
        let progs = tr.span("bench.setup", c, |tr| set_up(tr, c, spec))?;
        let (cells, origin) = cells(&progs, spec);
        if spec.collapse == Collapse::Exact {
            for p in &progs {
                let (la, pa) = tr.span("collapse.analyze", c, |_| -> Result<_, String> {
                    Ok((
                        analyze_llfi(&p.module, &p.lp)?,
                        analyze_pinfi(&p.asm, &p.pp)?,
                    ))
                })?;
                for &cat in &spec.cats {
                    tr.span("collapse.classify", c, |_| {
                        collapse_llfi(&p.module, &p.lp, cat, &la);
                        collapse_pinfi(&p.asm, &p.pp, cat, cfg.pinfi, &pa);
                    });
                }
            }
        }
        let plans = (0..cells.len())
            .map(|i| {
                tr.span("engine.plan", c, |_| {
                    plan_campaign(&cells[i..=i], &cfg, spec.collapse)
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let traced = tr.span("bench.campaign", c, |tr| {
            (0..cells.len())
                .map(|i| -> Result<TracedCell, String> {
                    let one = &cells[i..=i];
                    let files = Files::new(work, &format!("trace-cell{i}"));
                    let opts = spec.options(&files, true, true);
                    let (prog, tool) = origin[i];
                    let name = ["engine.exec_llfi", "engine.exec_pinfi"][tool];
                    let run = tr.span(name, c, |_| {
                        run_campaign_shard(one, &cfg, &opts, &plans[i], whole(&plans[i]))
                    })?;
                    let [on, off] = tr.span(CALIBRATE, c, |_| -> Result<_, String> {
                        let time = |streams: bool| -> Result<f64, String> {
                            let opts = spec.options(&calib, streams, false);
                            let t = Instant::now();
                            run_campaign_shard(one, &cfg, &opts, &plans[i], whole(&plans[i]))?;
                            Ok(t.elapsed().as_secs_f64())
                        };
                        Ok([time(true)?, time(false)?])
                    })?;
                    Ok(TracedCell {
                        tool,
                        golden_s: progs[prog].golden_s[tool],
                        tasks: u64::from(run.cells[0].executed),
                        space: run.cells[0].fault_space,
                        exec_s: tr.last_secs(name),
                        streams_s: [on, off],
                        files,
                    })
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        tr.span("bench.report", c, |tr| -> Result<(), String> {
            for t in &traced {
                tr.span("report.build", c, |_| spec.report(&t.files))?;
            }
            Ok(())
        })?;
        Ok(traced)
    })?;
    Ok((cells, tr))
}

/// The traced measurement: pairs of an untraced and a traced repetition
/// of the same campaign while another pair fits in `--seconds` (at least
/// one pair). Layer times are those of the fastest traced repetition,
/// whose ledger rows sum to its wall time. The stream cost and the
/// ns-per-step figures take, per cell, the fastest of each of its two
/// calibration timings over all traced repetitions, so both sides of the
/// difference use the same estimator. What telemetry costs is left out:
/// it stays below the noise of back-to-back runs of the same cell.
pub fn trace(workload: &str, p: &Params) -> Result<Measured, String> {
    let spec = Spec::new(workload, p.seed);
    let mut problems = Vec::new();
    let mut untraced_wall = f64::INFINITY;
    // Wall seconds, layer times and cells of the fastest traced repetition.
    let mut fastest: Option<(f64, Layers, Vec<TracedCell>)> = None;
    // Per cell, the fastest of each of its calibration timings.
    let mut best: Vec<[f64; 2]> = Vec::new();
    let mut spans = Vec::new();
    let mut reps = 0;
    let mut budget = Budget::new(p.seconds);
    while reps == 0 || budget.another_fits() {
        let c = reps;
        reps += 1;
        budget.time(|| -> Result<(), String> {
            untraced_wall = untraced_wall.min(run_rep(&spec, p, 0, &mut problems)?.turnaround_s);
            let (cells, tr) = run_traced(&spec, p.seed, c, &p.work)?;
            best.resize(cells.len(), [f64::INFINITY; 2]);
            for (b, t) in best.iter_mut().zip(&cells) {
                *b = [b[0].min(t.streams_s[0]), b[1].min(t.streams_s[1])];
            }
            let wall = wall_ns(tr.spans()) as f64 / 1e9;
            if fastest.as_ref().is_none_or(|f| wall < f.0) {
                fastest = Some((wall, layer_times(&spec, &cells, tr.spans()), cells));
            }
            append(&mut spans, tr.spans());
            Ok(())
        })?;
    }
    let (traced_wall, mut layers, cells) = fastest.expect("at least one traced repetition");
    let tel = cells
        .iter()
        .map(|t| CampaignReport::build(&t.files.records, Some(&t.files.telemetry), None))
        .collect::<Result<Vec<_>, _>>()?;
    set_engine_counts(&mut layers, tel.iter().flat_map(|t| &t.cells));
    let counter = |t: &CampaignReport, name: &str| t.cells[0].counter(name) as f64;
    for (tool, metric) in [(0, "interp.ns_per_step"), (1, "asm.ns_per_step")] {
        let (mut busy, mut steps) = (0.0, 0.0);
        for ((t, b), report) in cells.iter().zip(&best).zip(&tel) {
            if t.tool == tool {
                busy += b[1] * THREADS as f64;
                steps += counter(report, "steps_executed");
            }
        }
        layers.set(metric, busy * 1e9 / steps);
    }
    layers.set(
        "engine.streams_ms",
        best.iter().map(|[on, off]| on - off).sum::<f64>() * 1e3,
    );
    layers.set(
        "engine.stream_bytes",
        cells.iter().map(|t| t.files.stream_bytes() as f64).sum(),
    );
    if spec.collapse == Collapse::Exact {
        let executed: u64 = cells.iter().map(|t| t.tasks).sum();
        let space: u64 = cells.iter().map(|t| t.space).sum();
        layers.set("collapse.executed_frac", executed as f64 / space as f64);
    }
    layers.set(
        "bench.trace_overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
    );
    Ok(Measured {
        attempted: cells.iter().map(|t| t.tasks).sum::<u64>() * reps,
        failed: 0,
        problems,
        metrics: layers.into_metrics(),
        notes: Vec::new(),
        spans,
    })
}

/// The layer times of one traced repetition.
fn layer_times(spec: &Spec, cells: &[TracedCell], spans: &[Span]) -> Layers {
    let rows = ledger(spans);
    let ms = |name: &str| rows.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let mut l = Layers::default();
    for name in [
        "frontend.compile",
        "opt.optimize",
        "backend.lower",
        "profile.golden_llfi",
        "profile.golden_pinfi",
        "profile.snapshot",
        "collapse.analyze",
        "collapse.classify",
        "engine.exec_llfi",
        "engine.exec_pinfi",
        "report.build",
        "unattributed",
    ] {
        l.set(&format!("{name}_ms"), ms(name));
    }
    // Planning one cell repeats its collapse analysis inside
    // `plan_campaign`; the separately timed analysis is taken out so the
    // row is the engine's own planning.
    let collapse = match spec.collapse {
        Collapse::Exact => ms("collapse.analyze") + ms("collapse.classify"),
        Collapse::Sampled => 0.0,
    };
    l.set("engine.plan_ms", ms("engine.plan") - collapse);
    l.set(
        "bench.unattributed_pct",
        ms("unattributed") * 1e8 / wall_ns(spans) as f64,
    );
    for (tool, metric) in [
        (0, "engine.task_x_golden_llfi"),
        (1, "engine.task_x_golden_pinfi"),
    ] {
        let (mut busy, mut golden_s) = (0.0, 0.0);
        for t in cells.iter().filter(|t| t.tool == tool) {
            busy += t.exec_s * THREADS as f64;
            golden_s += t.tasks as f64 * t.golden_s;
        }
        l.set(metric, busy / golden_s);
    }
    l
}
