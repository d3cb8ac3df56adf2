//! The shared campaign engine: one persistent worker pool that
//! work-steals individual injection runs across every cell of a
//! multi-cell campaign.
//!
//! The seed implementation spun up a fresh `crossbeam::scope` per cell
//! and split that cell's plans into static per-thread chunks, so a slow
//! cell serialized the whole grid behind its slowest chunk. Here the
//! campaign is flattened once into a global task list (one task per
//! injection) and a single pool of workers claims tasks from an atomic
//! cursor — cheap work stealing with no per-cell synchronization.
//!
//! Determinism is preserved by construction:
//!
//! * **Planning is sequential.** Each cell's plans are drawn from
//!   `StdRng::seed_from_u64(cell_seed(master, tool, category))` exactly
//!   as the per-cell runner drew them, before any worker starts.
//! * **Tallying is commutative.** Workers only produce
//!   `(task index, outcome)` pairs; counts are summed per cell after the
//!   pool drains, so thread scheduling cannot change a [`CellReport`].
//! * **Records are flushed in task order.** Completed results pass
//!   through a reorder buffer and are written to the JSONL stream in
//!   global task order, making the record file byte-identical for every
//!   `--threads` value — and, because the file is always a contiguous
//!   prefix of the campaign, a valid resume checkpoint after a kill.
//!
//! Worker errors (and panics) are captured and returned as `Err` from
//! [`run_campaign`] instead of crossing thread boundaries as panics.
//!
//! ## Scheduler/executor split
//!
//! Planning and execution are separate phases with a public seam:
//! [`plan_campaign`] produces a [`CampaignPlan`] (the scheduler half —
//! every cell's task list, drawn sequentially), and
//! [`run_campaign_shard`] executes any contiguous global task range of
//! that plan (the executor half). Record and divergence lines carry
//! *global* task indices, so a shard's stream body is byte-identical to
//! the same lines of a single-process run — concatenating shard spools
//! in shard order reproduces the single-process stream exactly. This is
//! what the `fiq serve` daemon schedules across its worker fleet;
//! [`run_campaign`] is simply "plan, then execute the full range".

use crate::campaign::{cell_seed, CampaignConfig, CellReport};
use crate::category::Category;
use crate::collapse::{
    analyze_llfi, analyze_pinfi, check_classes, collapse_llfi, collapse_pinfi, llfi_space,
    pinfi_space, tally, Collapse, CollapseStats, LlfiAnalysis, PinfiAnalysis,
};
use crate::divergence::{parse_timeline, timeline_line, Timeline, DIVERGENCE_VERSION};
use crate::drive::Checkpoint;
use crate::json::{Fields, Json, ObjWriter};
use crate::llfi::{plan_llfi_from, run_llfi_observed, LlfiInjection};
use crate::outcome::{InjectionRun, Outcome, OutcomeCounts};
use crate::pinfi::{plan_pinfi_from, run_pinfi_observed, PinfiInjection};
use crate::profile::{GoldenRef, LlfiProfile, PinfiProfile};
use crate::telemetry::{
    cell_counter, cell_hist, engine_counter, engine_hist, RunTotals, TaskTel, TelemetryFile,
    HUB_SPEC, TELEMETRY_VERSION,
};
use fiq_asm::{AsmProgram, DecodedProgram, MachOptions, MachSnapshot};
use fiq_interp::{DecodedModule, InterpOptions, InterpSnapshot};
use fiq_ir::Module;
use fiq_telemetry::{TelemetryHub, WorkerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Record-stream format version (bumped on schema changes).
pub const RECORD_VERSION: u64 = 1;

/// Record-stream format version written by exact-collapse campaigns:
/// the header gains `collapse`/per-cell `space` fields and every record
/// carries a `class_size` weight. Sampled campaigns keep writing
/// [`RECORD_VERSION`] byte-identically, and the differing headers make
/// cross-mode resume a refused mismatch instead of a silent miscount.
pub const EXACT_RECORD_VERSION: u64 = 2;

/// Flush the record stream every this many buffered records (plus once
/// after the pool drains). Between flushes a kill can lose at most this
/// many trailing records — which resume already tolerates, because it
/// truncates the file to the longest valid prefix.
const FLUSH_EVERY: usize = 64;

/// The program representation a cell injects into.
pub enum Substrate<'a> {
    /// IR-level injection (the paper's LLFI).
    Llfi {
        /// The module under test.
        module: &'a Module,
        /// Its golden-run profile.
        profile: &'a LlfiProfile,
    },
    /// Assembly-level injection (the paper's PINFI).
    Pinfi {
        /// The compiled program under test.
        prog: &'a AsmProgram,
        /// Its golden-run profile.
        profile: &'a PinfiProfile,
    },
}

impl Substrate<'_> {
    /// The injector name used in seeds, reports, and records.
    pub fn tool(&self) -> &'static str {
        match self {
            Substrate::Llfi { .. } => "llfi",
            Substrate::Pinfi { .. } => "pinfi",
        }
    }
}

/// A cell's immutable snapshot cache, captured once during profiling and
/// shared (`Arc`) read-only across every worker injecting into the cell.
///
/// Snapshots are ordered by capture time, so each per-site count vector
/// is monotonically non-decreasing across the list — which is what lets
/// [`run_campaign`] binary-search for the last snapshot strictly before a
/// planned injection occurrence.
pub enum SnapshotCache {
    /// Snapshots of the IR interpreter's profiling run.
    Llfi(Vec<InterpSnapshot>),
    /// Snapshots of the machine emulator's profiling run.
    Pinfi(Vec<MachSnapshot>),
}

/// One experiment cell: a (program, tool, category) triple.
pub struct CellSpec<'a> {
    /// Human-readable label (workload name) used in records and progress.
    pub label: String,
    /// Instruction category under injection.
    pub category: Category,
    /// Program representation and profile.
    pub substrate: Substrate<'a>,
    /// Profiling-run snapshots, used by checkpointed fast-forward
    /// ([`EngineOptions::fast_forward`]) and by golden-state convergence
    /// detection ([`EngineOptions::early_exit`]). `None` ⇒ every
    /// injection replays the full golden prefix and runs to completion.
    pub snapshots: Option<Arc<SnapshotCache>>,
}

/// Progress snapshot passed to the [`EngineOptions::progress`] callback.
///
/// Emitted after every completed task from worker threads, plus exactly
/// once after the pool drains — so a throttling consumer always receives
/// a final snapshot with `completed == total`, even when the last task
/// lands inside its throttle window (and even when every task was
/// resumed and no worker ran at all).
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Tasks finished so far (including resumed ones).
    pub completed: usize,
    /// Total tasks in the campaign.
    pub total: usize,
    /// Tasks restored from the record file rather than executed.
    pub resumed: usize,
    /// Tasks that restored a pre-injection snapshot so far (live
    /// fast-forward count).
    pub fast_forwarded: usize,
    /// Tasks cut short by golden-state convergence so far (live
    /// early-exit count).
    pub early_exited: usize,
}

/// Engine knobs beyond [`CampaignConfig`]. The default turns every one
/// off: no streams, no resume, full replay, sampled planning.
#[derive(Default)]
pub struct EngineOptions<'a> {
    /// Write one JSONL record per injection to this path.
    pub records: Option<&'a Path>,
    /// Resume from an existing record file at [`EngineOptions::records`]
    /// instead of starting over. Missing file ⇒ fresh start.
    pub resume: bool,
    /// Called after every completed task, from worker threads.
    pub progress: Option<&'a (dyn Fn(Progress) + Sync)>,
    /// Restore the latest profiling snapshot before each injection point
    /// instead of replaying the golden prefix (cells without a
    /// [`CellSpec::snapshots`] cache still replay in full). Campaign
    /// output is bit-identical either way; this only changes wall-clock.
    pub fast_forward: bool,
    /// Stop a faulty run at the first golden checkpoint its state has
    /// provably converged back to, instead of replaying the identical
    /// suffix (cells without a [`CellSpec::snapshots`] cache run in
    /// full). Campaign output — reports *and* record bytes — is
    /// bit-identical either way; this only changes wall-clock. Composes
    /// with [`EngineOptions::fast_forward`].
    pub early_exit: bool,
    /// Write sharded campaign telemetry (counters and histograms) to this
    /// path as JSONL. Telemetry is
    /// observational only: campaign output — reports *and* record
    /// bytes — is byte-identical with telemetry on or off.
    pub telemetry: Option<&'a Path>,
    /// Planning mode. [`Collapse::Sampled`] (the default) draws
    /// `cfg.injections` random points per cell exactly as before —
    /// reports and record bytes are untouched. [`Collapse::Exact`]
    /// enumerates each cell's full dynamic fault space, partitions it
    /// into equivalence classes (dormant / masked / residual, see the
    /// `collapse` module), executes one representative per class, and
    /// weights every outcome by its class size — the resulting
    /// distribution equals brute-force full enumeration with zero
    /// sampling error.
    pub collapse: Collapse,
    /// Write one JSONL divergence timeline per injection to this path:
    /// at every golden checkpoint a faulty run crosses after its fault
    /// is applied, which state components and how many 4 KiB pages
    /// diverge from the golden snapshot (cells without a
    /// [`CellSpec::snapshots`] cache produce empty timelines).
    /// Observation is passive — campaign output, record bytes, and every
    /// telemetry counter shared with non-divergence runs are
    /// byte-identical with this on or off. Composes with
    /// [`EngineOptions::resume`]: both streams are truncated to their
    /// common valid task prefix.
    pub divergence: Option<&'a Path>,
    /// Cooperative cancellation: workers re-check this flag before
    /// claiming each task, and the run fails with an error containing
    /// [`CANCELLED`] once it is raised. Buffered stream writers flush on
    /// the way out, so the record/telemetry/divergence files are left as
    /// a clean resumable prefix — this is how the serve daemon "kills" a
    /// shard mid-run (crash-only recovery re-queues it with `resume`).
    pub cancel: Option<&'a AtomicBool>,
}

/// Error message fragment of a run stopped through
/// [`EngineOptions::cancel`]. Callers (the serve daemon's crash-only
/// shard recovery) match on this to tell a deliberate cancel — spool
/// files left as a resumable prefix — from a real worker failure.
pub const CANCELLED: &str = "campaign cancelled";

/// A cell's shared pre-decoded program, built once before the pool
/// starts so workers never decode (or contend on decoding) per task.
enum DecodedCell {
    Llfi(Arc<DecodedModule>),
    Pinfi(Arc<DecodedProgram>),
}

/// The result of a full engine run.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// One report per input cell, in input order.
    pub cells: Vec<CellReport>,
    /// Total injection tasks in the campaign.
    pub total_tasks: usize,
    /// Tasks restored from the record file instead of re-executed.
    pub resumed_tasks: usize,
    /// Tasks cut short by golden-state convergence detection (always 0
    /// when [`EngineOptions::early_exit`] is off; resumed tasks are not
    /// counted). Observability only — outcomes and records are identical
    /// to full runs.
    pub early_exited_tasks: usize,
    /// Tasks that restored a pre-injection snapshot instead of replaying
    /// the golden prefix (always 0 when [`EngineOptions::fast_forward`]
    /// is off; resumed tasks are not counted). Observability only.
    pub fast_forwarded_tasks: usize,
}

/// A planned injection, either level.
#[derive(Debug, Clone, Copy)]
enum Plan {
    Llfi(LlfiInjection),
    Pinfi(PinfiInjection),
}

/// One unit of work: a single injection run. `injection` is the index
/// within the cell, kept as u64 so the record field can never silently
/// truncate an oversized plan.
struct Task {
    cell: usize,
    injection: u64,
    plan: Plan,
    /// Fault-space points this task stands for: 1 in sampled campaigns,
    /// the equivalence-class size under exact collapse.
    class_size: u64,
}

struct TaskResult {
    outcome: Outcome,
    steps: u64,
    early_exit: bool,
    fast_forwarded: bool,
    /// Divergence timeline; `Some` exactly when the engine runs with
    /// [`EngineOptions::divergence`] (empty for cells without snapshots).
    timeline: Option<Timeline>,
}

/// Reorder buffer + record/divergence writers; guarded by one mutex.
struct Sink {
    outcomes: Vec<Option<Outcome>>,
    pending: BTreeMap<usize, TaskResult>,
    next_flush: usize,
    writer: Option<BufWriter<File>>,
    /// Records written since the last explicit flush.
    unflushed: usize,
    /// Divergence-timeline stream, advancing in lockstep with the record
    /// stream (same task order, same reorder buffer).
    div_writer: Option<BufWriter<File>>,
    /// Timeline lines written since the divergence stream's last
    /// explicit flush (tracked separately so the record stream's flush
    /// telemetry stays byte-identical with divergence on or off).
    div_unflushed: usize,
    /// Scratch buffer each record and timeline line is rendered into.
    line: String,
}

struct Shared<'a, 't> {
    cells: &'a [CellSpec<'a>],
    tasks: &'t [Task],
    budgets: &'t [u64],
    decoded: &'t [DecodedCell],
    collapse: Collapse,
    /// First global task index of the range this run executes.
    lo: usize,
    /// Past-the-end global task index of the range.
    hi: usize,
    next: AtomicUsize,
    completed: AtomicUsize,
    early_exited: AtomicUsize,
    fast_forwarded: AtomicUsize,
    stop: AtomicBool,
    cancel: Option<&'a AtomicBool>,
    sink: Mutex<Sink>,
    error: Mutex<Option<String>>,
    progress: Option<&'a (dyn Fn(Progress) + Sync)>,
    resumed: usize,
    fast_forward: bool,
    early_exit: bool,
    divergence: bool,
    tel: Option<&'t TelemetryHub>,
}

fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A contiguous range of a planned campaign's global task list — the
/// unit of work the serve daemon schedules across its worker fleet.
///
/// `lo..hi` are *global* task indices into the [`CampaignPlan`], so the
/// record and divergence lines a shard writes are byte-identical to the
/// same lines of a single-process run; concatenating shard spool bodies
/// in shard order reproduces the single-process stream exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard ordinal within the campaign, `0..count`.
    pub index: usize,
    /// Total shards the campaign was split into.
    pub count: usize,
    /// First global task index (inclusive).
    pub lo: usize,
    /// Past-the-end global task index.
    pub hi: usize,
}

/// The scheduler half of the engine: every cell's injection plan, drawn
/// sequentially up front exactly as the single-process engine draws it.
///
/// A plan is immutable and borrows nothing, so a daemon can compute it
/// once per campaign and hand ranges of it ([`CampaignPlan::shards`]) to
/// executors ([`run_campaign_shard`]) as workers free up. The plan also
/// owns the campaign's stream headers, which carry the shard identity
/// for shard spools — resuming a spool under the wrong shard range is a
/// refused header mismatch, not a silent miscount.
pub struct CampaignPlan {
    tasks: Vec<Task>,
    budgets: Vec<u64>,
    planned: Vec<u32>,
    populations: Vec<u64>,
    spaces: Vec<Option<CollapseStats>>,
    collapse: Collapse,
}

impl CampaignPlan {
    /// Total injection tasks across every cell.
    pub fn total_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The planning mode this plan was drawn under.
    pub fn collapse(&self) -> Collapse {
        self.collapse
    }

    /// Planned injections per cell, in cell order.
    pub fn planned(&self) -> &[u32] {
        &self.planned
    }

    /// Splits the plan into `count` contiguous shards of near-equal
    /// size (the first `total % count` shards are one task larger).
    /// Always returns exactly `count` shards; trailing ones are empty
    /// when the plan has fewer tasks than shards, and an empty shard
    /// executes trivially (header-only spool), keeping the merge
    /// protocol uniform.
    pub fn shards(&self, count: usize) -> Vec<ShardSpec> {
        let count = count.max(1);
        let total = self.tasks.len();
        let (base, extra) = (total / count, total % count);
        let mut lo = 0;
        (0..count)
            .map(|index| {
                let hi = lo + base + usize::from(index < extra);
                let s = ShardSpec {
                    index,
                    count,
                    lo,
                    hi,
                };
                lo = hi;
                s
            })
            .collect()
    }

    /// The record-stream header for this plan: the campaign header when
    /// `shard` is `None`, the shard-annotated spool header otherwise.
    pub fn record_header(
        &self,
        cells: &[CellSpec<'_>],
        cfg: &CampaignConfig,
        shard: Option<ShardSpec>,
    ) -> String {
        let (version, exact) = match self.collapse {
            Collapse::Sampled => (RECORD_VERSION, false),
            Collapse::Exact => (EXACT_RECORD_VERSION, true),
        };
        self.header(cells, cfg, ("campaign", version), exact, None, shard)
    }

    /// The divergence-stream header for this plan (see
    /// [`CampaignPlan::record_header`]).
    pub fn divergence_header(
        &self,
        cells: &[CellSpec<'_>],
        cfg: &CampaignConfig,
        shard: Option<ShardSpec>,
    ) -> String {
        let kind = ("divergence", DIVERGENCE_VERSION);
        self.header(cells, cfg, kind, false, None, shard)
    }

    /// The telemetry-stream header for this plan (see
    /// [`CampaignPlan::record_header`]), which also carries the worker
    /// count.
    pub fn telemetry_header(
        &self,
        cells: &[CellSpec<'_>],
        cfg: &CampaignConfig,
        workers: usize,
        shard: Option<ShardSpec>,
    ) -> String {
        let kind = ("telemetry", TELEMETRY_VERSION);
        self.header(cells, cfg, kind, false, Some(workers), shard)
    }

    /// A stream header line: the stream's record kind and version, then
    /// the campaign identity (seed, injections, hang factor, cells) that
    /// resume and the shard merge check a file against, then the shard
    /// identity of a spool. `exact` adds the `collapse` field and each
    /// cell's fault-space size (exact-mode records: the header difference
    /// is what blocks cross-mode resume); sampled record headers keep the
    /// version-1 layout byte for byte.
    fn header(
        &self,
        cells: &[CellSpec<'_>],
        cfg: &CampaignConfig,
        (record, version): (&str, u64),
        exact: bool,
        workers: Option<usize>,
        shard: Option<ShardSpec>,
    ) -> String {
        let cell_objs = cells
            .iter()
            .zip(self.planned.iter().zip(&self.spaces))
            .map(|(c, (&p, stats))| {
                let mut fields = vec![
                    ("label".into(), Json::str(c.label.clone())),
                    ("tool".into(), Json::str(c.substrate.tool())),
                    ("category".into(), Json::str(c.category.name())),
                    ("planned".into(), Json::u64(u64::from(p))),
                ];
                if let Some(s) = stats.as_ref().filter(|_| exact) {
                    fields.push(("space".into(), Json::u64(s.space())));
                }
                Json::Obj(fields)
            })
            .collect();
        let mut fields = vec![
            ("record".into(), Json::str(record)),
            ("version".into(), Json::u64(version)),
        ];
        if exact {
            fields.push(("collapse".into(), Json::str("exact")));
        }
        fields.extend([
            ("seed".into(), Json::u64(cfg.seed)),
            ("injections".into(), Json::u64(u64::from(cfg.injections))),
            ("hang_factor".into(), Json::u64(cfg.hang_factor)),
        ]);
        if let Some(w) = workers {
            fields.push(("workers".into(), Json::u64(w as u64)));
        }
        fields.push(("cells".into(), Json::Arr(cell_objs)));
        if let Some(sh) = shard {
            fields.extend([
                ("shard".into(), Json::u64(sh.index as u64)),
                ("shards".into(), Json::u64(sh.count as u64)),
                ("task_lo".into(), Json::u64(sh.lo as u64)),
                ("task_hi".into(), Json::u64(sh.hi as u64)),
            ]);
        }
        Json::Obj(fields).to_string()
    }
}

/// Runs a multi-cell campaign on the shared worker pool.
///
/// Returns one [`CellReport`] per cell, bit-identical to running each
/// cell through the sequential per-cell planner/runner, for any thread
/// count. Equivalent to [`plan_campaign`] followed by executing the
/// full task range.
///
/// # Errors
///
/// Returns an error when a worker fails (interpreter/machine setup
/// error or panic), or when the record file cannot be written or does
/// not match the campaign being resumed.
pub fn run_campaign(
    cells: &[CellSpec<'_>],
    cfg: &CampaignConfig,
    opts: &EngineOptions<'_>,
) -> Result<CampaignRun, String> {
    let plan = plan_campaign(cells, cfg, opts.collapse)?;
    run_planned(cells, cfg, opts, &plan, None)
}

/// Executes one contiguous task range of a planned campaign — the
/// executor half of the scheduler/executor split.
///
/// `cells` and `cfg` must be the ones the plan was drawn from. The
/// shard's streams ([`EngineOptions::records`] and friends) are spool
/// files whose headers carry the shard identity; resume reconciliation
/// works per shard exactly as it does for whole campaigns, which is what
/// makes crash-only shard recovery a re-queue with `resume` set. The
/// returned [`CampaignRun`] covers only this shard's range (per-cell
/// `planned`/populations stay campaign-wide; `executed` and counts are
/// shard-local).
///
/// # Errors
///
/// Everything [`run_campaign`] can return, plus a mismatched
/// `opts.collapse`, an out-of-range shard, or cancellation through
/// [`EngineOptions::cancel`] (an error containing [`CANCELLED`]).
pub fn run_campaign_shard(
    cells: &[CellSpec<'_>],
    cfg: &CampaignConfig,
    opts: &EngineOptions<'_>,
    plan: &CampaignPlan,
    shard: ShardSpec,
) -> Result<CampaignRun, String> {
    if opts.collapse != plan.collapse {
        return Err("shard options disagree with the plan's collapse mode".into());
    }
    if shard.lo > shard.hi || shard.hi > plan.tasks.len() || shard.index >= shard.count {
        return Err(format!(
            "invalid shard {}/{} covering tasks {}..{} of {}",
            shard.index,
            shard.count,
            shard.lo,
            shard.hi,
            plan.tasks.len()
        ));
    }
    run_planned(cells, cfg, opts, plan, Some(shard))
}

/// Plans every cell of a campaign sequentially (determinism lives
/// here): per-cell RNG streams, collapse analysis, budgets, and
/// populations — everything execution needs except the substrate
/// decode, which depends on per-run [`EngineOptions`].
///
/// # Errors
///
/// Returns an error when collapse analysis fails, an exact cell has
/// more classes than [`crate::MAX_EXACT_INSTANCES`], or a cell's plan
/// exceeds the record format's per-cell u32 limit.
pub fn plan_campaign(
    cells: &[CellSpec<'_>],
    cfg: &CampaignConfig,
    collapse: Collapse,
) -> Result<CampaignPlan, String> {
    let mut tasks = Vec::new();
    let mut budgets = Vec::with_capacity(cells.len());
    let mut planned = Vec::with_capacity(cells.len());
    let mut populations = Vec::with_capacity(cells.len());
    // Per-cell collapse accounting (`None` for every sampled cell).
    let mut spaces: Vec<Option<CollapseStats>> = Vec::with_capacity(cells.len());
    // FastFlip-style reuse: one propagation analysis per distinct
    // program (keyed by reference identity), shared by every category
    // cell of the campaign that injects into it.
    let mut llfi_analyses: Vec<(usize, LlfiAnalysis)> = Vec::new();
    let mut pinfi_analyses: Vec<(usize, PinfiAnalysis)> = Vec::new();
    let cell_err = |ci: usize, e: String| {
        let cell = &cells[ci];
        format!("cell {ci} ({}/{}): {e}", cell.label, cell.category)
    };
    // Every exact cell's classes are counted before any plan is
    // materialized, so a campaign with one cell over the class limit is
    // refused while it holds only the analyses.
    for (ci, cell) in cells.iter().enumerate() {
        let (stats, golden_steps) = match (&cell.substrate, collapse) {
            (_, Collapse::Sampled) => continue,
            (Substrate::Llfi { module, profile }, Collapse::Exact) => {
                let analysis = shared_analysis(&mut llfi_analyses, *module, || {
                    analyze_llfi(module, profile).map_err(|e| cell_err(ci, e))
                })?;
                let space = llfi_space(module, profile, cell.category, Some(analysis));
                (tally(space), profile.golden_steps)
            }
            (Substrate::Pinfi { prog, profile }, Collapse::Exact) => {
                let analysis = shared_analysis(&mut pinfi_analyses, *prog, || {
                    analyze_pinfi(prog, profile).map_err(|e| cell_err(ci, e))
                })?;
                let space = pinfi_space(prog, profile, cell.category, cfg.pinfi, Some(analysis));
                (tally(space), profile.golden_steps)
            }
        };
        check_classes(stats, golden_steps).map_err(|e| cell_err(ci, e))?;
    }
    for (ci, cell) in cells.iter().enumerate() {
        let mut rng =
            StdRng::seed_from_u64(cell_seed(cfg.seed, cell.substrate.tool(), cell.category));
        let before = tasks.len();
        // Each level yields its (plan, class size) list and collapse
        // accounting; sampled plans stand for one point each.
        let (plans, space): (Vec<(Plan, u64)>, _) = match (&cell.substrate, collapse) {
            (Substrate::Llfi { module, profile }, Collapse::Sampled) => {
                // One cumulative site table per cell, not per injection.
                let cum = profile.cumulative(module, cell.category);
                let plans = (0..cfg.injections)
                    .filter_map(|_| plan_llfi_from(module, &cum, &mut rng))
                    .map(|p| (Plan::Llfi(p), 1))
                    .collect();
                (plans, None)
            }
            (Substrate::Pinfi { prog, profile }, Collapse::Sampled) => {
                let cum = profile.cumulative(prog, cell.category);
                let plans = (0..cfg.injections)
                    .filter_map(|_| plan_pinfi_from(prog, &cum, cfg.pinfi, &mut rng))
                    .map(|p| (Plan::Pinfi(p), 1))
                    .collect();
                (plans, None)
            }
            (Substrate::Llfi { module, profile }, Collapse::Exact) => {
                let analysis = analyzed(&llfi_analyses, *module);
                let (plan, stats) = collapse_llfi(module, profile, cell.category, analysis);
                let plans = plan.into_iter().map(|(p, n)| (Plan::Llfi(p), n));
                (plans.collect(), Some(stats))
            }
            (Substrate::Pinfi { prog, profile }, Collapse::Exact) => {
                let analysis = analyzed(&pinfi_analyses, *prog);
                let (plan, stats) =
                    collapse_pinfi(prog, profile, cell.category, cfg.pinfi, analysis);
                let plans = plan.into_iter().map(|(p, n)| (Plan::Pinfi(p), n));
                (plans.collect(), Some(stats))
            }
        };
        tasks.extend(
            plans
                .into_iter()
                .enumerate()
                .map(|(i, (plan, class_size))| Task {
                    cell: ci,
                    injection: i as u64,
                    plan,
                    class_size,
                }),
        );
        spaces.push(space);
        let (golden_steps, population) = match &cell.substrate {
            Substrate::Llfi { module, profile } => (
                profile.golden_steps,
                profile.category_count(module, cell.category),
            ),
            Substrate::Pinfi { prog, profile } => (
                profile.golden_steps,
                profile.category_count(prog, cell.category),
            ),
        };
        budgets.push(cfg.hang_budget(golden_steps));
        populations.push(population);
        let cell_planned = u32::try_from(tasks.len() - before).map_err(|_| {
            let e = "planned injection count exceeds the record format's u32 per-cell limit";
            cell_err(ci, e.into())
        })?;
        planned.push(cell_planned);
    }
    Ok(CampaignPlan {
        tasks,
        budgets,
        planned,
        populations,
        spaces,
        collapse,
    })
}

/// The propagation analysis of `prog` from `cache`, keyed by reference
/// identity, running `analyze` only the first time `prog` is seen.
fn shared_analysis<'c, P, A>(
    cache: &'c mut Vec<(usize, A)>,
    prog: &P,
    analyze: impl FnOnce() -> Result<A, String>,
) -> Result<&'c A, String> {
    if !cache.iter().any(|(k, _)| *k == key(prog)) {
        cache.push((key(prog), analyze()?));
    }
    Ok(analyzed(cache, prog))
}

/// The cached propagation analysis of `prog`.
fn analyzed<'c, P, A>(cache: &'c [(usize, A)], prog: &P) -> &'c A {
    let hit = cache.iter().find(|(k, _)| *k == key(prog));
    &hit.expect("analyzed before planning").1
}

fn key<P>(prog: &P) -> usize {
    prog as *const P as usize
}

/// Executes `shard` (or the full plan when `None`) on the worker pool:
/// the executor half shared by [`run_campaign`] and
/// [`run_campaign_shard`].
fn run_planned(
    cells: &[CellSpec<'_>],
    cfg: &CampaignConfig,
    opts: &EngineOptions<'_>,
    plan: &CampaignPlan,
    shard: Option<ShardSpec>,
) -> Result<CampaignRun, String> {
    let (lo, hi) = shard.map_or((0, plan.tasks.len()), |s| (s.lo, s.hi));
    let range_len = hi - lo;
    let CampaignPlan {
        tasks,
        budgets,
        planned,
        populations,
        spaces,
        ..
    } = plan;

    // Pre-decode each cell's program once; workers share the tables.
    let decoded: Vec<DecodedCell> = cells
        .iter()
        .map(|cell| match &cell.substrate {
            Substrate::Llfi { module, .. } => {
                DecodedCell::Llfi(Arc::new(DecodedModule::decode(module)))
            }
            Substrate::Pinfi { prog, .. } => {
                DecodedCell::Pinfi(Arc::new(DecodedProgram::decode(prog)))
            }
        })
        .collect();

    // 2. Open the record stream (and the divergence stream when enabled),
    //    replaying any resumable prefix. The streams advance in task
    //    lockstep, but a kill can tear them at different lengths — resume
    //    reconciles both to the minimum consistent task prefix. The
    //    telemetry stream below holds no per-task lines, so it only has
    //    its header checked and then starts afresh.
    let header = plan.record_header(cells, cfg, shard);
    let div_header = plan.divergence_header(cells, cfg, shard);
    let mut outcomes: Vec<Option<Outcome>> = vec![None; range_len];
    let mut resumed = 0usize;
    let mut resumed_streams = false;
    let mut writer = None;
    let mut div_writer = None;
    match opts.records {
        None => {
            // No record stream to resume from: a divergence stream always
            // starts fresh.
            if let Some(path) = opts.divergence {
                div_writer = Some(create_stream(path, &div_header, "divergence")?);
            }
        }
        Some(path) => {
            if opts.resume && path.exists() {
                let mut prefix = load_prefix(path, &header, "record", "--records", |line, i| {
                    (i < range_len)
                        .then(|| parse_record(line, lo + i))
                        .flatten()
                })?;
                let mut keep = prefix.items.len();
                let div_prefix = match opts.divergence {
                    Some(div_path) => {
                        if !div_path.exists() {
                            return Err(format!(
                                "cannot resume with --divergence: {} exists but {} does not; \
                                 delete the record file to start over",
                                path.display(),
                                div_path.display()
                            ));
                        }
                        let dp = load_prefix(
                            div_path,
                            &div_header,
                            "divergence",
                            "--divergence",
                            |line, i| (i < range_len && parse_timeline(line, lo + i)).then_some(()),
                        )?;
                        keep = keep.min(dp.items.len());
                        Some(dp)
                    }
                    None => None,
                };
                prefix.items.truncate(keep);
                resumed = keep;
                resumed_streams = true;
                writer = Some(reopen_stream(path, prefix.byte_len(keep), "record")?);
                if let (Some(div_path), Some(dp)) = (opts.divergence, div_prefix) {
                    div_writer = Some(reopen_stream(div_path, dp.byte_len(keep), "divergence")?);
                }
                for (i, o) in prefix.items.into_iter().enumerate() {
                    outcomes[i] = Some(o);
                }
            } else {
                writer = Some(create_stream(path, &header, "record")?);
                if let Some(div_path) = opts.divergence {
                    div_writer = Some(create_stream(div_path, &div_header, "divergence")?);
                }
            }
        }
    }

    // 3. Drain the task range with one shared worker pool.
    let remaining = range_len - resumed;
    let workers = cfg.worker_count().max(1).min(remaining.max(1));
    let tel_file = match opts.telemetry {
        Some(path) => {
            let tel_header = plan.telemetry_header(cells, cfg, workers, shard);
            Some(if resumed_streams && path.exists() {
                TelemetryFile::reconcile(path, &tel_header)?
            } else {
                TelemetryFile::create(path, &tel_header)?
            })
        }
        None => None,
    };
    let hub = tel_file
        .as_ref()
        .map(|_| TelemetryHub::new(&HUB_SPEC, workers, cells.len()));
    if let Some(hub) = &hub {
        hub.worker(0)
            .add(engine_counter::RESUMED_TASKS, resumed as u64);
        // Planning-time constants (snapshot reuse, collapse census) are
        // campaign-wide facts, not per-task tallies: in a sharded run
        // only shard 0 records them, so the aggregator's monoid merge
        // reproduces the single-process totals instead of multiplying
        // them by the shard count.
        if shard.is_none_or(|sh| sh.index == 0) {
            record_snapshot_reuse(hub, cells);
            // Collapse accounting is fixed at planning time, so (like the
            // snapshot-reuse tally) it is recorded once, on worker 0's
            // shard.
            let h = hub.worker(0);
            for (ci, stats) in spaces.iter().enumerate() {
                if let Some(s) = stats {
                    h.cell_add(ci, cell_counter::FAULT_SPACE, s.space());
                    h.cell_add(ci, cell_counter::COLLAPSE_DORMANT, s.dormant);
                    h.cell_add(ci, cell_counter::COLLAPSE_MASKED, s.masked);
                    h.cell_add(ci, cell_counter::COLLAPSE_RESIDUAL, s.residual);
                }
            }
        }
    }
    let shared = Shared {
        cells,
        tasks: tasks.as_slice(),
        budgets: budgets.as_slice(),
        decoded: &decoded,
        collapse: opts.collapse,
        lo,
        hi,
        next: AtomicUsize::new(lo + resumed),
        completed: AtomicUsize::new(resumed),
        early_exited: AtomicUsize::new(0),
        fast_forwarded: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        cancel: opts.cancel,
        sink: Mutex::new(Sink {
            outcomes,
            pending: BTreeMap::new(),
            next_flush: lo + resumed,
            writer,
            unflushed: 0,
            div_writer,
            div_unflushed: 0,
            line: String::new(),
        }),
        error: Mutex::new(None),
        progress: opts.progress,
        resumed,
        fast_forward: opts.fast_forward,
        early_exit: opts.early_exit,
        divergence: opts.divergence.is_some(),
        tel: hub.as_ref(),
    };
    // Default thread stacks suffice: guest recursion lives on the
    // interpreter's explicit heap-allocated frame stack, not host frames.
    // A one-worker pool drains inline on the caller thread: same drain
    // order, no spawn/join, and the caller's warm task-buffer pool is
    // reused instead of starting cold on a fresh thread every campaign.
    if workers == 1 {
        worker(&shared, 0);
    } else {
        std::thread::scope(|s| {
            let shared = &shared;
            for w in 0..workers {
                s.spawn(move || worker(shared, w));
            }
        });
    }
    if let Some(e) = lock(&shared.error).take() {
        return Err(e);
    }
    // Guaranteed final progress emission: the per-task callbacks race the
    // caller's throttle window, and a fully-resumed campaign never runs a
    // worker at all — so the completion snapshot is emitted here, after
    // the pool drains, where `completed == total` is a settled fact.
    if let Some(cb) = opts.progress {
        cb(Progress {
            completed: shared.completed.load(Ordering::Relaxed),
            total: range_len,
            resumed,
            fast_forwarded: shared.fast_forwarded.load(Ordering::Relaxed),
            early_exited: shared.early_exited.load(Ordering::Relaxed),
        });
    }

    // 4. Tally per cell (commutative, so thread order is irrelevant).
    let completed = shared.completed.load(Ordering::Relaxed);
    let early_exited = shared.early_exited.load(Ordering::Relaxed);
    let fast_forwarded = shared.fast_forwarded.load(Ordering::Relaxed);
    let mut sink = shared
        .sink
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(w) = sink.writer.as_mut() {
        w.flush().map_err(|e| format!("flush record file: {e}"))?;
    }
    if let Some(w) = sink.div_writer.as_mut() {
        w.flush()
            .map_err(|e| format!("flush divergence file: {e}"))?;
    }
    if let (Some(hub), Some(file)) = (&hub, tel_file) {
        if sink.unflushed > 0 {
            // Account the trailing partial flush issued just above.
            let h = hub.worker(0);
            h.add(engine_counter::RECORD_FLUSHES, 1);
            h.record(engine_hist::RECORD_FLUSH_BATCH, sink.unflushed as u64);
        }
        file.write_summary(
            hub,
            RunTotals {
                total: range_len as u64,
                done: completed as u64,
                resumed: resumed as u64,
                fast_forwarded: fast_forwarded as u64,
                early_exited: early_exited as u64,
            },
        )?;
    }
    let mut reports: Vec<CellReport> = planned
        .iter()
        .zip(populations.iter().zip(spaces.iter()))
        .map(|(&p, (&pop, stats))| CellReport {
            counts: OutcomeCounts::default(),
            // Exact collapse plans the whole fault space; `injections`
            // plays no role, so "requested" is the plan itself.
            requested: match stats {
                Some(_) => p,
                None if p > 0 => cfg.injections,
                None => 0,
            },
            planned: p,
            executed: 0,
            dynamic_population: pop,
            fault_space: stats.map_or(0, |s| s.space()),
        })
        .collect();
    for (task, outcome) in tasks[lo..hi].iter().zip(&sink.outcomes) {
        let outcome = outcome.ok_or("internal error: campaign task missing an outcome")?;
        reports[task.cell].counts.record_n(outcome, task.class_size);
        reports[task.cell].executed += 1;
    }
    Ok(CampaignRun {
        cells: reports,
        total_tasks: range_len,
        resumed_tasks: resumed,
        early_exited_tasks: early_exited,
        fast_forwarded_tasks: fast_forwarded,
    })
}

/// Replays each cell's snapshot-cache capture history into the telemetry
/// hub: how many pages each incremental snapshot reused (allocation
/// shared with its predecessor) versus copied. The
/// cache is immutable after profiling, so this is exact and can be
/// recorded once up front, on worker 0's shard.
fn record_snapshot_reuse(hub: &TelemetryHub, cells: &[CellSpec<'_>]) {
    fn tally<'s, S, M>(snaps: impl Iterator<Item = &'s S>, mem: M) -> (u64, u64)
    where
        S: 's,
        M: Fn(&S) -> &fiq_mem::MemSnapshot,
    {
        let (mut reused, mut copied) = (0u64, 0u64);
        let mut prev: Option<&S> = None;
        for s in snaps {
            let (r, c) = mem(s).page_reuse_from(prev.map(&mem));
            reused += r as u64;
            copied += c as u64;
            prev = Some(s);
        }
        (reused, copied)
    }
    let h = hub.worker(0);
    for (ci, cell) in cells.iter().enumerate() {
        let (reused, copied) = match cell.snapshots.as_deref() {
            Some(SnapshotCache::Llfi(snaps)) => tally(snaps.iter(), |s: &InterpSnapshot| s.mem()),
            Some(SnapshotCache::Pinfi(snaps)) => tally(snaps.iter(), |s: &MachSnapshot| s.mem()),
            None => continue,
        };
        h.cell_add(ci, cell_counter::SNAP_PAGES_REUSED, reused);
        h.cell_add(ci, cell_counter::SNAP_PAGES_COPIED, copied);
    }
}

fn worker(shared: &Shared<'_, '_>, index: usize) {
    let handle = shared.tel.map(|hub| hub.worker(index));
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        // Cooperative cancellation: checked before each claim, so a
        // cancelled run stops at a task boundary and its streams stay a
        // clean resumable prefix.
        if shared.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            fail(shared, CANCELLED.into());
            return;
        }
        let i = shared.next.fetch_add(1, Ordering::Relaxed);
        if i >= shared.hi {
            return;
        }
        let task = &shared.tasks[i];
        let cell = &shared.cells[task.cell];
        // Clock reads only happen with telemetry on, keeping the
        // disabled path identical to the un-instrumented engine.
        let start = handle.map(|h| (h, Instant::now()));
        let tel = match handle {
            Some(h) => TaskTel::new(h, task.cell),
            None => TaskTel::off(),
        };
        let run = catch_unwind(AssertUnwindSafe(|| execute(shared, task, tel)));
        let result = match run {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                fail(
                    shared,
                    format!("cell {} ({}/{}): {e}", task.cell, cell.label, cell.category),
                );
                return;
            }
            Err(payload) => {
                fail(
                    shared,
                    format!(
                        "cell {} ({}/{}): worker panicked: {}",
                        task.cell,
                        cell.label,
                        cell.category,
                        panic_message(payload.as_ref())
                    ),
                );
                return;
            }
        };
        if result.early_exit {
            shared.early_exited.fetch_add(1, Ordering::Relaxed);
        }
        if result.fast_forwarded {
            shared.fast_forwarded.fetch_add(1, Ordering::Relaxed);
        }
        if let Some((h, t0)) = start {
            h.add(engine_counter::TASKS, 1);
            h.cell_add(task.cell, cell_counter::TASKS, 1);
            h.cell_record(
                task.cell,
                cell_hist::TASK_LATENCY_US,
                t0.elapsed().as_micros() as u64,
            );
            if result.fast_forwarded {
                h.cell_add(task.cell, cell_counter::FAST_FORWARDED, 1);
            }
            if result.early_exit {
                h.cell_add(task.cell, cell_counter::EARLY_EXITED, 1);
            }
            if let Some(tl) = &result.timeline {
                h.cell_add(task.cell, cell_counter::TIMELINES, 1);
                h.cell_record(
                    task.cell,
                    cell_hist::DIV_PEAK_PAGES,
                    u64::from(tl.peak_pages()),
                );
                h.cell_record(task.cell, cell_hist::DIV_DISTANCE, tl.distance());
                if tl.birth().is_some() {
                    h.cell_add(task.cell, cell_counter::DIV_BORN, 1);
                }
                if let Some(mt) = tl.mask_time() {
                    h.cell_add(task.cell, cell_counter::DIV_MASKED, 1);
                    h.cell_record(task.cell, cell_hist::DIV_MASK_TIME, mt);
                }
            }
        }
        if let Err(e) = deliver(shared, i, result, handle) {
            fail(shared, e);
            return;
        }
        let completed = shared.completed.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(cb) = shared.progress {
            cb(Progress {
                completed,
                total: shared.hi - shared.lo,
                resumed: shared.resumed,
                fast_forwarded: shared.fast_forwarded.load(Ordering::Relaxed),
                early_exited: shared.early_exited.load(Ordering::Relaxed),
            });
        }
    }
}

fn execute(shared: &Shared<'_, '_>, task: &Task, tel: TaskTel<'_>) -> Result<TaskResult, String> {
    let cell = &shared.cells[task.cell];
    let budget = shared.budgets[task.cell];
    let cache = cell.snapshots.as_deref();
    let early_exit = shared.early_exit;
    // The per-level arms only pick the concrete types.
    match (&cell.substrate, task.plan, &shared.decoded[task.cell]) {
        (Substrate::Llfi { module, profile }, Plan::Llfi(inj), DecodedCell::Llfi(dec)) => {
            let snaps = match cache {
                Some(SnapshotCache::Llfi(snaps)) => snaps.as_slice(),
                _ => &[],
            };
            let opts = InterpOptions {
                max_steps: budget,
                ..InterpOptions::default()
            };
            let target = (inj.site, inj.instance);
            observe(
                shared,
                snaps,
                target,
                budget,
                profile.golden_steps,
                |snap, g, tl| {
                    let (out, dec) = (&profile.golden_output, Some(Arc::clone(dec)));
                    run_llfi_observed(module, opts, inj, out, snap, g, early_exit, tl, dec, tel)
                },
            )
        }
        (Substrate::Pinfi { prog, profile }, Plan::Pinfi(inj), DecodedCell::Pinfi(dec)) => {
            let snaps = match cache {
                Some(SnapshotCache::Pinfi(snaps)) => snaps.as_slice(),
                _ => &[],
            };
            let opts = MachOptions { max_steps: budget };
            let target = (inj.idx, inj.instance);
            observe(
                shared,
                snaps,
                target,
                budget,
                profile.golden_steps,
                |snap, g, tl| {
                    let (out, dec) = (&profile.golden_output, Some(Arc::clone(dec)));
                    run_pinfi_observed(prog, opts, inj, out, snap, g, early_exit, tl, dec, tel)
                },
            )
        }
        _ => Err("internal error: plan/substrate mismatch".into()),
    }
}

/// Runs one task at either level: picks its restore point and golden
/// checkpoints from the cell's snapshot list, then runs the injection at
/// `(site, instance)` through `inject(restore point, checkpoints,
/// timeline)`.
fn observe<S: Checkpoint>(
    shared: &Shared<'_, '_>,
    snaps: &[S],
    (site, instance): (S::Site, u64),
    budget: u64,
    golden_steps: u64,
    inject: impl FnOnce(
        Option<&S>,
        Option<GoldenRef<'_, S>>,
        Option<&mut Timeline>,
    ) -> Result<InjectionRun, String>,
) -> Result<TaskResult, String> {
    let mut timeline = shared.divergence.then(Timeline::new);
    let snap = shared
        .fast_forward
        .then(|| restore_point(snaps, site, instance, budget))
        .flatten();
    let compare = shared.early_exit || shared.divergence;
    let golden = (compare && !snaps.is_empty()).then_some(GoldenRef {
        snapshots: snaps,
        golden_steps,
    });
    let run = inject(snap, golden, timeline.as_mut())?;
    Ok(TaskResult {
        outcome: run.outcome,
        steps: run.steps,
        early_exit: run.early_exit,
        fast_forwarded: snap.is_some(),
        timeline,
    })
}

/// The fast-forward restore point of an injection at `(site, instance)`
/// under a `budget`-step run: the last checkpoint strictly before that
/// occurrence that the run reaches (per-site counts are monotone across
/// the list), or `None` to replay from the start.
pub fn restore_point<S: Checkpoint>(
    snaps: &[S],
    site: S::Site,
    instance: u64,
    budget: u64,
) -> Option<&S> {
    let pos = snaps.partition_point(|s| s.site_count(site) < instance && s.steps() <= budget);
    pos.checked_sub(1).map(|p| &snaps[p])
}

/// Stores a result and writes the in-order record prefix.
///
/// Writes are flushed every [`FLUSH_EVERY`] records rather than per
/// record (one syscall per injection under the sink mutex, previously the
/// engine's hottest lock); [`run_campaign`] issues a final flush after
/// the pool drains, and a kill between flushes at worst loses buffered
/// trailing lines that resume's torn-tail truncation already handles.
fn deliver(
    shared: &Shared<'_, '_>,
    index: usize,
    result: TaskResult,
    handle: Option<WorkerHandle<'_>>,
) -> Result<(), String> {
    let mut guard = lock(&shared.sink);
    let sink = &mut *guard;
    sink.outcomes[index - shared.lo] = Some(result.outcome);
    sink.pending.insert(index, result);
    loop {
        let flush_index = sink.next_flush;
        let Some(res) = sink.pending.remove(&flush_index) else {
            break;
        };
        sink.next_flush += 1;
        let task = &shared.tasks[flush_index];
        let cell = &shared.cells[task.cell];
        if let Some(w) = &mut sink.writer {
            sink.line.clear();
            record_line(
                &mut sink.line,
                cell,
                task,
                flush_index,
                &res,
                shared.collapse,
            );
            sink.line.push('\n');
            w.write_all(sink.line.as_bytes())
                .map_err(|e| format!("write record: {e}"))?;
            if let Some(h) = handle {
                h.add(engine_counter::RECORDS_WRITTEN, 1);
            }
            sink.unflushed += 1;
            if sink.unflushed >= FLUSH_EVERY {
                if let Some(h) = handle {
                    h.add(engine_counter::RECORD_FLUSHES, 1);
                    h.record(engine_hist::RECORD_FLUSH_BATCH, sink.unflushed as u64);
                }
                sink.unflushed = 0;
                w.flush().map_err(|e| format!("write record: {e}"))?;
            }
        }
        if let Some(w) = &mut sink.div_writer {
            let tl = res
                .timeline
                .as_ref()
                .ok_or("internal error: divergence stream open without a timeline")?;
            sink.line.clear();
            timeline_line(
                &mut sink.line,
                &cell.label,
                cell.substrate.tool(),
                cell.category.name(),
                flush_index as u64,
                task.injection,
                res.outcome,
                tl,
            );
            sink.line.push('\n');
            w.write_all(sink.line.as_bytes())
                .map_err(|e| format!("write divergence: {e}"))?;
            sink.div_unflushed += 1;
            if sink.div_unflushed >= FLUSH_EVERY {
                sink.div_unflushed = 0;
                w.flush().map_err(|e| format!("write divergence: {e}"))?;
            }
        }
    }
    Ok(())
}

fn fail(shared: &Shared<'_, '_>, message: String) {
    shared.stop.store(true, Ordering::Relaxed);
    lock(&shared.error).get_or_insert(message);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Appends one per-injection record line to `out`. Exact-collapse
/// records append the class weight; sampled records stay byte-identical
/// to version 1.
fn record_line(
    out: &mut String,
    cell: &CellSpec<'_>,
    task: &Task,
    index: usize,
    res: &TaskResult,
    collapse: Collapse,
) {
    let mut w = ObjWriter::open(out);
    w.str("record", "injection")
        .u64("task", index as u64)
        .str("cell", &cell.label)
        .u64("injection", task.injection)
        .str("tool", cell.substrate.tool())
        .str("category", cell.category.name());
    let mut plan = w.obj("plan");
    match task.plan {
        Plan::Llfi(inj) => plan
            .u64("func", inj.site.func.index() as u64)
            .u64("inst", inj.site.inst.index() as u64)
            .u64("instance", inj.instance)
            .u64("bit", u64::from(inj.bit)),
        Plan::Pinfi(inj) => plan
            .u64("inst", inj.idx as u64)
            .u64("instance", inj.instance)
            .str("dest", &format!("{:?}", inj.dest))
            .u64("bit", u64::from(inj.bit)),
    };
    plan.close();
    w.str("outcome", res.outcome.name()).u64("steps", res.steps);
    if collapse == Collapse::Exact {
        w.u64("class_size", task.class_size);
    }
    w.close();
}

/// Creates a JSONL stream file and writes its header line.
pub(crate) fn create_stream(
    path: &Path,
    header: &str,
    what: &str,
) -> Result<BufWriter<File>, String> {
    let file =
        File::create(path).map_err(|e| format!("create {what} file {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    writeln!(w, "{header}").map_err(|e| format!("write {what} header: {e}"))?;
    w.flush().map_err(|e| format!("write {what} header: {e}"))?;
    Ok(w)
}

/// Reopens an interrupted stream for appending: truncates it to the valid
/// prefix (dropping torn tail lines and, under divergence reconciliation,
/// complete lines past the common task prefix) and seeks to its end.
fn reopen_stream(path: &Path, valid_bytes: u64, what: &str) -> Result<BufWriter<File>, String> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| format!("open {what} file {}: {e}", path.display()))?;
    file.set_len(valid_bytes)
        .map_err(|e| format!("truncate {what} file {}: {e}", path.display()))?;
    file.seek(SeekFrom::End(0))
        .map_err(|e| format!("seek {what} file {}: {e}", path.display()))?;
    Ok(BufWriter::new(file))
}

/// The valid prefix of an interrupted run's record or divergence
/// stream.
struct Prefix<T> {
    /// The parsed lines of tasks `0..items.len()`, in task order.
    items: Vec<T>,
    /// Byte length of the header line.
    header_bytes: u64,
    /// `offsets[i]` = byte length of the header plus lines `0..=i`.
    offsets: Vec<u64>,
}

impl<T> Prefix<T> {
    /// Byte length of the header plus the first `lines` lines.
    fn byte_len(&self, lines: usize) -> u64 {
        match lines.checked_sub(1) {
            Some(last) => self.offsets[last],
            None => self.header_bytes,
        }
    }
}

/// Streams the longest valid prefix of a JSONL stream: the header line
/// must equal `expected_header`, and `parse(line, index)` validates each
/// subsequent line, up to the first malformed one; a torn final line
/// (from a kill mid-write) is dropped. The prefix's offsets let resume
/// truncate the file back to any item count, not just the full valid
/// prefix (needed when reconciling the record and divergence streams to
/// their common task prefix).
fn load_prefix<T>(
    path: &Path,
    expected_header: &str,
    what: &str,
    flag: &str,
    parse: impl Fn(&str, usize) -> Option<T>,
) -> Result<Prefix<T>, String> {
    // Stream line by line instead of slurping the whole file: resume files
    // grow with the campaign (one line per injection) and only the tiny
    // parsed prefix needs to stay in memory.
    let file = File::open(path).map_err(|e| format!("read {what} file {}: {e}", path.display()))?;
    let mut reader = BufReader::new(file);
    let mut line = String::new();
    let read_err = |e: std::io::Error| format!("read {what} file {}: {e}", path.display());
    reader.read_line(&mut line).map_err(read_err)?;
    if !line.ends_with('\n') {
        return Err(format!(
            "{what} file {} has no complete header line; delete it to start over",
            path.display()
        ));
    }
    if line.trim_end_matches('\n') != expected_header {
        return Err(format!(
            "{what} file {} belongs to a different campaign (seed, cells, or config \
             changed); delete it or pick another {flag} path",
            path.display()
        ));
    }
    let header_bytes = line.len() as u64;
    let mut items = Vec::new();
    let mut offsets = Vec::new();
    let mut valid = header_bytes;
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(read_err)?;
        if n == 0 || !line.ends_with('\n') {
            break; // end of file, or torn final line
        }
        let Some(item) = parse(line.trim_end_matches('\n'), items.len()) else {
            break;
        };
        items.push(item);
        valid += line.len() as u64;
        offsets.push(valid);
    }
    Ok(Prefix {
        items,
        header_bytes,
        offsets,
    })
}

/// Parses one record line, requiring `task == expected_index`.
fn parse_record(line: &str, expected_index: usize) -> Option<Outcome> {
    let v = Fields::parse(line).ok()?;
    if v.str("record")? != "injection" || v.u64("task")? != expected_index as u64 {
        return None;
    }
    Outcome::from_name(v.str("outcome")?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::tests::arb_text;
    use crate::profile::{LlfiProfile, PinfiProfile};
    use fiq_asm::{Reg, RegId};
    use fiq_interp::InstSite;
    use fiq_ir::{FuncId, InstId};
    use proptest::prelude::*;

    /// The record line as the campaign engine built it before the object
    /// writer: a `Json` tree, rendered by its `Display`.
    fn record_tree(
        cell: &CellSpec<'_>,
        task: &Task,
        index: usize,
        res: &TaskResult,
        collapse: Collapse,
    ) -> String {
        let plan = match task.plan {
            Plan::Llfi(inj) => Json::Obj(vec![
                ("func".into(), Json::u64(inj.site.func.index() as u64)),
                ("inst".into(), Json::u64(inj.site.inst.index() as u64)),
                ("instance".into(), Json::u64(inj.instance)),
                ("bit".into(), Json::u64(u64::from(inj.bit))),
            ]),
            Plan::Pinfi(inj) => Json::Obj(vec![
                ("inst".into(), Json::u64(inj.idx as u64)),
                ("instance".into(), Json::u64(inj.instance)),
                ("dest".into(), Json::str(format!("{:?}", inj.dest))),
                ("bit".into(), Json::u64(u64::from(inj.bit))),
            ]),
        };
        let mut fields = vec![
            ("record".into(), Json::str("injection")),
            ("task".into(), Json::u64(index as u64)),
            ("cell".into(), Json::str(cell.label.clone())),
            ("injection".into(), Json::u64(task.injection)),
            ("tool".into(), Json::str(cell.substrate.tool())),
            ("category".into(), Json::str(cell.category.name())),
            ("plan".into(), plan),
            ("outcome".into(), Json::str(res.outcome.name())),
            ("steps".into(), Json::u64(res.steps)),
        ];
        if collapse == Collapse::Exact {
            fields.push(("class_size".into(), Json::u64(task.class_size)));
        }
        Json::Obj(fields).to_string()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The record writer emits the tree's bytes for any label and any
        /// u64 field, on both substrates and both collapse modes, and
        /// resume's reader reads the outcome back.
        #[test]
        fn record_line_matches_tree(
            label in arb_text(),
            nums in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            index in 0usize..1 << 40,
            pinfi in any::<bool>(),
            exact in any::<bool>(),
        ) {
            let (injection, instance, steps, class_size) = nums;
            let module = Module::new("m");
            let llfi_profile = LlfiProfile {
                golden_output: String::new(),
                golden_steps: 0,
                counts: Vec::new(),
            };
            let prog = fiq_asm::AsmProgram {
                insts: Vec::new(),
                funcs: Vec::new(),
                globals: Vec::new(),
                main: 0,
            };
            let pinfi_profile = PinfiProfile {
                golden_output: String::new(),
                golden_steps: 0,
                counts: Vec::new(),
            };
            let (substrate, plan) = if pinfi {
                (
                    Substrate::Pinfi { prog: &prog, profile: &pinfi_profile },
                    Plan::Pinfi(PinfiInjection {
                        idx: index,
                        instance,
                        dest: if instance % 2 == 0 { RegId::Gpr(Reg::R11) } else { RegId::Flags(steps) },
                        bit: instance as u32,
                    }),
                )
            } else {
                (
                    Substrate::Llfi { module: &module, profile: &llfi_profile },
                    Plan::Llfi(LlfiInjection {
                        site: InstSite { func: FuncId(index as u32), inst: InstId(instance as u32) },
                        instance,
                        bit: steps as u32,
                    }),
                )
            };
            let cell = CellSpec { label, category: Category::Load, substrate, snapshots: None };
            let task = Task { cell: 0, injection, plan, class_size };
            let res = TaskResult {
                outcome: Outcome::Sdc,
                steps,
                early_exit: false,
                fast_forwarded: false,
                timeline: None,
            };
            let collapse = if exact { Collapse::Exact } else { Collapse::Sampled };
            let mut line = String::new();
            record_line(&mut line, &cell, &task, index, &res, collapse);
            prop_assert_eq!(&line, &record_tree(&cell, &task, index, &res, collapse));
            prop_assert_eq!(parse_record(&line, index), Some(Outcome::Sdc));
            prop_assert_eq!(parse_record(&line, index + 1), None);
        }
    }

    /// A per-cell injection index past `u32::MAX` must survive the record
    /// line verbatim: the field is u64 end to end, never cast down.
    #[test]
    fn record_line_preserves_oversized_injection_index() {
        let module = Module::new("boundary");
        let profile = LlfiProfile {
            golden_output: String::new(),
            golden_steps: 0,
            counts: Vec::new(),
        };
        let cell = CellSpec {
            label: "boundary".into(),
            category: Category::All,
            substrate: Substrate::Llfi {
                module: &module,
                profile: &profile,
            },
            snapshots: None,
        };
        let big = u64::from(u32::MAX) + 7;
        let task = Task {
            cell: 0,
            injection: big,
            plan: Plan::Llfi(LlfiInjection {
                site: InstSite {
                    func: FuncId(0),
                    inst: InstId(0),
                },
                instance: 1,
                bit: 0,
            }),
            class_size: 1,
        };
        let res = TaskResult {
            outcome: Outcome::Benign,
            steps: 1,
            early_exit: false,
            fast_forwarded: false,
            timeline: None,
        };
        let mut line = String::new();
        record_line(&mut line, &cell, &task, 0, &res, Collapse::Sampled);
        let v = Json::parse(&line).expect("record line parses");
        assert_eq!(v.get("injection").and_then(Json::as_u64), Some(big));
        // Sampled records must not leak the collapse-only field.
        assert!(v.get("class_size").is_none());
        let mut exact = String::new();
        record_line(&mut exact, &cell, &task, 0, &res, Collapse::Exact);
        let v = Json::parse(&exact).expect("record line parses");
        assert_eq!(v.get("class_size").and_then(Json::as_u64), Some(1));
    }
}
