//! Campaign telemetry: the metric schema, the per-task recording handle
//! used by the injectors, and the `telemetry.jsonl` writer.
//!
//! The generic sharded-metrics machinery (counters, log2 histograms,
//! event batching) lives in the dependency-free `fiq-telemetry` crate;
//! this module pins down *what* the campaign engine measures and how it
//! is serialized with the [`crate::json`] codec.
//!
//! ## Determinism contract
//!
//! Metrics split into two classes:
//!
//! * **Deterministic** — per-task quantities summed per cell (tasks,
//!   fast-forwards, early exits, step splits, digest compares, verdicts)
//!   plus the step-valued histograms. These are identical for every
//!   `--threads` value, because each task contributes the same amounts
//!   no matter which worker runs it and merging is commutative.
//! * **Order-dependent** — anything shaped by scheduling or wall clock:
//!   per-worker task distribution (steal counts), record-flush batch
//!   sizes, and time-valued histograms. Reported, but excluded from the
//!   determinism assertions ([`DETERMINISTIC_CELL_HISTS`] lists the
//!   histograms that *are* covered).

use crate::campaign::CampaignConfig;
use crate::engine::CellSpec;
use crate::json::Json;
use fiq_telemetry::{EvVal, EventSink, HistData, HubSpec, TelemetryHub, WorkerHandle};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Telemetry-stream format version (bumped on schema changes).
pub const TELEMETRY_VERSION: u64 = 1;

/// Engine-scope counter indices into [`HUB_SPEC`].
pub mod engine_counter {
    /// Tasks executed, counted on the claiming worker's shard — the
    /// per-worker values are the campaign's steal distribution
    /// (order-dependent); the total is deterministic.
    pub const TASKS: usize = 0;
    /// Tasks restored from the record file instead of executed.
    pub const RESUMED_TASKS: usize = 1;
    /// JSONL record lines written this run (excludes resumed lines).
    pub const RECORDS_WRITTEN: usize = 2;
    /// Explicit flushes of the record stream.
    pub const RECORD_FLUSHES: usize = 3;
    /// Task-latency samples dropped because the start-of-task clock was
    /// never read (e.g. the task completed after telemetry shutdown
    /// during daemon cancellation). The task itself still counts.
    pub const LATENCY_DROPPED: usize = 4;
}

/// Engine-scope histogram indices into [`HUB_SPEC`].
pub mod engine_hist {
    /// Records per explicit flush of the record stream
    /// (order-dependent: depends on completion order).
    pub const RECORD_FLUSH_BATCH: usize = 0;
}

/// Cell-scope counter indices into [`HUB_SPEC`]. All are deterministic
/// across thread counts.
pub mod cell_counter {
    /// Tasks executed for this cell.
    pub const TASKS: usize = 0;
    /// Tasks that restored a pre-injection snapshot (fast-forward).
    pub const FAST_FORWARDED: usize = 1;
    /// Tasks cut short by golden-state convergence (early exit).
    pub const EARLY_EXITED: usize = 2;
    /// Steps the records report (`InjectionRun::steps` summed).
    pub const STEPS_REPORTED: usize = 3;
    /// Steps actually executed by the substrate.
    pub const STEPS_EXECUTED: usize = 4;
    /// Steps skipped by restoring a fast-forward snapshot.
    pub const STEPS_SKIPPED_FF: usize = 5;
    /// Steps reconstructed (not executed) by an early exit.
    pub const STEPS_RECONSTRUCTED_EE: usize = 6;
    /// Checkpoint digest comparisons attempted.
    pub const DIGEST_COMPARES: usize = 7;
    /// Digest comparisons that matched (candidate convergences).
    pub const DIGEST_MATCHES: usize = 8;
    /// Digest matches confirmed by the exact byte compare. The gap
    /// `DIGEST_MATCHES - CONVERGED` counts digest collisions.
    pub const CONVERGED: usize = 9;
    /// Checkpoint pauses skipped because the activation verdict was not
    /// yet settled.
    pub const PAUSES_UNSETTLED: usize = 10;
    /// Faults whose corrupted value was read (activated).
    pub const VERDICT_ACTIVATED: usize = 11;
    /// Faults overwritten before any read (dead, never activatable).
    pub const VERDICT_OVERWRITTEN: usize = 12;
    /// Faults still live at run end but never read.
    pub const VERDICT_DORMANT: usize = 13;
    /// Snapshot pages hashed during this cell's profiling capture.
    pub const SNAP_PAGES_HASHED: usize = 14;
    /// Snapshot pages reused (allocation + hash shared with the previous
    /// snapshot) during this cell's profiling capture.
    pub const SNAP_PAGES_REUSED: usize = 15;
    /// Enumerated fault-space points (exact collapse only; 0 otherwise).
    pub const FAULT_SPACE: usize = 16;
    /// Points proven dormant by the collapse analyzer.
    pub const COLLAPSE_DORMANT: usize = 17;
    /// Points proven masked/benign by the collapse analyzer.
    pub const COLLAPSE_MASKED: usize = 18;
    /// Points executed individually (residual singletons).
    pub const COLLAPSE_RESIDUAL: usize = 19;
    /// Steps executed inside the quiescent fast loops (subset of
    /// `STEPS_EXECUTED`; measures phase-specialization coverage).
    pub const STEPS_QUIESCENT: usize = 20;
    /// Divergence timelines collected (tasks run with `--divergence`).
    pub const TIMELINES: usize = 21;
    /// Timelines whose fault was born: divergence observed at one or more
    /// golden checkpoints.
    pub const DIV_BORN: usize = 22;
    /// Born timelines that were observed provably clean again (masked at
    /// a checkpoint).
    pub const DIV_MASKED: usize = 23;
    /// Snapshot pages copied by fast-forward restores: only a snapshot's
    /// non-zero pages are copied.
    pub const RESTORE_PAGES_COPIED: usize = 24;
    /// Memory pages hashed or byte-compared at checkpoint compares and
    /// divergence observations; pages the restored memory provably still
    /// shares with the checkpoint are skipped and not counted. The one
    /// cell counter that moves with `--divergence`, since observing is
    /// work too.
    pub const PAGES_COMPARED: usize = 25;
}

/// Cell-scope histogram indices into [`HUB_SPEC`].
pub mod cell_hist {
    /// Wall-clock per task, microseconds (order-dependent).
    pub const TASK_LATENCY_US: usize = 0;
    /// Wall-clock per snapshot restore, nanoseconds (order-dependent).
    pub const RESTORE_NS: usize = 1;
    /// Reported steps per task (deterministic).
    pub const TASK_STEPS: usize = 2;
    /// Checkpoint index each early exit converged at (deterministic).
    pub const EXIT_CHECKPOINT: usize = 3;
    /// Step count each early exit converged at (deterministic).
    pub const EXIT_STEP: usize = 4;
    /// Peak diverged-page spread per timeline (deterministic).
    pub const DIV_PEAK_PAGES: usize = 5;
    /// Propagation distance in checkpoints per timeline (deterministic).
    pub const DIV_DISTANCE: usize = 6;
    /// Checkpoints from birth to masking, per masked timeline
    /// (deterministic).
    pub const DIV_MASK_TIME: usize = 7;
}

/// Cell-scope histograms covered by the determinism contract (indices
/// into [`HubSpec::cell_hists`]). The time-valued histograms are not.
pub const DETERMINISTIC_CELL_HISTS: &[usize] = &[
    cell_hist::TASK_STEPS,
    cell_hist::EXIT_CHECKPOINT,
    cell_hist::EXIT_STEP,
    cell_hist::DIV_PEAK_PAGES,
    cell_hist::DIV_DISTANCE,
    cell_hist::DIV_MASK_TIME,
];

/// The campaign engine's metric schema.
pub static HUB_SPEC: HubSpec = HubSpec {
    counters: &[
        "tasks",
        "resumed_tasks",
        "records_written",
        "record_flushes",
        "latency_dropped",
    ],
    hists: &["record_flush_batch"],
    cell_counters: &[
        "tasks",
        "fast_forwarded",
        "early_exited",
        "steps_reported",
        "steps_executed",
        "steps_skipped_ff",
        "steps_reconstructed_ee",
        "digest_compares",
        "digest_matches",
        "converged",
        "pauses_unsettled",
        "verdict_activated",
        "verdict_overwritten",
        "verdict_dormant",
        "snap_pages_hashed",
        "snap_pages_reused",
        "fault_space",
        "collapse_dormant",
        "collapse_masked",
        "collapse_residual",
        "steps_quiescent",
        "timelines",
        "div_born",
        "div_masked",
        "restore_pages_copied",
        "pages_compared",
    ],
    cell_hists: &[
        "task_latency_us",
        "restore_ns",
        "task_steps",
        "exit_checkpoint",
        "exit_step",
        "div_peak_pages",
        "div_distance",
        "div_mask_time",
    ],
};

/// A task-scoped recording handle threaded into the injectors: a worker
/// handle plus the cell the current task belongs to, or nothing at all
/// when telemetry is disabled — every method is then a no-op, keeping
/// the disabled path free of atomics and branches beyond one `Option`
/// check.
#[derive(Clone, Copy)]
pub struct TaskTel<'a> {
    inner: Option<(WorkerHandle<'a>, usize)>,
}

impl<'a> TaskTel<'a> {
    /// The disabled handle (telemetry off).
    pub fn off() -> TaskTel<'static> {
        TaskTel { inner: None }
    }

    /// A live handle recording into `cell`'s metrics on `handle`'s shard.
    pub fn new(handle: WorkerHandle<'a>, cell: usize) -> TaskTel<'a> {
        TaskTel {
            inner: Some((handle, cell)),
        }
    }

    /// Whether recording is live (used to skip measurement-only work like
    /// reading clocks when telemetry is off).
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds to one of this task's cell counters (see [`cell_counter`]).
    #[inline]
    pub fn count(&self, counter: usize, n: u64) {
        if let Some((h, cell)) = self.inner {
            h.cell_add(cell, counter, n);
        }
    }

    /// Records into one of this task's cell histograms (see
    /// [`cell_hist`]).
    #[inline]
    pub fn hist(&self, hist: usize, v: u64) {
        if let Some((h, cell)) = self.inner {
            h.cell_record(cell, hist, v);
        }
    }
}

/// End-of-run totals written as the telemetry `summary` line.
pub(crate) struct RunTotals {
    pub total: usize,
    pub done: usize,
    pub resumed: usize,
    pub fast_forwarded: usize,
    pub early_exited: usize,
}

/// The shared `telemetry.jsonl` writer: the event sink appends batches
/// while workers run, and the engine appends the counter/histogram
/// summary after the pool drains. One mutex serializes both.
pub(crate) struct TelemetryFile {
    writer: Arc<Mutex<BufWriter<File>>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl TelemetryFile {
    /// Creates the file and writes the campaign header line.
    pub(crate) fn create(path: &Path, header: &str) -> Result<TelemetryFile, String> {
        let file = File::create(path)
            .map_err(|e| format!("create telemetry file {}: {e}", path.display()))?;
        let mut w = BufWriter::new(file);
        writeln!(w, "{header}").map_err(|e| format!("write telemetry header: {e}"))?;
        Ok(TelemetryFile {
            writer: Arc::new(Mutex::new(w)),
        })
    }

    /// Reconciles an existing telemetry file into a resumed attempt: the
    /// prior attempt's `task` event lines at indices below `keep_below`
    /// (the minimum consistent prefix the record/divergence streams
    /// agreed on) are preserved, everything else — counter, hist, worker
    /// and summary lines, plus task events past the kept prefix — is
    /// dropped, and the stream continues from there under a fresh
    /// header. This makes telemetry the third participant in resume
    /// reconciliation: after a crash the three streams describe the same
    /// task prefix, and each task index appears in at most one `task`
    /// event across all attempts.
    ///
    /// The old header must describe the same campaign shard; only its
    /// `workers` field may differ (a resumed attempt caps workers at the
    /// remaining task count).
    pub(crate) fn reconcile(
        path: &Path,
        expected_header: &str,
        keep_below: u64,
    ) -> Result<TelemetryFile, String> {
        let file =
            File::open(path).map_err(|e| format!("open telemetry file {}: {e}", path.display()))?;
        let mut lines = BufReader::new(file).lines();
        let found = lines
            .next()
            .transpose()
            .map_err(|e| format!("read telemetry file {}: {e}", path.display()))?
            .unwrap_or_default();
        if !headers_match_ignoring_workers(&found, expected_header) {
            return Err(format!(
                "telemetry file {} belongs to a different campaign; \
                 delete it or pass a fresh --telemetry path",
                path.display()
            ));
        }
        let kept: Vec<String> = lines
            .map_while(Result::ok)
            .filter(|l| keep_event_line(l, keep_below))
            .collect();
        let out = File::create(path)
            .map_err(|e| format!("create telemetry file {}: {e}", path.display()))?;
        let mut w = BufWriter::new(out);
        let werr = |e: std::io::Error| format!("write telemetry: {e}");
        writeln!(w, "{expected_header}").map_err(werr)?;
        for line in &kept {
            writeln!(w, "{line}").map_err(werr)?;
        }
        Ok(TelemetryFile {
            writer: Arc::new(Mutex::new(w)),
        })
    }

    /// An event sink appending `record: "event"` lines to this file.
    pub(crate) fn sink(&self) -> Box<dyn EventSink> {
        let writer = Arc::clone(&self.writer);
        Box::new(
            move |batch: &[fiq_telemetry::Event]| -> Result<(), String> {
                let mut w = lock(&writer);
                for ev in batch {
                    writeln!(w, "{}", event_line(ev))
                        .map_err(|e| format!("write telemetry: {e}"))?;
                }
                Ok(())
            },
        )
    }

    /// Writes the merged counter/histogram/worker/summary lines and
    /// flushes the file. Call once, after `TelemetryHub::flush_events`.
    pub(crate) fn write_summary(
        &self,
        hub: &TelemetryHub,
        cells: &[CellSpec<'_>],
        totals: &RunTotals,
    ) -> Result<(), String> {
        let spec = hub.spec();
        let snap = hub.merged();
        let mut w = lock(&self.writer);
        let werr = |e: std::io::Error| format!("write telemetry: {e}");
        for (name, value) in spec.counters.iter().zip(&snap.counters) {
            writeln!(w, "{}", counter_line("engine", None, name, *value)).map_err(werr)?;
        }
        for (name, data) in spec.hists.iter().zip(&snap.hists) {
            writeln!(w, "{}", hist_line("engine", None, name, data)).map_err(werr)?;
        }
        for (ci, cell) in snap.cells.iter().enumerate() {
            let label = Some((ci, cells[ci].label.as_str()));
            for (name, value) in spec.cell_counters.iter().zip(&cell.counters) {
                writeln!(w, "{}", counter_line("cell", label, name, *value)).map_err(werr)?;
            }
            for (name, data) in spec.cell_hists.iter().zip(&cell.hists) {
                writeln!(w, "{}", hist_line("cell", label, name, data)).map_err(werr)?;
            }
        }
        for (wi, tasks) in hub.per_worker(engine_counter::TASKS).iter().enumerate() {
            let line = Json::Obj(vec![
                ("record".into(), Json::str("worker")),
                ("worker".into(), Json::u64(wi as u64)),
                ("tasks".into(), Json::u64(*tasks)),
            ]);
            writeln!(w, "{line}").map_err(werr)?;
        }
        let summary = Json::Obj(vec![
            ("record".into(), Json::str("summary")),
            ("total".into(), Json::u64(totals.total as u64)),
            ("done".into(), Json::u64(totals.done as u64)),
            ("resumed".into(), Json::u64(totals.resumed as u64)),
            (
                "fast_forwarded".into(),
                Json::u64(totals.fast_forwarded as u64),
            ),
            ("early_exited".into(), Json::u64(totals.early_exited as u64)),
        ]);
        writeln!(w, "{summary}").map_err(werr)?;
        w.flush().map_err(werr)
    }
}

/// The telemetry header line: identifies the campaign the stream belongs
/// to, mirroring the record-stream header plus the worker count.
pub(crate) fn telemetry_header_line(
    cells: &[CellSpec<'_>],
    cfg: &CampaignConfig,
    planned: &[u32],
    workers: usize,
    shard: Option<crate::engine::ShardSpec>,
) -> String {
    let cell_objs = cells
        .iter()
        .zip(planned)
        .map(|(c, &p)| {
            Json::Obj(vec![
                ("label".into(), Json::str(c.label.clone())),
                ("tool".into(), Json::str(c.substrate.tool())),
                ("category".into(), Json::str(c.category.name())),
                ("planned".into(), Json::u64(u64::from(p))),
            ])
        })
        .collect();
    let mut fields = vec![
        ("record".into(), Json::str("telemetry")),
        ("version".into(), Json::u64(TELEMETRY_VERSION)),
        ("seed".into(), Json::u64(cfg.seed)),
        ("injections".into(), Json::u64(u64::from(cfg.injections))),
        ("hang_factor".into(), Json::u64(cfg.hang_factor)),
        ("workers".into(), Json::u64(workers as u64)),
        ("cells".into(), Json::Arr(cell_objs)),
    ];
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

/// True when two telemetry headers describe the same campaign shard,
/// ignoring the `workers` field: the worker count is `min(threads,
/// remaining-tasks)`, so a resumed attempt legitimately runs with fewer
/// workers than the attempt it reconciles against.
fn headers_match_ignoring_workers(found: &str, expected: &str) -> bool {
    let strip = |line: &str| {
        Json::parse(line).ok().map(|v| match v {
            Json::Obj(fields) => {
                Json::Obj(fields.into_iter().filter(|(k, _)| k != "workers").collect())
            }
            other => other,
        })
    };
    match (strip(found), strip(expected)) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

/// True for event lines the resume reconciliation keeps: non-task events
/// always survive (they narrate prior attempts), task events only below
/// the kept task prefix — so across any number of crash/resume cycles
/// every task index appears in at most one `task` event.
fn keep_event_line(line: &str, keep_below: u64) -> bool {
    let Ok(v) = Json::parse(line) else {
        return false;
    };
    if v.get("record").and_then(Json::as_str) != Some("event") {
        return false;
    }
    if v.get("kind").and_then(Json::as_str) != Some("task") {
        return true;
    }
    v.get("fields")
        .and_then(|f| f.get("task"))
        .and_then(Json::as_u64)
        .is_some_and(|t| t < keep_below)
}

fn counter_line(scope: &str, cell: Option<(usize, &str)>, name: &str, value: u64) -> String {
    let mut fields = vec![
        ("record".into(), Json::str("counter")),
        ("scope".into(), Json::str(scope)),
    ];
    if let Some((ci, label)) = cell {
        fields.push(("cell".into(), Json::u64(ci as u64)));
        fields.push(("label".into(), Json::str(label)));
    }
    fields.push(("name".into(), Json::str(name)));
    fields.push(("value".into(), Json::u64(value)));
    Json::Obj(fields).to_string()
}

fn hist_line(scope: &str, cell: Option<(usize, &str)>, name: &str, data: &HistData) -> String {
    let mut fields = vec![
        ("record".into(), Json::str("hist")),
        ("scope".into(), Json::str(scope)),
    ];
    if let Some((ci, label)) = cell {
        fields.push(("cell".into(), Json::u64(ci as u64)));
        fields.push(("label".into(), Json::str(label)));
    }
    fields.push(("name".into(), Json::str(name)));
    fields.push(("count".into(), Json::u64(data.count())));
    fields.push(("sum".into(), Json::u64(data.sum)));
    let buckets = data
        .nonempty()
        .map(|(i, c)| Json::Arr(vec![Json::u64(i as u64), Json::u64(c)]))
        .collect();
    fields.push(("buckets".into(), Json::Arr(buckets)));
    Json::Obj(fields).to_string()
}

fn event_line(ev: &fiq_telemetry::Event) -> String {
    let fields = ev
        .fields
        .iter()
        .map(|(k, v)| {
            let val = match v {
                EvVal::U64(n) => Json::u64(*n),
                EvVal::F64(f) => Json::f64(*f),
                EvVal::Bool(b) => Json::Bool(*b),
                EvVal::Str(s) => Json::str(s.clone()),
            };
            ((*k).to_string(), val)
        })
        .collect();
    Json::Obj(vec![
        ("record".into(), Json::str("event")),
        ("kind".into(), Json::str(ev.kind)),
        ("worker".into(), Json::u64(ev.worker as u64)),
        ("fields".into(), Json::Obj(fields)),
    ])
    .to_string()
}
