//! Campaign telemetry: the metric schema, the per-task recording handle
//! used by the injectors, and the `telemetry.jsonl` codec.
//!
//! The generic sharded-metrics machinery (counters, log2 histograms)
//! lives in the dependency-free `fiq-telemetry` crate;
//! this module pins down *what* the campaign engine measures and how it
//! is serialized. [`TelemetrySummary`] is the only code that lays out or
//! parses the stream's counter, histogram, worker and summary lines: the
//! engine writes through it, `fiq report` reads through it, and the
//! daemon's shard merge is its monoid [`TelemetrySummary::merge`].
//!
//! ## Determinism contract
//!
//! Metrics split into two classes:
//!
//! * **Deterministic** — per-task quantities summed per cell (tasks,
//!   fast-forwards, early exits, step splits, checkpoint compares,
//!   verdicts)
//!   plus the step-valued histograms. These are identical for every
//!   `--threads` value, because each task contributes the same amounts
//!   no matter which worker runs it and merging is commutative.
//! * **Order-dependent** — anything shaped by scheduling or wall clock:
//!   per-worker task distribution (steal counts), record-flush batch
//!   sizes, and time-valued histograms. Reported, but excluded from the
//!   determinism assertions ([`DETERMINISTIC_CELL_HISTS`] lists the
//!   histograms that *are* covered).

use crate::engine::create_stream;
use crate::json::{Field, Fields, Json, ObjWriter};
use crate::report::{field_str, field_u64, read_lines};
use fiq_telemetry::{HistData, HubSpec, TelemetryHub, WorkerHandle, HIST_BUCKETS};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

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
    /// Exact compares of the live state with a golden checkpoint at
    /// pauses whose fault was settled. (The name predates the exact
    /// compare; `fiq-benchmark` reads it as `engine.digest_compares`.)
    pub const DIGEST_COMPARES: usize = 7;
    /// Checkpoint pauses skipped because the activation verdict was not
    /// yet settled.
    pub const PAUSES_UNSETTLED: usize = 8;
    /// Faults whose corrupted value was read (activated).
    pub const VERDICT_ACTIVATED: usize = 9;
    /// Faults overwritten before any read (dead, never activatable).
    pub const VERDICT_OVERWRITTEN: usize = 10;
    /// Faults still live at run end but never read.
    pub const VERDICT_DORMANT: usize = 11;
    /// Snapshot pages that did not share the previous snapshot's
    /// allocation during this cell's profiling capture: copied, or an
    /// all-zero page that takes the shared zero page.
    pub const SNAP_PAGES_COPIED: usize = 12;
    /// Snapshot pages reused (allocation shared with the previous
    /// snapshot) during this cell's profiling capture.
    pub const SNAP_PAGES_REUSED: usize = 13;
    /// Enumerated fault-space points (exact collapse only; 0 otherwise).
    pub const FAULT_SPACE: usize = 14;
    /// Points proven dormant by the collapse analyzer.
    pub const COLLAPSE_DORMANT: usize = 15;
    /// Points proven masked/benign by the collapse analyzer.
    pub const COLLAPSE_MASKED: usize = 16;
    /// Points executed individually (residual singletons).
    pub const COLLAPSE_RESIDUAL: usize = 17;
    /// Steps executed inside the quiescent fast loops (subset of
    /// `STEPS_EXECUTED`; measures phase-specialization coverage).
    pub const STEPS_QUIESCENT: usize = 18;
    /// Divergence timelines collected (tasks run with `--divergence`).
    pub const TIMELINES: usize = 19;
    /// Timelines whose fault was born: divergence observed at one or more
    /// golden checkpoints.
    pub const DIV_BORN: usize = 20;
    /// Born timelines that were observed provably clean again (masked at
    /// a checkpoint).
    pub const DIV_MASKED: usize = 21;
    /// Snapshot pages copied by fast-forward restores: only a snapshot's
    /// non-zero pages are copied.
    pub const RESTORE_PAGES_COPIED: usize = 22;
    /// Memory pages byte-compared at checkpoint compares and
    /// divergence observations; pages the restored memory provably still
    /// shares with the checkpoint are skipped and not counted. The one
    /// cell counter that moves with `--divergence`, since observing is
    /// work too.
    pub const PAGES_COMPARED: usize = 23;
    /// Hang tasks proved by a repeated state past the golden length
    /// instead of run to the budget; their un-run steps count as
    /// `STEPS_RECONSTRUCTED_EE`.
    pub const HANGS_PROVEN: usize = 24;
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
        "pauses_unsettled",
        "verdict_activated",
        "verdict_overwritten",
        "verdict_dormant",
        "snap_pages_copied",
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
        "hangs_proven",
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

/// End-of-run totals: the telemetry stream's `summary` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTotals {
    /// Total tasks in the campaign (or shard).
    pub total: u64,
    /// Tasks finished, including resumed ones.
    pub done: u64,
    /// Tasks restored from the record file instead of executed.
    pub resumed: u64,
    /// Tasks that restored a fast-forward snapshot.
    pub fast_forwarded: u64,
    /// Tasks cut short by convergence detection.
    pub early_exited: u64,
}

/// The `summary` line's fields, in [`RunTotals::fields`] order.
const TOTALS: [&str; 5] = ["total", "done", "resumed", "fast_forwarded", "early_exited"];

impl RunTotals {
    fn fields(&mut self) -> [&mut u64; 5] {
        [
            &mut self.total,
            &mut self.done,
            &mut self.resumed,
            &mut self.fast_forwarded,
            &mut self.early_exited,
        ]
    }
}

/// One scope's end-of-run counters and histograms by name, in stream
/// order (the engine writes them in [`HUB_SPEC`] order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms by name.
    pub hists: Vec<(String, HistData)>,
}

impl Metrics {
    fn from_hub(names: (&[&str], &[&str]), counters: Vec<u64>, hists: Vec<HistData>) -> Metrics {
        let named = |n: &[&str]| n.iter().map(|n| (*n).to_string()).collect::<Vec<_>>();
        Metrics {
            counters: named(names.0).into_iter().zip(counters).collect(),
            hists: named(names.1).into_iter().zip(hists).collect(),
        }
    }

    /// Adds `other` by name; a name only one side has is kept as is.
    fn merge(&mut self, other: Metrics) -> Result<(), String> {
        for (name, v) in other.counters {
            match self.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, a)) => *a = add(*a, v)?,
                None => self.counters.push((name, v)),
            }
        }
        for (name, h) in other.hists {
            match self.hists.iter_mut().find(|(n, _)| *n == name) {
                Some((_, a)) => {
                    for (x, y) in a.buckets.iter_mut().zip(&h.buckets) {
                        *x = add(*x, *y)?;
                    }
                    a.sum = a.sum.wrapping_add(h.sum);
                    hist_count(a)?;
                }
                None => self.hists.push((name, h)),
            }
        }
        Ok(())
    }
}

fn add(a: u64, b: u64) -> Result<u64, String> {
    a.checked_add(b)
        .ok_or_else(|| "telemetry value overflows u64".to_string())
}

/// A histogram's observation count, refusing one that overflows `u64`.
fn hist_count(h: &HistData) -> Result<u64, String> {
    h.buckets.iter().try_fold(0, |n, &c| add(n, c))
}

/// A telemetry stream, parsed: its header and the end-of-run counter,
/// histogram, worker and summary lines. This is the one codec of the
/// stream's layout — the engine writes its end of run through
/// [`TelemetrySummary::write`], `fiq report` reads with
/// [`TelemetrySummary::read`], and the daemon folds shard spools with
/// [`TelemetrySummary::merge`].
#[derive(Debug, Clone)]
pub struct TelemetrySummary {
    /// The header line: campaign identity plus the worker count.
    pub header: Json,
    /// Engine-scope metrics.
    pub engine: Metrics,
    /// Cell-scope metrics, one entry per header cell.
    pub cells: Vec<Metrics>,
    /// Tasks executed per worker (the steal distribution).
    pub workers: Vec<u64>,
    /// The `summary` line; `None` when the run was killed before it.
    pub totals: Option<RunTotals>,
}

impl TelemetrySummary {
    /// An empty stream under `header` — the identity of
    /// [`TelemetrySummary::merge`].
    ///
    /// # Errors
    ///
    /// Returns an error unless `header` is a telemetry header of this
    /// version with a labelled cell list and an integer (or no) `workers`.
    pub fn new(header: &str) -> Result<TelemetrySummary, String> {
        let what = "telemetry header";
        let header = Json::parse(header).map_err(|e| format!("{what}: {e}"))?;
        if header.get("record").and_then(Json::as_str) != Some("telemetry") {
            return Err("not a telemetry stream".into());
        }
        let version = header.get("version").and_then(Json::as_u64);
        if version != Some(TELEMETRY_VERSION) {
            return Err(format!(
                "{what}: version {version:?} unsupported (expected {TELEMETRY_VERSION})"
            ));
        }
        let cells = header
            .get("cells")
            .and_then(Json::as_array)
            .filter(|c| {
                c.iter()
                    .all(|c| c.get("label").and_then(Json::as_str).is_some())
            })
            .ok_or_else(|| format!("{what}: missing or unlabelled cells array"))?
            .len();
        if header.get("workers").is_some_and(|w| w.as_u64().is_none()) {
            return Err(format!("{what}: non-integer field \"workers\""));
        }
        Ok(TelemetrySummary {
            header,
            engine: Metrics::default(),
            cells: vec![Metrics::default(); cells],
            workers: Vec::new(),
            totals: None,
        })
    }

    /// What the engine holds once its pool drains: `hub`'s merged
    /// metrics and per-worker task counts under `header`.
    pub(crate) fn from_hub(
        header: &str,
        hub: &TelemetryHub,
        totals: RunTotals,
    ) -> Result<TelemetrySummary, String> {
        let mut s = TelemetrySummary::new(header)?;
        let (spec, snap) = (hub.spec(), hub.merged());
        if snap.cells.len() != s.cells.len() {
            return Err("telemetry header and hub disagree on the cell count".into());
        }
        s.engine = Metrics::from_hub((spec.counters, spec.hists), snap.counters, snap.hists);
        s.cells = snap
            .cells
            .into_iter()
            .map(|c| Metrics::from_hub((spec.cell_counters, spec.cell_hists), c.counters, c.hists))
            .collect();
        s.workers = hub.per_worker(engine_counter::TASKS);
        s.totals = Some(totals);
        Ok(s)
    }

    /// Reads a telemetry stream. Every missing, mistyped or out-of-range
    /// field is an error, and so is a repeated metric or summary line, a
    /// histogram whose buckets are out of order or do not sum to its
    /// `count`, and a worker line out of sequence or past the header's
    /// `workers`. A torn final line (a kill mid-write) is dropped, as in
    /// the other streams.
    ///
    /// # Errors
    ///
    /// Returns an error naming `path` when the file is unreadable or any
    /// line is malformed.
    pub fn read(path: &Path) -> Result<TelemetrySummary, String> {
        let at = |e: String| format!("{}: {e}", path.display());
        let mut lines = read_lines(path)?;
        let header = lines
            .next()
            .ok_or_else(|| at("empty telemetry file".into()))??;
        let mut s = TelemetrySummary::new(&header).map_err(at)?;
        for line in lines {
            s.read_line(line?).map_err(at)?;
        }
        Ok(s)
    }

    fn read_line(&mut self, line: String) -> Result<(), String> {
        let v = Fields::parse(&line).map_err(|e| format!("bad telemetry line: {e}"))?;
        match v.str("record") {
            Some("counter") => {
                let (name, value) = (
                    field_str(&v, "name", "counter line")?,
                    field_u64(&v, "value", "counter line")?,
                );
                insert(&mut self.scope(&v)?.counters, name, value)?;
            }
            Some("hist") => {
                let (name, data) = (field_str(&v, "name", "hist line")?, read_hist(&v)?);
                insert(&mut self.scope(&v)?.hists, name, data)?;
            }
            Some("worker") => {
                let (w, declared) = (field_u64(&v, "worker", "worker line")?, self.declared());
                let known = self.workers.len();
                if w >= declared || w != known as u64 {
                    return Err(format!(
                        "worker index {w} out of range ({declared} workers, {known} listed so far)"
                    ));
                }
                self.workers.push(field_u64(&v, "tasks", "worker line")?);
            }
            Some("summary") => {
                if self.totals.is_some() {
                    return Err("repeated summary line".into());
                }
                if self.workers.len() as u64 != self.declared() {
                    return Err(format!(
                        "summary line after {} of {} worker lines",
                        self.workers.len(),
                        self.declared()
                    ));
                }
                let mut totals = RunTotals::default();
                for (slot, key) in totals.fields().into_iter().zip(TOTALS) {
                    *slot = field_u64(&v, key, "summary line")?;
                }
                self.totals = Some(totals);
            }
            _ => return Err(format!("unknown telemetry line {line}")),
        }
        Ok(())
    }

    /// The metrics a counter or histogram line belongs to.
    fn scope(&mut self, v: &Fields<'_>) -> Result<&mut Metrics, String> {
        let what = "metric line";
        match field_str(v, "scope", what)? {
            "engine" => Ok(&mut self.engine),
            "cell" => {
                let ci = field_u64(v, "cell", what)?;
                let ci = usize::try_from(ci)
                    .ok()
                    .filter(|&ci| ci < self.cells.len())
                    .ok_or_else(|| format!("{what}: cell index {ci} out of range"))?;
                let label = self.labels().nth(ci);
                if v.get("label").is_some_and(|l| l.as_str() != label) {
                    return Err(format!("{what}: label does not match header cell {ci}"));
                }
                Ok(&mut self.cells[ci])
            }
            s => Err(format!("{what}: unknown scope {s:?}")),
        }
    }

    /// The header's `workers` field (0 when absent).
    fn declared(&self) -> u64 {
        self.header
            .get("workers")
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    /// The header's cell labels, in cell order.
    fn labels(&self) -> impl Iterator<Item = &str> {
        self.header
            .get("cells")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|c| c.get("label").and_then(Json::as_str).unwrap_or_default())
    }

    /// The monoid: adds `other` into `self`. Counters, histograms
    /// (bucketwise, `sum` wrapping), the header's `workers` and the totals
    /// add; worker lists concatenate, `other`'s after `self`'s. The rest
    /// of the header stays `self`'s.
    ///
    /// # Errors
    ///
    /// Returns an error when the two streams have different cell counts
    /// or a sum overflows `u64`.
    pub fn merge(&mut self, other: TelemetrySummary) -> Result<(), String> {
        if other.cells.len() != self.cells.len() {
            return Err("telemetry streams describe different cell grids".into());
        }
        let workers = add(self.declared(), other.declared())?;
        self.engine.merge(other.engine)?;
        for (a, b) in self.cells.iter_mut().zip(other.cells) {
            a.merge(b)?;
        }
        if let Json::Obj(fields) = &mut self.header {
            for (_, v) in fields.iter_mut().filter(|(k, _)| k == "workers") {
                *v = Json::u64(workers);
            }
        }
        self.workers.extend(other.workers);
        self.totals = match (self.totals, other.totals) {
            (Some(mut a), Some(mut b)) => {
                for (a, b) in a.fields().into_iter().zip(b.fields()) {
                    *a = add(*a, *b)?;
                }
                Some(a)
            }
            (a, b) => a.or(b),
        };
        Ok(())
    }

    /// Writes the whole stream: the header, then the end of run.
    ///
    /// # Errors
    ///
    /// Returns the writer's I/O error.
    pub fn write(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "{}", self.header)?;
        self.write_end(w)
    }

    /// Writes the end-of-run lines: counters and histograms (engine
    /// scope, then each cell), one line per worker, and the summary.
    fn write_end(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut out = String::new();
        let cells = self.labels().enumerate().map(Some).zip(&self.cells);
        for (cell, m) in std::iter::once((None, &self.engine)).chain(cells) {
            for (name, value) in &m.counters {
                let mut o = metric_line(&mut out, "counter", cell, name);
                o.u64("value", *value);
                o.close();
                out.push('\n');
            }
            for (name, data) in &m.hists {
                let mut o = metric_line(&mut out, "hist", cell, name);
                o.u64("count", data.count())
                    .u64("sum", data.sum)
                    .u64_rows("buckets", data.nonempty().map(|(i, c)| [i as u64, c]));
                o.close();
                out.push('\n');
            }
        }
        for (wi, tasks) in self.workers.iter().enumerate() {
            let mut o = ObjWriter::open(&mut out);
            o.str("record", "worker")
                .u64("worker", wi as u64)
                .u64("tasks", *tasks);
            o.close();
            out.push('\n');
        }
        if let Some(mut totals) = self.totals {
            let mut o = ObjWriter::open(&mut out);
            o.str("record", "summary");
            for (key, v) in TOTALS.into_iter().zip(totals.fields()) {
                o.u64(key, *v);
            }
            o.close();
            out.push('\n');
        }
        w.write_all(out.as_bytes())
    }
}

/// Adds a metric to a scope, refusing a second line for one name.
fn insert<T>(list: &mut Vec<(String, T)>, name: &str, value: T) -> Result<(), String> {
    if list.iter().any(|(n, _)| n == name) {
        return Err(format!("repeated metric {name:?}"));
    }
    list.push((name.to_string(), value));
    Ok(())
}

/// Opens a counter or histogram line up to its `name` member.
fn metric_line<'o>(
    out: &'o mut String,
    record: &str,
    cell: Option<(usize, &str)>,
    name: &str,
) -> ObjWriter<'o> {
    let mut o = ObjWriter::open(out);
    o.str("record", record)
        .str("scope", if cell.is_some() { "cell" } else { "engine" });
    if let Some((ci, label)) = cell {
        o.u64("cell", ci as u64).str("label", label);
    }
    o.str("name", name);
    o
}

/// A histogram line's data: buckets in increasing index order, each
/// below [`HIST_BUCKETS`], summing to the line's `count`.
fn read_hist(v: &Fields<'_>) -> Result<HistData, String> {
    let what = "hist line";
    let count = field_u64(v, "count", what)?;
    let mut data = HistData {
        sum: field_u64(v, "sum", what)?,
        ..HistData::default()
    };
    let buckets = v
        .get("buckets")
        .and_then(Field::as_raw)
        .map(Json::parse)
        .transpose()?;
    let mut next = 0;
    for pair in buckets
        .as_ref()
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{what}: missing buckets"))?
    {
        let (Some(i), Some(c)) = (match pair.as_array() {
            Some([i, c]) => (i.as_u64(), c.as_u64()),
            _ => (None, None),
        }) else {
            return Err(format!("{what}: malformed bucket"));
        };
        let i = usize::try_from(i)
            .ok()
            .filter(|&i| (next..HIST_BUCKETS).contains(&i))
            .ok_or_else(|| format!("{what}: bucket index {i} out of range or order"))?;
        data.buckets[i] = c;
        next = i + 1;
    }
    let total = hist_count(&data)?;
    if total != count {
        return Err(format!(
            "{what}: bucket counts sum to {total} but count field says {count}"
        ));
    }
    Ok(data)
}

/// The `telemetry.jsonl` writer: the header goes out when the file is
/// created, before any task runs, and the end-of-run lines once the pool
/// drains.
pub(crate) struct TelemetryFile {
    header: String,
    writer: BufWriter<File>,
}

impl TelemetryFile {
    /// Creates the file and writes the campaign header line.
    pub(crate) fn create(path: &Path, header: &str) -> Result<TelemetryFile, String> {
        Ok(TelemetryFile {
            header: header.to_string(),
            writer: create_stream(path, header, "telemetry")?,
        })
    }

    /// Starts a resumed attempt's stream afresh, once the existing file's
    /// header is found to describe the same campaign shard (see
    /// [`same_campaign`]). The prior attempt's end-of-run lines are not
    /// kept: the resumed tasks are counted in `resumed_tasks`, and the
    /// counters cover only what this attempt executes.
    pub(crate) fn reconcile(path: &Path, expected_header: &str) -> Result<TelemetryFile, String> {
        let file =
            File::open(path).map_err(|e| format!("open telemetry file {}: {e}", path.display()))?;
        let found = BufReader::new(file)
            .lines()
            .next()
            .transpose()
            .map_err(|e| format!("read telemetry file {}: {e}", path.display()))?
            .unwrap_or_default();
        if !Json::parse(&found).is_ok_and(|found| same_campaign(&found, expected_header)) {
            return Err(format!(
                "telemetry file {} belongs to a different campaign; \
                 delete it or pass a fresh --telemetry path",
                path.display()
            ));
        }
        TelemetryFile::create(path, expected_header)
    }

    /// Writes the end-of-run lines for `hub` and flushes the file.
    pub(crate) fn write_summary(
        mut self,
        hub: &TelemetryHub,
        totals: RunTotals,
    ) -> Result<(), String> {
        let summary = TelemetrySummary::from_hub(&self.header, hub, totals)?;
        summary
            .write_end(&mut self.writer)
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("write telemetry: {e}"))
    }
}

/// True when a found telemetry header describes the same campaign shard
/// as `expected`, ignoring the `workers` field: the worker count is
/// `min(threads, remaining-tasks)`, so a resumed attempt legitimately
/// runs with fewer workers than the attempt it reconciles against, and
/// shards of one campaign run with different counts. Resume
/// reconciliation and the daemon's shard merge both check headers so.
pub fn same_campaign(found: &Json, expected: &str) -> bool {
    fn without_workers(h: &Json) -> Option<impl Iterator<Item = &(String, Json)>> {
        match h {
            Json::Obj(fields) => Some(fields.iter().filter(|(k, _)| k != "workers")),
            _ => None,
        }
    }
    let Ok(expected) = Json::parse(expected) else {
        return false;
    };
    let same = match (without_workers(found), without_workers(&expected)) {
        (Some(a), Some(b)) => a.eq(b),
        _ => false,
    };
    same
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A summary written and read back writes the same bytes, and
    /// merging two hubs' summaries gives the metrics of one hub that did
    /// both hubs' work.
    #[test]
    fn summary_round_trips_and_merges_like_one_hub() {
        let header = |workers: usize| {
            format!(
                r#"{{"record":"telemetry","version":1,"seed":1,"workers":{workers},"cells":[{{"label":"q\"x","tool":"llfi","category":"all","planned":4}}]}}"#
            )
        };
        let hub = |workers: usize, steps: &[u64]| {
            let hub = TelemetryHub::new(&HUB_SPEC, workers, 1);
            for (i, &v) in steps.iter().enumerate() {
                let h = hub.worker(i % workers);
                h.add(engine_counter::TASKS, 1);
                h.cell_add(0, cell_counter::TASKS, 1);
                h.cell_record(0, cell_hist::TASK_STEPS, v);
            }
            let n = steps.len() as u64;
            let totals = RunTotals {
                total: n,
                done: n,
                ..RunTotals::default()
            };
            TelemetrySummary::from_hub(&header(workers), &hub, totals).unwrap()
        };
        let (a, b) = (hub(2, &[0, 5, u64::MAX]), hub(1, &[7]));
        let whole = hub(3, &[0, 5, u64::MAX, 7]);

        let path = std::env::temp_dir().join(format!("fiq-codec-{}.jsonl", std::process::id()));
        let mut bytes = Vec::new();
        a.write(&mut bytes).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let back = TelemetrySummary::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let mut again = Vec::new();
        back.write(&mut again).unwrap();
        assert_eq!(
            String::from_utf8(again).unwrap(),
            String::from_utf8(bytes).unwrap()
        );

        let mut merged = TelemetrySummary::new(&header(0)).unwrap();
        merged.merge(a).unwrap();
        merged.merge(b).unwrap();
        assert_eq!(merged.header.to_string(), header(3));
        assert_eq!(merged.engine, whole.engine);
        assert_eq!(merged.cells, whole.cells);
        assert_eq!(merged.totals, whole.totals);
        assert_eq!(merged.workers, [2, 1, 1]);
    }
}
