//! The `fiq report` analyzer: joins a campaign's `records.jsonl`
//! (per-injection ground truth) with its optional `telemetry.jsonl`
//! (sharded counters, histograms, events) into one summary — outcome
//! tables with Wilson 95% CIs, and speedup attribution showing what
//! fraction of each cell's reported steps were skipped by fast-forward
//! versus reconstructed by early exit versus actually executed.
//!
//! Outcome counts come *only* from the record stream, so the report's
//! tables are exact with or without telemetry; telemetry adds the
//! attribution and engine sections, and a `--divergence` stream adds
//! the propagation section (birth/masking funnels, per-cell
//! propagation-distance and peak-spread histograms, and an
//! LLFI-vs-PINFI spread comparison). When several files are given they
//! must describe the same campaign (seed and cell grid), which is
//! validated. All joins against the auxiliary streams saturate: a
//! truncated or absent stream degrades to smaller counts, never to a
//! panic or a NaN.

use crate::divergence::DIVERGENCE_VERSION;
use crate::json::{Field, Fields, Json};
use crate::outcome::{Outcome, OutcomeCounts};
use crate::stats::wilson_ci95;
use crate::telemetry::TELEMETRY_VERSION;
use fiq_telemetry::{HistData, HIST_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// One cell's summary: record-stream ground truth plus (optionally) its
/// telemetry counters and histograms.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Workload label.
    pub label: String,
    /// Injector ("llfi" / "pinfi").
    pub tool: String,
    /// Instruction category name.
    pub category: String,
    /// Injections planned per the campaign header.
    pub planned: u64,
    /// Enumerated fault-space points per the campaign header (exact
    /// collapse only; 0 in sampled campaigns).
    pub space: u64,
    /// Outcome tallies parsed from the record lines, weighted by each
    /// record's class size (1 unless the campaign ran exact collapse).
    pub counts: OutcomeCounts,
    /// Record lines seen for this cell — the representatives actually
    /// executed, unweighted.
    pub records: u64,
    /// Sum of the per-record reported step counts, class-weighted.
    pub steps_recorded: u64,
    /// This cell's telemetry counters by name (empty without telemetry).
    pub counters: BTreeMap<String, u64>,
    /// This cell's telemetry histograms by name (empty without
    /// telemetry).
    pub hists: BTreeMap<String, HistData>,
    /// Propagation summary from the divergence stream (`None` without
    /// one).
    pub propagation: Option<Propagation>,
}

/// One cell's slice of the divergence stream: how many injections ever
/// visibly diverged from the golden run, how far the divergence spread,
/// and how it resolved. All tallies saturate so a truncated stream
/// yields smaller counts rather than arithmetic panics.
#[derive(Debug, Clone, Default)]
pub struct Propagation {
    /// Timeline lines seen for this cell.
    pub timelines: u64,
    /// Timelines that were born: divergence observed at ≥ 1 checkpoint.
    pub born: u64,
    /// Born timelines later confirmed byte-identical to the golden
    /// state again (the fault was architecturally masked).
    pub masked: u64,
    /// Final campaign outcomes among born timelines.
    pub born_outcomes: OutcomeCounts,
    /// Propagation distance in checkpoints → timeline count (born
    /// timelines only; distance counts checkpoints from birth to the
    /// last diverged observation inclusive).
    pub distance: BTreeMap<u64, u64>,
    /// Peak divergence spread in 4 KiB pages → timeline count (born
    /// timelines only).
    pub peak_pages: BTreeMap<u64, u64>,
    /// Sum of propagation distances over born timelines.
    pub distance_sum: u64,
    /// Sum of peak page spreads over born timelines.
    pub peak_pages_sum: u64,
}

impl Propagation {
    /// Mean propagation distance over born timelines (0 when none).
    pub fn mean_distance(&self) -> f64 {
        if self.born == 0 {
            0.0
        } else {
            self.distance_sum as f64 / self.born as f64
        }
    }

    /// Mean peak page spread over born timelines (0 when none).
    pub fn mean_peak_pages(&self) -> f64 {
        if self.born == 0 {
            0.0
        } else {
            self.peak_pages_sum as f64 / self.born as f64
        }
    }

    /// Share of timelines that were born, in percent (0 when empty).
    pub fn born_pct(&self) -> f64 {
        if self.timelines == 0 {
            0.0
        } else {
            100.0 * self.born as f64 / self.timelines as f64
        }
    }

    /// Share of born timelines that were masked, in percent (0 when
    /// none were born).
    pub fn masked_pct(&self) -> f64 {
        if self.born == 0 {
            0.0
        } else {
            100.0 * self.masked as f64 / self.born as f64
        }
    }
}

impl CellSummary {
    /// A telemetry counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fraction of this cell's reported steps attributed to `name`
    /// (`steps_skipped_ff`, `steps_executed`, or
    /// `steps_reconstructed_ee`); 0 without telemetry or steps.
    pub fn step_fraction(&self, name: &str) -> f64 {
        let total = self.counter("steps_reported");
        if total == 0 {
            0.0
        } else {
            self.counter(name) as f64 / total as f64
        }
    }
}

/// End-of-run totals parsed from the telemetry `summary` line.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryTotals {
    /// Total tasks in the campaign.
    pub total: u64,
    /// Tasks finished (including resumed).
    pub done: u64,
    /// Tasks restored from the record file.
    pub resumed: u64,
    /// Tasks that restored a fast-forward snapshot.
    pub fast_forwarded: u64,
    /// Tasks cut short by convergence detection.
    pub early_exited: u64,
}

/// The engine-scope slice of the telemetry stream.
#[derive(Debug, Clone, Default)]
pub struct EngineSummary {
    /// Engine counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Engine histograms by name.
    pub hists: BTreeMap<String, HistData>,
    /// Tasks executed per worker (the steal distribution).
    pub worker_tasks: Vec<u64>,
    /// End-of-run totals.
    pub totals: TelemetryTotals,
    /// Streamed events seen, by kind.
    pub events: BTreeMap<String, u64>,
}

/// A full campaign summary built from `records.jsonl` and (optionally)
/// `telemetry.jsonl`.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign ran exact fault-space collapse: counts are the full
    /// enumerated distribution and every CI is zero-width.
    pub exact: bool,
    /// Campaign seed from the record header.
    pub seed: u64,
    /// Injections requested per cell.
    pub injections: u64,
    /// Hang budget factor.
    pub hang_factor: u64,
    /// Per-cell summaries, in header order.
    pub cells: Vec<CellSummary>,
    /// Engine telemetry (`None` when no telemetry stream was given).
    pub engine: Option<EngineSummary>,
}

fn read_lines(path: &Path) -> Result<impl Iterator<Item = Result<String, String>> + '_, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut reader = BufReader::new(file);
    Ok(std::iter::from_fn(move || {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Err(e) => Some(Err(format!("read {}: {e}", path.display()))),
            Ok(0) => None,
            // A torn final line (kill mid-write) is silently dropped, the
            // same tolerance resume applies.
            Ok(_) if !line.ends_with('\n') => None,
            Ok(_) => {
                line.truncate(line.trim_end().len());
                Some(Ok(line))
            }
        }
    }))
}

fn get_u64(v: &Json, key: &str, what: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: missing or non-integer field {key:?}"))
}

fn get_str<'j>(v: &'j Json, key: &str, what: &str) -> Result<&'j str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what}: missing or non-string field {key:?}"))
}

fn field_u64(v: &Fields<'_>, key: &str, what: &str) -> Result<u64, String> {
    v.u64(key)
        .ok_or_else(|| format!("{what}: missing or non-integer field {key:?}"))
}

fn field_str<'v>(v: &'v Fields<'_>, key: &str, what: &str) -> Result<&'v str, String> {
    v.str(key)
        .ok_or_else(|| format!("{what}: missing or non-string field {key:?}"))
}

/// Finds a cell by the (label, tool, category) identity every per-task
/// line carries, comparing borrowed strings so no line allocates a key.
struct CellIds(Vec<((String, String, String), usize)>);

impl CellIds {
    fn new(cells: &[CellSummary]) -> CellIds {
        let mut ids: Vec<_> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| ((c.label.clone(), c.tool.clone(), c.category.clone()), i))
            .collect();
        // Sorted for binary search; of two cells with one identity the
        // later one wins.
        ids.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        ids.dedup_by(|a, b| a.0 == b.0);
        CellIds(ids)
    }

    fn find(&self, label: &str, tool: &str, category: &str) -> Option<usize> {
        self.0
            .binary_search_by(|((l, t, c), _)| {
                (l.as_str(), t.as_str(), c.as_str()).cmp(&(label, tool, category))
            })
            .ok()
            .map(|i| self.0[i].1)
    }
}

/// Checks that per-task lines come in increasing task order, as every
/// writer (engine, resume, shard merge) emits them, so a repeated or
/// spliced-in line is an error instead of a double count.
#[derive(Default)]
struct TaskOrder {
    last: Option<u64>,
}

impl TaskOrder {
    fn advance(&mut self, task: u64, what: &str) -> Result<(), String> {
        if let Some(last) = self.last.filter(|&last| task <= last) {
            return Err(format!(
                "{what}: task {task} out of order after task {last}"
            ));
        }
        self.last = Some(task);
        Ok(())
    }
}

fn parse_header_cells(header: &Json, what: &str) -> Result<Vec<CellSummary>, String> {
    header
        .get("cells")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{what}: missing cells array"))?
        .iter()
        .map(|c| {
            Ok(CellSummary {
                label: get_str(c, "label", what)?.to_string(),
                tool: get_str(c, "tool", what)?.to_string(),
                category: get_str(c, "category", what)?.to_string(),
                planned: get_u64(c, "planned", what)?,
                space: c.get("space").and_then(Json::as_u64).unwrap_or(0),
                counts: OutcomeCounts::default(),
                records: 0,
                steps_recorded: 0,
                counters: BTreeMap::new(),
                hists: BTreeMap::new(),
                propagation: None,
            })
        })
        .collect()
}

impl CampaignReport {
    /// Builds the report from a record file and optional telemetry and
    /// divergence files produced by the same campaign run.
    ///
    /// # Errors
    ///
    /// Returns an error when any file is unreadable or malformed, or
    /// when the streams describe different campaigns (seed or cell grid
    /// mismatch).
    pub fn build(
        records: &Path,
        telemetry: Option<&Path>,
        divergence: Option<&Path>,
    ) -> Result<CampaignReport, String> {
        let mut report = CampaignReport::from_records(records)?;
        if let Some(tel) = telemetry {
            report.merge_telemetry(tel)?;
        }
        if let Some(div) = divergence {
            report.merge_divergence(div)?;
        }
        Ok(report)
    }

    fn from_records(path: &Path) -> Result<CampaignReport, String> {
        let what = "record file";
        let mut lines = read_lines(path)?;
        let header_text = lines
            .next()
            .ok_or_else(|| format!("{}: empty record file", path.display()))??;
        let header = Json::parse(&header_text).map_err(|e| format!("{what} header: {e}"))?;
        if header.get("record").and_then(Json::as_str) != Some("campaign") {
            return Err(format!("{}: not a campaign record file", path.display()));
        }
        let mut cells = parse_header_cells(&header, what)?;
        let ids = CellIds::new(&cells);
        let mut order = TaskOrder::default();
        for line in lines {
            let line = line?;
            let v = Fields::parse(&line).map_err(|e| format!("{what}: bad record line: {e}"))?;
            if v.str("record") != Some("injection") {
                continue;
            }
            order.advance(field_u64(&v, "task", what)?, what)?;
            let (label, tool, category) = (
                field_str(&v, "cell", what)?,
                field_str(&v, "tool", what)?,
                field_str(&v, "category", what)?,
            );
            let ci = ids.find(label, tool, category).ok_or_else(|| {
                format!("{what}: record for unknown cell {label}/{tool}/{category}")
            })?;
            let outcome = Outcome::from_name(field_str(&v, "outcome", what)?)
                .ok_or_else(|| format!("{what}: unknown outcome"))?;
            // Sampled records carry no class_size; each stands for
            // itself. Saturating arithmetic keeps a hand-edited stream
            // from panicking the reporter.
            let class = v.u64("class_size").unwrap_or(1);
            let cell = &mut cells[ci];
            cell.counts.record_n(outcome, class);
            cell.records += 1;
            cell.steps_recorded = cell
                .steps_recorded
                .saturating_add(field_u64(&v, "steps", what)?.saturating_mul(class));
        }
        Ok(CampaignReport {
            exact: header.get("collapse").and_then(Json::as_str) == Some("exact"),
            seed: get_u64(&header, "seed", what)?,
            injections: get_u64(&header, "injections", what)?,
            hang_factor: get_u64(&header, "hang_factor", what)?,
            cells,
            engine: None,
        })
    }

    fn merge_telemetry(&mut self, path: &Path) -> Result<(), String> {
        let what = "telemetry file";
        let mut lines = read_lines(path)?;
        let header_text = lines
            .next()
            .ok_or_else(|| format!("{}: empty telemetry file", path.display()))??;
        let header = Json::parse(&header_text).map_err(|e| format!("{what} header: {e}"))?;
        if header.get("record").and_then(Json::as_str) != Some("telemetry") {
            return Err(format!("{}: not a telemetry file", path.display()));
        }
        let version = get_u64(&header, "version", what)?;
        if version != TELEMETRY_VERSION {
            return Err(format!(
                "{what}: version {version} unsupported (expected {TELEMETRY_VERSION})"
            ));
        }
        let seed = get_u64(&header, "seed", what)?;
        if seed != self.seed {
            return Err(format!(
                "telemetry stream (seed {seed}) does not belong to this record \
                 file (seed {})",
                self.seed
            ));
        }
        let tel_cells = parse_header_cells(&header, what)?;
        if tel_cells.len() != self.cells.len()
            || tel_cells
                .iter()
                .zip(&self.cells)
                .any(|(t, r)| t.label != r.label || t.tool != r.tool || t.category != r.category)
        {
            return Err("telemetry stream describes a different cell grid".into());
        }
        // A header without a worker count admits no worker lines.
        let workers = header.get("workers").and_then(Json::as_u64).unwrap_or(0);
        let mut engine = EngineSummary::default();
        for line in lines {
            let line = line?;
            let v = Fields::parse(&line).map_err(|e| format!("{what}: bad line: {e}"))?;
            match v.str("record") {
                Some("event") => {
                    let kind = field_str(&v, "kind", what)?;
                    match engine.events.get_mut(kind) {
                        Some(n) => *n += 1,
                        None => {
                            engine.events.insert(kind.to_string(), 1);
                        }
                    }
                }
                Some("counter") => {
                    let name = field_str(&v, "name", what)?.to_string();
                    let value = field_u64(&v, "value", what)?;
                    match field_str(&v, "scope", what)? {
                        "engine" => {
                            engine.counters.insert(name, value);
                        }
                        "cell" => {
                            let ci = self.cell_index(&v, what)?;
                            self.cells[ci].counters.insert(name, value);
                        }
                        s => return Err(format!("{what}: unknown scope {s:?}")),
                    }
                }
                Some("hist") => {
                    let name = field_str(&v, "name", what)?.to_string();
                    let data = parse_hist(&v, what)?;
                    match field_str(&v, "scope", what)? {
                        "engine" => {
                            engine.hists.insert(name, data);
                        }
                        "cell" => {
                            let ci = self.cell_index(&v, what)?;
                            self.cells[ci].hists.insert(name, data);
                        }
                        s => return Err(format!("{what}: unknown scope {s:?}")),
                    }
                }
                Some("worker") => {
                    // Worker lines come in index order, one per worker of
                    // the header's count, so an index is never past the
                    // list's end; anything else would size the list from
                    // the input alone.
                    let w = field_u64(&v, "worker", what)?;
                    let known = engine.worker_tasks.len();
                    if w >= workers || w > known as u64 {
                        return Err(format!(
                            "{what}: worker index {w} out of range \
                             ({workers} workers, {known} listed so far)"
                        ));
                    }
                    let tasks = field_u64(&v, "tasks", what)?;
                    match engine.worker_tasks.get_mut(w as usize) {
                        Some(slot) => *slot = tasks,
                        None => engine.worker_tasks.push(tasks),
                    }
                }
                Some("summary") => {
                    engine.totals = TelemetryTotals {
                        total: field_u64(&v, "total", what)?,
                        done: field_u64(&v, "done", what)?,
                        resumed: field_u64(&v, "resumed", what)?,
                        fast_forwarded: field_u64(&v, "fast_forwarded", what)?,
                        early_exited: field_u64(&v, "early_exited", what)?,
                    };
                }
                _ => return Err(format!("{what}: unknown line {line}")),
            }
        }
        // Cross-check: executed task counters must cover exactly the
        // non-resumed portion of the campaign.
        let tasks: u64 = self.cells.iter().map(|c| c.counter("tasks")).sum();
        // saturating: a truncated or hand-edited stream can report more
        // resumed than done; that must surface as the inconsistency error
        // below, not as a u64 underflow panic.
        let expected = engine.totals.done.saturating_sub(engine.totals.resumed);
        if tasks != expected {
            return Err(format!(
                "telemetry stream is inconsistent: cell task counters sum to \
                 {tasks} but the summary reports {expected} executed tasks"
            ));
        }
        self.engine = Some(engine);
        Ok(())
    }

    fn merge_divergence(&mut self, path: &Path) -> Result<(), String> {
        let what = "divergence file";
        let mut lines = read_lines(path)?;
        let header_text = lines
            .next()
            .ok_or_else(|| format!("{}: empty divergence file", path.display()))??;
        let header = Json::parse(&header_text).map_err(|e| format!("{what} header: {e}"))?;
        if header.get("record").and_then(Json::as_str) != Some("divergence") {
            return Err(format!("{}: not a divergence file", path.display()));
        }
        let version = get_u64(&header, "version", what)?;
        if version != DIVERGENCE_VERSION {
            return Err(format!(
                "{what}: version {version} unsupported (expected {DIVERGENCE_VERSION})"
            ));
        }
        let seed = get_u64(&header, "seed", what)?;
        if seed != self.seed {
            return Err(format!(
                "divergence stream (seed {seed}) does not belong to this record \
                 file (seed {})",
                self.seed
            ));
        }
        let div_cells = parse_header_cells(&header, what)?;
        if div_cells.len() != self.cells.len()
            || div_cells
                .iter()
                .zip(&self.cells)
                .any(|(d, r)| d.label != r.label || d.tool != r.tool || d.category != r.category)
        {
            return Err("divergence stream describes a different cell grid".into());
        }
        // Every cell in the header gets a (possibly empty) summary: a
        // campaign killed before any timeline flushed still reports a
        // propagation section, just with zero counts.
        for c in &mut self.cells {
            c.propagation = Some(Propagation::default());
        }
        let ids = CellIds::new(&self.cells);
        let mut order = TaskOrder::default();
        for line in lines {
            let line = line?;
            let v = Fields::parse(&line).map_err(|e| format!("{what}: bad timeline line: {e}"))?;
            if v.str("record") != Some("timeline") {
                continue;
            }
            order.advance(field_u64(&v, "task", what)?, what)?;
            let (label, tool, category) = (
                field_str(&v, "cell", what)?,
                field_str(&v, "tool", what)?,
                field_str(&v, "category", what)?,
            );
            let ci = ids.find(label, tool, category).ok_or_else(|| {
                format!("{what}: timeline for unknown cell {label}/{tool}/{category}")
            })?;
            let outcome = Outcome::from_name(field_str(&v, "outcome", what)?)
                .ok_or_else(|| format!("{what}: unknown outcome"))?;
            let p = self.cells[ci]
                .propagation
                .as_mut()
                .expect("initialized above");
            p.timelines = p.timelines.saturating_add(1);
            // `birth`/`masked` are JSON null for never-born /
            // never-masked timelines; any number means the event
            // happened at that checkpoint index.
            if v.u64("birth").is_none() {
                continue;
            }
            p.born = p.born.saturating_add(1);
            p.born_outcomes.record_n(outcome, 1);
            if v.u64("masked").is_some() {
                p.masked = p.masked.saturating_add(1);
            }
            let distance = v.u64("distance").unwrap_or(0);
            let peak = v.u64("peak_pages").unwrap_or(0);
            *p.distance.entry(distance).or_insert(0) += 1;
            *p.peak_pages.entry(peak).or_insert(0) += 1;
            p.distance_sum = p.distance_sum.saturating_add(distance);
            p.peak_pages_sum = p.peak_pages_sum.saturating_add(peak);
        }
        Ok(())
    }

    fn cell_index(&self, v: &Fields<'_>, what: &str) -> Result<usize, String> {
        let ci = field_u64(v, "cell", what)?;
        match usize::try_from(ci) {
            Ok(ci) if ci < self.cells.len() => Ok(ci),
            _ => Err(format!("{what}: cell index {ci} out of range")),
        }
    }

    /// The machine-readable (`--json`) form of the report.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let n = c.counts.activated();
                let rate = |successes: u64| {
                    let pct = if n == 0 {
                        0.0
                    } else {
                        100.0 * successes as f64 / n as f64
                    };
                    // An exact distribution has no sampling error: the
                    // interval collapses onto the point estimate.
                    let (lo, hi) = if self.exact {
                        (pct, pct)
                    } else {
                        wilson_ci95(successes, n)
                    };
                    Json::Obj(vec![
                        ("count".into(), Json::u64(successes)),
                        ("pct".into(), Json::f64(pct)),
                        ("ci95".into(), Json::Arr(vec![Json::f64(lo), Json::f64(hi)])),
                    ])
                };
                let mut fields = vec![
                    ("label".into(), Json::str(c.label.clone())),
                    ("tool".into(), Json::str(c.tool.clone())),
                    ("category".into(), Json::str(c.category.clone())),
                    ("planned".into(), Json::u64(c.planned)),
                    ("executed".into(), Json::u64(c.counts.total())),
                    ("activated".into(), Json::u64(n)),
                    ("not_activated".into(), Json::u64(c.counts.not_activated)),
                    ("benign".into(), rate(c.counts.benign)),
                    ("sdc".into(), rate(c.counts.sdc)),
                    ("crash".into(), rate(c.counts.crash)),
                    ("hang".into(), rate(c.counts.hang)),
                    ("steps_recorded".into(), Json::u64(c.steps_recorded)),
                ];
                if self.exact {
                    fields.push(("space".into(), Json::u64(c.space)));
                    fields.push(("representatives".into(), Json::u64(c.records)));
                }
                if !c.counters.is_empty() {
                    let counters = c
                        .counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::u64(*v)))
                        .collect();
                    fields.push(("counters".into(), Json::Obj(counters)));
                    fields.push((
                        "attribution".into(),
                        Json::Obj(vec![
                            (
                                "skipped_ff_frac".into(),
                                Json::f64(c.step_fraction("steps_skipped_ff")),
                            ),
                            (
                                "executed_frac".into(),
                                Json::f64(c.step_fraction("steps_executed")),
                            ),
                            (
                                "reconstructed_ee_frac".into(),
                                Json::f64(c.step_fraction("steps_reconstructed_ee")),
                            ),
                        ]),
                    ));
                }
                if !c.hists.is_empty() {
                    let hists = c
                        .hists
                        .iter()
                        .map(|(k, d)| (k.clone(), hist_json(d)))
                        .collect();
                    fields.push(("hists".into(), Json::Obj(hists)));
                }
                if let Some(p) = &c.propagation {
                    fields.push(("propagation".into(), propagation_json(p)));
                }
                Json::Obj(fields)
            })
            .collect();
        let mut fields = vec![
            ("report".into(), Json::str("campaign")),
            (
                "collapse".into(),
                Json::str(if self.exact { "exact" } else { "sampled" }),
            ),
            ("seed".into(), Json::u64(self.seed)),
            ("injections".into(), Json::u64(self.injections)),
            ("hang_factor".into(), Json::u64(self.hang_factor)),
            ("cells".into(), Json::Arr(cells)),
        ];
        if let Some(e) = &self.engine {
            let counters = e
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::u64(*v)))
                .collect();
            let hists = e
                .hists
                .iter()
                .map(|(k, d)| (k.clone(), hist_json(d)))
                .collect();
            let events = e
                .events
                .iter()
                .map(|(k, v)| (k.clone(), Json::u64(*v)))
                .collect();
            fields.push((
                "engine".into(),
                Json::Obj(vec![
                    ("counters".into(), Json::Obj(counters)),
                    ("hists".into(), Json::Obj(hists)),
                    ("events".into(), Json::Obj(events)),
                    (
                        "worker_tasks".into(),
                        Json::Arr(e.worker_tasks.iter().map(|&t| Json::u64(t)).collect()),
                    ),
                    (
                        "summary".into(),
                        Json::Obj(vec![
                            ("total".into(), Json::u64(e.totals.total)),
                            ("done".into(), Json::u64(e.totals.done)),
                            ("resumed".into(), Json::u64(e.totals.resumed)),
                            ("fast_forwarded".into(), Json::u64(e.totals.fast_forwarded)),
                            ("early_exited".into(), Json::u64(e.totals.early_exited)),
                        ]),
                    ),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    /// The human-readable form of the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.exact {
            let _ = writeln!(
                out,
                "campaign report (exact collapse): seed {}, {} cell(s)",
                self.seed,
                self.cells.len()
            );
        } else {
            let _ = writeln!(
                out,
                "campaign report: seed {}, {} injections/cell, {} cell(s)",
                self.seed,
                self.injections,
                self.cells.len()
            );
        }
        for c in &self.cells {
            let n = c.counts.activated();
            if self.exact {
                let _ = writeln!(
                    out,
                    "\ncell {}/{}/{}: {} fault-space points via {} representatives, {} activated",
                    c.label,
                    c.tool,
                    c.category,
                    c.counts.total(),
                    c.records,
                    n
                );
            } else {
                let _ = writeln!(
                    out,
                    "\ncell {}/{}/{}: {} executed of {} planned, {} activated",
                    c.label,
                    c.tool,
                    c.category,
                    c.counts.total(),
                    c.planned,
                    n
                );
            }
            let _ = writeln!(
                out,
                "  {:<14} {:>7} {:>7}  95% CI",
                "outcome", "count", "pct"
            );
            for (name, count) in [
                ("benign", c.counts.benign),
                ("sdc", c.counts.sdc),
                ("crash", c.counts.crash),
                ("hang", c.counts.hang),
            ] {
                let pct = if n == 0 {
                    0.0
                } else {
                    100.0 * count as f64 / n as f64
                };
                // Exact distributions carry no sampling noise, so the
                // interval degenerates to the point estimate.
                let (lo, hi) = if self.exact {
                    (pct, pct)
                } else {
                    wilson_ci95(count, n)
                };
                let _ = writeln!(
                    out,
                    "  {name:<14} {count:>7} {pct:>6.1}%  [{lo:.1}, {hi:.1}]"
                );
            }
            if self.exact {
                let ratio = if c.space == 0 {
                    0.0
                } else {
                    100.0 * c.records as f64 / c.space as f64
                };
                let _ = writeln!(
                    out,
                    "  collapse: {} of {} points executed ({ratio:.1}%), CI width 0",
                    c.records, c.space
                );
            }
            let _ = writeln!(
                out,
                "  {:<14} {:>7}       -  -",
                "not-activated", c.counts.not_activated
            );
            if let Some(p) = &c.propagation {
                let _ = writeln!(
                    out,
                    "  propagation: {} timelines, {} born ({:.1}%), {} masked ({:.1}% of born)",
                    p.timelines,
                    p.born,
                    p.born_pct(),
                    p.masked,
                    p.masked_pct(),
                );
                let _ = writeln!(
                    out,
                    "  funnel: born→masked {}, born→sdc {}, born→crash {}, born→hang {}, \
                     born→benign-unmasked {}",
                    p.masked,
                    p.born_outcomes.sdc,
                    p.born_outcomes.crash,
                    p.born_outcomes.hang,
                    // Masked timelines settle benign, so the unmasked
                    // benign remainder is the difference; saturating
                    // because a truncated stream can break the identity.
                    p.born_outcomes.benign.saturating_sub(p.masked),
                );
                if p.born > 0 {
                    let _ = writeln!(
                        out,
                        "  distance (checkpoints): mean {:.1}, hist {}",
                        p.mean_distance(),
                        spread_hist(&p.distance),
                    );
                    let _ = writeln!(
                        out,
                        "  peak spread (pages): mean {:.1}, hist {}",
                        p.mean_peak_pages(),
                        spread_hist(&p.peak_pages),
                    );
                }
            }
            if c.counters.is_empty() {
                continue;
            }
            let tasks = c.counter("tasks");
            let pct_of = |part: u64, whole: u64| {
                if whole == 0 {
                    0.0
                } else {
                    100.0 * part as f64 / whole as f64
                }
            };
            let _ = writeln!(
                out,
                "  speedup: {} of {} tasks fast-forwarded ({:.1}%), {} early-exited ({:.1}%)",
                c.counter("fast_forwarded"),
                tasks,
                pct_of(c.counter("fast_forwarded"), tasks),
                c.counter("early_exited"),
                pct_of(c.counter("early_exited"), tasks),
            );
            let _ = writeln!(
                out,
                "  steps: {} reported = {:.1}% skipped (fast-forward) + {:.1}% executed \
                 + {:.1}% reconstructed (early-exit)",
                c.counter("steps_reported"),
                100.0 * c.step_fraction("steps_skipped_ff"),
                100.0 * c.step_fraction("steps_executed"),
                100.0 * c.step_fraction("steps_reconstructed_ee"),
            );
            let _ = writeln!(
                out,
                "  convergence: {} digest compares, {} matches, {} confirmed \
                 ({} collisions), {} unsettled pauses",
                c.counter("digest_compares"),
                c.counter("digest_matches"),
                c.counter("converged"),
                // saturating: a partial stream (killed campaign, empty
                // resume) can carry `converged` without the matching
                // `digest_matches` counter flush.
                c.counter("digest_matches")
                    .saturating_sub(c.counter("converged")),
                c.counter("pauses_unsettled"),
            );
            let _ = writeln!(
                out,
                "  verdicts: {} activated, {} overwritten, {} dormant",
                c.counter("verdict_activated"),
                c.counter("verdict_overwritten"),
                c.counter("verdict_dormant"),
            );
            let hashed = c.counter("snap_pages_hashed");
            let reused = c.counter("snap_pages_reused");
            if hashed + reused > 0 {
                let _ = writeln!(
                    out,
                    "  snapshots: {} of {} pages reused clean hashes ({:.1}%)",
                    reused,
                    hashed + reused,
                    pct_of(reused, hashed + reused),
                );
            }
            if let Some(r) = c.hists.get("restore_ns").filter(|r| r.count() > 0) {
                let copied = c.counter("restore_pages_copied");
                let _ = writeln!(
                    out,
                    "  restore: {} restores, mean {:.0} ns, p50 ≤ {} ns, p99 ≤ {} ns; \
                     {} pages copied ({:.1}/restore)",
                    r.count(),
                    r.mean(),
                    r.quantile(0.5),
                    r.quantile(0.99),
                    copied,
                    copied as f64 / r.count() as f64,
                );
            }
            let compared = c.counter("pages_compared");
            if compared > 0 {
                let _ = writeln!(
                    out,
                    "  page compares: {compared} pages hashed or byte-compared \
                     at checkpoints ({:.1}/task)",
                    compared as f64 / tasks.max(1) as f64,
                );
            }
            if let Some(lat) = c.hists.get("task_latency_us") {
                let _ = writeln!(
                    out,
                    "  latency/task: mean {:.0} µs, p50 ≤ {} µs, p99 ≤ {} µs",
                    lat.mean(),
                    lat.quantile(0.5),
                    lat.quantile(0.99),
                );
            }
        }
        // LLFI-vs-PINFI spread comparison: for every (label, category)
        // pair present under both tools, put their propagation means
        // side by side — the paper's accuracy question restated in
        // pages and checkpoints.
        let pairs: Vec<(&CellSummary, &CellSummary)> = self
            .cells
            .iter()
            .filter(|c| c.tool == "llfi" && c.propagation.is_some())
            .filter_map(|l| {
                self.cells
                    .iter()
                    .find(|p| {
                        p.tool == "pinfi"
                            && p.label == l.label
                            && p.category == l.category
                            && p.propagation.is_some()
                    })
                    .map(|p| (l, p))
            })
            .collect();
        if !pairs.is_empty() {
            let _ = writeln!(out, "\npropagation, llfi vs pinfi:");
            for (l, p) in pairs {
                let (lp, pp) = (
                    l.propagation.as_ref().expect("filtered above"),
                    p.propagation.as_ref().expect("filtered above"),
                );
                let _ = writeln!(
                    out,
                    "  {}/{}: born {:.1}% vs {:.1}%, masked {:.1}% vs {:.1}%, \
                     mean spread {:.1} vs {:.1} pages, mean distance {:.1} vs {:.1} checkpoints",
                    l.label,
                    l.category,
                    lp.born_pct(),
                    pp.born_pct(),
                    lp.masked_pct(),
                    pp.masked_pct(),
                    lp.mean_peak_pages(),
                    pp.mean_peak_pages(),
                    lp.mean_distance(),
                    pp.mean_distance(),
                );
            }
        }
        if let Some(e) = &self.engine {
            let (min, max) = (
                e.worker_tasks.iter().min().copied().unwrap_or(0),
                e.worker_tasks.iter().max().copied().unwrap_or(0),
            );
            let _ = writeln!(
                out,
                "\nengine: {}/{} tasks done ({} resumed) on {} worker(s) \
                 (min {min} / max {max} per worker)",
                e.totals.done,
                e.totals.total,
                e.totals.resumed,
                e.worker_tasks.len(),
            );
            let _ = writeln!(
                out,
                "  records: {} written in {} flushes; events: {}",
                e.counters.get("records_written").copied().unwrap_or(0),
                e.counters.get("record_flushes").copied().unwrap_or(0),
                e.events.values().sum::<u64>(),
            );
        }
        out
    }
}

fn parse_hist(v: &Fields<'_>, what: &str) -> Result<HistData, String> {
    let mut data = HistData {
        sum: field_u64(v, "sum", what)?,
        ..HistData::default()
    };
    let count = field_u64(v, "count", what)?;
    let buckets = v
        .get("buckets")
        .and_then(Field::as_raw)
        .map(Json::parse)
        .transpose()?;
    for pair in buckets
        .as_ref()
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{what}: hist missing buckets"))?
    {
        let pair = pair
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("{what}: malformed hist bucket"))?;
        let (i, c) = (
            pair[0]
                .as_u64()
                .ok_or_else(|| format!("{what}: malformed hist bucket"))? as usize,
            pair[1]
                .as_u64()
                .ok_or_else(|| format!("{what}: malformed hist bucket"))?,
        );
        if i >= HIST_BUCKETS {
            return Err(format!("{what}: hist bucket index {i} out of range"));
        }
        data.buckets[i] = c;
    }
    if data.count() != count {
        return Err(format!(
            "{what}: hist bucket counts sum to {} but count field says {count}",
            data.count()
        ));
    }
    Ok(data)
}

/// Renders a value→count map as `v:c v:c …` (or `-` when empty).
fn spread_hist(map: &BTreeMap<u64, u64>) -> String {
    if map.is_empty() {
        return "-".into();
    }
    map.iter()
        .map(|(v, c)| format!("{v}:{c}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn propagation_json(p: &Propagation) -> Json {
    let pairs = |map: &BTreeMap<u64, u64>| {
        Json::Arr(
            map.iter()
                .map(|(&v, &c)| Json::Arr(vec![Json::u64(v), Json::u64(c)]))
                .collect(),
        )
    };
    Json::Obj(vec![
        ("timelines".into(), Json::u64(p.timelines)),
        ("born".into(), Json::u64(p.born)),
        ("masked".into(), Json::u64(p.masked)),
        (
            "born_outcomes".into(),
            Json::Obj(vec![
                ("benign".into(), Json::u64(p.born_outcomes.benign)),
                ("sdc".into(), Json::u64(p.born_outcomes.sdc)),
                ("crash".into(), Json::u64(p.born_outcomes.crash)),
                ("hang".into(), Json::u64(p.born_outcomes.hang)),
            ]),
        ),
        ("mean_distance".into(), Json::f64(p.mean_distance())),
        ("mean_peak_pages".into(), Json::f64(p.mean_peak_pages())),
        ("distance_hist".into(), pairs(&p.distance)),
        ("peak_pages_hist".into(), pairs(&p.peak_pages)),
    ])
}

fn hist_json(d: &HistData) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::u64(d.count())),
        ("sum".into(), Json::u64(d.sum)),
        ("mean".into(), Json::f64(d.mean())),
        ("p50".into(), Json::u64(d.quantile(0.5))),
        ("p99".into(), Json::u64(d.quantile(0.99))),
        ("max".into(), Json::u64(d.max_bound())),
        (
            "buckets".into(),
            Json::Arr(
                d.nonempty()
                    .map(|(i, c)| Json::Arr(vec![Json::u64(i as u64), Json::u64(c)]))
                    .collect(),
            ),
        ),
    ])
}
