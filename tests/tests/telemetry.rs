//! The telemetry layer must be an observer, never a participant: the
//! record stream is byte-identical with telemetry on or off, the
//! deterministic counters agree across thread counts, and the `report`
//! join reproduces the record-stream ground truth exactly. On top of the
//! invariance sweep: schema assertions for `telemetry.jsonl` and
//! `fiq report --json` (these back the CI schema check), the per-cell
//! step-attribution identity, and the guaranteed final progress
//! emission — including the fully-resumed campaign that spawns no work.

use fiq_asm::MachOptions;
use fiq_backend::LowerOptions;
use fiq_core::json::Json;
use fiq_core::telemetry::DETERMINISTIC_CELL_HISTS;
use fiq_core::{
    profile_llfi, profile_llfi_with_snapshots, profile_pinfi, profile_pinfi_with_snapshots,
    run_campaign, CampaignConfig, CampaignReport, CampaignRun, Category, CellSpec, EngineOptions,
    Progress, SnapshotCache, Substrate, HUB_SPEC, TELEMETRY_VERSION,
};
use fiq_interp::InterpOptions;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Masked-load kernel (same shape as the early-exit suite): most `load`
/// flips are benign and reconverge within one iteration, so both
/// fast-forward and early exit actually fire and show up in telemetry.
const KERNEL: &str = "
int vals[64];
int main() {
  int seed = 3;
  for (int i = 0; i < 64; i += 1) {
    seed = (seed * 1103515245 + 12345) & 2147483647;
    vals[i] = seed;
  }
  int s = 0;
  for (int r = 0; r < 40; r += 1) {
    for (int i = 0; i < 64; i += 1) {
      s += vals[i] & 1;
    }
  }
  print_i64(s);
  return 0;
}";

fn compiled(source: &str) -> (fiq_ir::Module, fiq_asm::AsmProgram) {
    let mut m = fiq_frontend::compile("kernel", source).expect("compiles");
    fiq_opt::optimize_module(&mut m);
    let p = fiq_backend::lower_module(&m, LowerOptions::default()).expect("lowers");
    (m, p)
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fiq-tel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// One llfi + one pinfi cell over `load`, with snapshot caches so both
/// optimizations are live.
struct Fixture {
    module: fiq_ir::Module,
    prog: fiq_asm::AsmProgram,
    lp: fiq_core::LlfiProfile,
    pp: fiq_core::PinfiProfile,
    snaps: (Arc<SnapshotCache>, Arc<SnapshotCache>),
}

impl Fixture {
    fn new() -> Fixture {
        let (module, prog) = compiled(KERNEL);
        let lp = profile_llfi(&module, InterpOptions::default()).unwrap();
        let pp = profile_pinfi(&prog, MachOptions::default()).unwrap();
        let (_, ls) = profile_llfi_with_snapshots(&module, InterpOptions::default(), 97).unwrap();
        let (_, ps) = profile_pinfi_with_snapshots(&prog, MachOptions::default(), 97).unwrap();
        Fixture {
            module,
            prog,
            lp,
            pp,
            snaps: (
                Arc::new(SnapshotCache::Llfi(ls)),
                Arc::new(SnapshotCache::Pinfi(ps)),
            ),
        }
    }

    fn cells(&self) -> Vec<CellSpec<'_>> {
        vec![
            CellSpec {
                label: "kernel".into(),
                category: Category::Load,
                substrate: Substrate::Llfi {
                    module: &self.module,
                    profile: &self.lp,
                },
                snapshots: Some(Arc::clone(&self.snaps.0)),
            },
            CellSpec {
                label: "kernel".into(),
                category: Category::Load,
                substrate: Substrate::Pinfi {
                    prog: &self.prog,
                    profile: &self.pp,
                },
                snapshots: Some(Arc::clone(&self.snaps.1)),
            },
        ]
    }

    fn run(
        &self,
        threads: usize,
        records: &Path,
        telemetry: Option<&Path>,
        resume: bool,
    ) -> CampaignRun {
        self.try_run(77, threads, records, telemetry, resume)
            .unwrap()
    }

    fn try_run(
        &self,
        seed: u64,
        threads: usize,
        records: &Path,
        telemetry: Option<&Path>,
        resume: bool,
    ) -> Result<CampaignRun, String> {
        run_campaign(
            &self.cells(),
            &CampaignConfig {
                injections: 16,
                seed,
                threads,
                ..CampaignConfig::default()
            },
            &EngineOptions {
                records: Some(records),
                telemetry,
                resume,
                fast_forward: true,
                early_exit: true,
                ..EngineOptions::default()
            },
        )
    }
}

/// A parsed histogram line: (count, sum, sparse buckets).
type HistLine = (u64, u64, Vec<(u64, u64)>);

/// The telemetry stream, re-keyed by metric name for comparisons.
#[derive(Default)]
struct Tel {
    engine_counters: BTreeMap<String, u64>,
    /// (cell index, metric name) → value.
    cell_counters: BTreeMap<(u64, String), u64>,
    /// (cell index, metric name) → histogram.
    cell_hists: BTreeMap<(u64, String), HistLine>,
    summary: Option<Json>,
}

fn u(j: &Json, key: &str) -> u64 {
    j.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing u64 {key} in {j}"))
}

fn s<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing str {key} in {j}"))
}

fn parse_telemetry(path: &Path) -> Tel {
    let text = std::fs::read_to_string(path).unwrap();
    let mut tel = Tel::default();
    let mut lines = text.lines();
    let header = Json::parse(lines.next().expect("has header")).unwrap();
    assert_eq!(s(&header, "record"), "telemetry");
    for line in lines {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        match s(&j, "record") {
            "counter" => match s(&j, "scope") {
                "engine" => {
                    tel.engine_counters
                        .insert(s(&j, "name").into(), u(&j, "value"));
                }
                "cell" => {
                    tel.cell_counters
                        .insert((u(&j, "cell"), s(&j, "name").into()), u(&j, "value"));
                }
                other => panic!("unknown counter scope {other}"),
            },
            "hist" => {
                if s(&j, "scope") == "cell" {
                    let buckets = j
                        .get("buckets")
                        .and_then(Json::as_array)
                        .unwrap()
                        .iter()
                        .map(|b| {
                            let pair = b.as_array().unwrap();
                            (pair[0].as_u64().unwrap(), pair[1].as_u64().unwrap())
                        })
                        .collect();
                    tel.cell_hists.insert(
                        (u(&j, "cell"), s(&j, "name").into()),
                        (u(&j, "count"), u(&j, "sum"), buckets),
                    );
                }
            }
            "worker" => {}
            "summary" => tel.summary = Some(j),
            other => panic!("unknown record kind {other}"),
        }
    }
    tel
}

#[test]
fn records_are_byte_identical_with_telemetry_on_and_off() {
    let fx = Fixture::new();
    let plain = temp_path("plain.jsonl");
    let observed = temp_path("observed.jsonl");
    let tel = temp_path("observed-tel.jsonl");

    let base = fx.run(4, &plain, None, false);
    let run = fx.run(4, &observed, Some(&tel), false);

    assert_eq!(run.cells, base.cells, "cell reports must match");
    assert_eq!(
        std::fs::read_to_string(&observed).unwrap(),
        std::fs::read_to_string(&plain).unwrap(),
        "record stream must be byte-identical with telemetry enabled"
    );
    assert!(tel.exists(), "telemetry file must be written");
    for p in [&plain, &observed, &tel] {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn deterministic_telemetry_is_identical_across_thread_counts() {
    let fx = Fixture::new();
    let mut per_threads = Vec::new();
    for threads in [1usize, 2, 4] {
        let rec = temp_path(&format!("det-{threads}.jsonl"));
        let tel = temp_path(&format!("det-{threads}-tel.jsonl"));
        fx.run(threads, &rec, Some(&tel), false);
        per_threads.push(parse_telemetry(&tel));
        std::fs::remove_file(&rec).unwrap();
        std::fs::remove_file(&tel).unwrap();
    }

    let base = &per_threads[0];
    // Every cell counter is deterministic: counts of tasks, verdicts,
    // step splits, checkpoint compares, and snapshot page reuse depend only
    // on the planned injections, never on scheduling.
    for t in &per_threads[1..] {
        assert_eq!(
            t.cell_counters, base.cell_counters,
            "cell counters must not depend on --threads"
        );
        for &hist in DETERMINISTIC_CELL_HISTS {
            let name = HUB_SPEC.cell_hists[hist];
            for cell in 0..2u64 {
                assert_eq!(
                    t.cell_hists.get(&(cell, name.into())),
                    base.cell_hists.get(&(cell, name.into())),
                    "step-valued histogram {name} must not depend on --threads"
                );
            }
        }
        // Deterministic engine totals (flush batching is order-dependent
        // and deliberately excluded).
        for name in ["tasks", "resumed_tasks", "records_written"] {
            assert_eq!(
                t.engine_counters[name], base.engine_counters[name],
                "{name}"
            );
        }
    }
}

#[test]
fn telemetry_totals_match_run_and_step_attribution_balances() {
    let fx = Fixture::new();
    let rec = temp_path("attr.jsonl");
    let tel_path = temp_path("attr-tel.jsonl");
    let run = fx.run(2, &rec, Some(&tel_path), false);
    let tel = parse_telemetry(&tel_path);

    let cell_sum = |name: &str| -> u64 {
        (0..2u64)
            .map(|c| tel.cell_counters[&(c, name.into())])
            .sum()
    };
    assert_eq!(
        cell_sum("tasks") as usize,
        run.total_tasks - run.resumed_tasks
    );
    assert_eq!(
        cell_sum("fast_forwarded") as usize,
        run.fast_forwarded_tasks
    );
    assert_eq!(cell_sum("early_exited") as usize, run.early_exited_tasks);
    assert!(run.fast_forwarded_tasks > 0, "fixture must fast-forward");
    assert!(run.early_exited_tasks > 0, "fixture must early-exit");

    // Per cell: reported steps split exactly into skipped + executed +
    // reconstructed, and the recorded verdicts cover every task.
    for c in 0..2u64 {
        let k = |name: &str| tel.cell_counters[&(c, name.to_string())];
        assert_eq!(
            k("steps_reported"),
            k("steps_skipped_ff") + k("steps_executed") + k("steps_reconstructed_ee"),
            "cell {c}: step attribution must balance"
        );
        assert_eq!(
            k("tasks"),
            k("verdict_activated") + k("verdict_overwritten") + k("verdict_dormant"),
            "cell {c}: every task gets exactly one verdict"
        );
    }

    // The summary trailer mirrors the run struct.
    let summary = tel.summary.as_ref().expect("summary line");
    assert_eq!(u(summary, "total") as usize, run.total_tasks);
    assert_eq!(u(summary, "done") as usize, run.total_tasks);
    assert_eq!(
        u(summary, "fast_forwarded") as usize,
        run.fast_forwarded_tasks
    );
    assert_eq!(u(summary, "early_exited") as usize, run.early_exited_tasks);

    std::fs::remove_file(&rec).unwrap();
    std::fs::remove_file(&tel_path).unwrap();
}

#[test]
fn report_reproduces_record_ground_truth() {
    let fx = Fixture::new();
    let rec = temp_path("report.jsonl");
    let tel_path = temp_path("report-tel.jsonl");
    let run = fx.run(2, &rec, Some(&tel_path), false);

    // Ground truth straight from the record stream, keyed by tool.
    let mut truth: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    let mut steps: BTreeMap<String, u64> = BTreeMap::new();
    for line in std::fs::read_to_string(&rec).unwrap().lines() {
        let j = Json::parse(line).unwrap();
        if s(&j, "record") != "injection" {
            continue;
        }
        let tool = s(&j, "tool").to_string();
        *truth
            .entry(tool.clone())
            .or_default()
            .entry(s(&j, "outcome").into())
            .or_default() += 1;
        *steps.entry(tool).or_default() += u(&j, "steps");
    }

    let report = CampaignReport::build(&rec, Some(&tel_path), None).unwrap();
    let json = report.to_json();
    assert_eq!(s(&json, "report"), "campaign");
    assert_eq!(u(&json, "seed"), 77);
    let cells = json.get("cells").and_then(Json::as_array).unwrap();
    assert_eq!(cells.len(), 2);
    for (i, cell) in cells.iter().enumerate() {
        let tool = s(cell, "tool");
        let t = &truth[tool];
        let count = |name: &str| t.get(name).copied().unwrap_or(0);
        assert_eq!(u(cell, "executed"), 16, "cell {i}");
        assert_eq!(u(cell, "not_activated"), count("not-activated"));
        for outcome in ["benign", "sdc", "crash", "hang"] {
            let rate = cell
                .get(outcome)
                .unwrap_or_else(|| panic!("missing {outcome}"));
            assert_eq!(u(rate, "count"), count(outcome), "{tool}/{outcome}");
            let ci = rate.get("ci95").and_then(Json::as_array).unwrap();
            assert_eq!(ci.len(), 2, "CI is [lo, hi]");
            let (lo, hi) = (ci[0].as_f64().unwrap(), ci[1].as_f64().unwrap());
            let pct = rate.get("pct").and_then(Json::as_f64).unwrap();
            assert!(
                lo <= pct && pct <= hi,
                "{tool}/{outcome}: {lo} ≤ {pct} ≤ {hi}"
            );
        }
        assert_eq!(u(cell, "steps_recorded"), steps[tool], "{tool}: steps");

        // Attribution fractions come from telemetry and must cover the
        // reported steps exactly.
        let attr = cell.get("attribution").expect("telemetry merged in");
        let total: f64 = ["skipped_ff_frac", "executed_frac", "reconstructed_ee_frac"]
            .iter()
            .map(|k| attr.get(k).and_then(Json::as_f64).unwrap())
            .sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{tool}: fractions sum to 1, got {total}"
        );
    }

    // The engine section mirrors the run.
    let engine = json.get("engine").expect("engine section");
    let summary = engine.get("summary").expect("summary");
    assert_eq!(u(summary, "done") as usize, run.total_tasks);
    assert_eq!(
        u(summary, "fast_forwarded") as usize,
        run.fast_forwarded_tasks
    );

    // The human rendering agrees on the headline numbers.
    let rendered = report.render();
    assert!(rendered.contains("kernel/llfi/load"), "{rendered}");
    assert!(rendered.contains("kernel/pinfi/load"), "{rendered}");

    std::fs::remove_file(&rec).unwrap();
    std::fs::remove_file(&tel_path).unwrap();
}

/// A report over a degenerate campaign — a cell where every injection was
/// dormant (zero activated faults) and a cell that never executed
/// anything (fully-resumed / empty cell) — must produce zeros, not
/// divide-by-zero NaNs or u64-underflow panics.
#[test]
fn report_survives_zero_activated_cells() {
    let rec = temp_path("zero-act.jsonl");
    let tel = temp_path("zero-act-tel.jsonl");
    let header_cells = r#"[{"label":"k","tool":"llfi","category":"load","planned":4},{"label":"k","tool":"pinfi","category":"load","planned":4}]"#;
    let mut records = format!(
        "{{\"record\":\"campaign\",\"version\":1,\"seed\":5,\"injections\":4,\
         \"hang_factor\":10,\"cells\":{header_cells}}}\n"
    );
    // Cell 0: all four injections executed but dormant. Cell 1: nothing
    // executed at all (the empty-resume shape).
    for task in 0..4 {
        records.push_str(&format!(
            "{{\"record\":\"injection\",\"task\":{task},\"cell\":\"k\",\"tool\":\"llfi\",\
             \"category\":\"load\",\"outcome\":\"not-activated\",\"steps\":100}}\n"
        ));
    }
    std::fs::write(&rec, records).unwrap();
    let mut telemetry = format!(
        "{{\"record\":\"telemetry\",\"version\":{TELEMETRY_VERSION},\"seed\":5,\
         \"cells\":{header_cells}}}\n"
    );
    for (name, value) in [
        ("tasks", 4u64),
        ("verdict_dormant", 4),
        ("steps_reported", 0),
    ] {
        telemetry.push_str(&format!(
            "{{\"record\":\"counter\",\"scope\":\"cell\",\"cell\":0,\
             \"name\":\"{name}\",\"value\":{value}}}\n"
        ));
    }
    telemetry.push_str(
        "{\"record\":\"summary\",\"total\":8,\"done\":8,\"resumed\":4,\
         \"fast_forwarded\":0,\"early_exited\":0}\n",
    );
    std::fs::write(&tel, telemetry).unwrap();

    let report = CampaignReport::build(&rec, Some(&tel), None).unwrap();
    let rendered = report.render();
    assert!(rendered.contains("0 activated"), "{rendered}");
    assert!(!rendered.contains("NaN"), "{rendered}");
    let json = report.to_json().to_string();
    assert!(!json.contains("NaN") && !json.contains("null"), "{json}");
    for cell in report
        .to_json()
        .get("cells")
        .and_then(Json::as_array)
        .unwrap()
    {
        for outcome in ["benign", "sdc", "crash", "hang"] {
            let rate = cell.get(outcome).unwrap();
            assert_eq!(rate.get("pct").and_then(Json::as_f64), Some(0.0));
        }
    }

    // A summary claiming more resumed than done (torn stream) must be a
    // clean inconsistency error, not an integer-underflow panic.
    let torn = temp_path("zero-act-torn.jsonl");
    std::fs::write(
        &torn,
        format!(
            "{{\"record\":\"telemetry\",\"version\":{TELEMETRY_VERSION},\"seed\":5,\
             \"cells\":{header_cells}}}\n\
             {{\"record\":\"counter\",\"scope\":\"cell\",\"cell\":0,\
             \"name\":\"tasks\",\"value\":4}}\n\
             {{\"record\":\"summary\",\"total\":8,\"done\":2,\"resumed\":6,\
             \"fast_forwarded\":0,\"early_exited\":0}}\n"
        ),
    )
    .unwrap();
    let err = CampaignReport::build(&rec, Some(&torn), None).unwrap_err();
    assert!(err.contains("inconsistent"), "{err}");

    for p in [&rec, &tel, &torn] {
        std::fs::remove_file(p).unwrap();
    }
}

/// A campaign resumed to 100% from a complete record file spawns no
/// worker tasks: its fresh telemetry stream reports every task as
/// resumed and all execution counters as zero. `fiq report` over that
/// records + telemetry pair must join cleanly — identical outcome
/// tables to the original run, no NaN from dividing by the zero
/// executed count, and no misattribution of the resumed tasks to any
/// cell's execution counters.
#[test]
fn report_joins_fully_resumed_telemetry() {
    let fx = Fixture::new();
    let rec = temp_path("full-resume.jsonl");
    let tel_first = temp_path("full-resume-tel1.jsonl");
    let tel_second = temp_path("full-resume-tel2.jsonl");
    fx.run(2, &rec, Some(&tel_first), false);
    let baseline = CampaignReport::build(&rec, Some(&tel_first), None).unwrap();

    let run = fx.run(2, &rec, Some(&tel_second), true);
    assert_eq!(
        run.resumed_tasks, run.total_tasks,
        "fixture must fully resume"
    );

    let report = CampaignReport::build(&rec, Some(&tel_second), None).unwrap();
    for (a, b) in report.cells.iter().zip(&baseline.cells) {
        assert_eq!(
            a.counts, b.counts,
            "outcome tables come from the record stream and must survive \
             a fully-resumed telemetry join"
        );
        assert_eq!(
            a.counter("tasks"),
            0,
            "no task executed, so nothing may be attributed"
        );
    }
    let engine = report.engine.as_ref().expect("telemetry merged");
    assert_eq!(engine.totals.resumed, engine.totals.done);

    let rendered = report.render();
    assert!(!rendered.contains("NaN"), "{rendered}");
    let json = report.to_json().to_string();
    assert!(!json.contains("NaN") && !json.contains("null"), "{json}");

    for p in [&rec, &tel_first, &tel_second] {
        std::fs::remove_file(p).unwrap();
    }
}

/// Resume checks the telemetry file's header like the record file's: a
/// telemetry stream from another campaign (here another seed) is
/// refused by name and left as it was, even when the record file
/// matches.
#[test]
fn resume_refuses_a_telemetry_file_from_another_campaign() {
    let fx = Fixture::new();
    let rec = temp_path("foreign-tel.jsonl");
    let other_rec = temp_path("foreign-tel-other.jsonl");
    let other_tel = temp_path("foreign-tel-other-tel.jsonl");
    fx.run(2, &rec, None, false);
    fx.try_run(78, 2, &other_rec, Some(&other_tel), false)
        .unwrap();
    let foreign = std::fs::read(&other_tel).unwrap();

    let err = fx.try_run(77, 2, &rec, Some(&other_tel), true).unwrap_err();
    assert!(
        err.contains("different campaign") && err.contains(&other_tel.display().to_string()),
        "expected a campaign mismatch naming the telemetry file, got: {err}"
    );
    assert_eq!(
        std::fs::read(&other_tel).unwrap(),
        foreign,
        "a refused telemetry file must be left unchanged"
    );
    for p in [&rec, &other_rec, &other_tel] {
        std::fs::remove_file(p).unwrap();
    }
}

/// A resume over a prior attempt's telemetry starts the stream afresh:
/// it joins into a report, its summary counts the kept record prefix as
/// resumed, and the cell task counters cover only the re-executed rest.
#[test]
fn resumed_telemetry_counts_only_the_executed_tasks() {
    let fx = Fixture::new();
    let rec = temp_path("partial-resume.jsonl");
    let tel = temp_path("partial-resume-tel.jsonl");
    fx.run(2, &rec, Some(&tel), false);
    let baseline = CampaignReport::build(&rec, Some(&tel), None).unwrap();

    // A kill after 10 of 32 tasks reached the record file.
    const KEPT: usize = 10;
    let full = std::fs::read_to_string(&rec).unwrap();
    let prefix: String = full
        .lines()
        .take(1 + KEPT)
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&rec, prefix).unwrap();

    let run = fx.run(2, &rec, Some(&tel), true);
    assert_eq!(run.resumed_tasks, KEPT);
    assert_eq!(std::fs::read_to_string(&rec).unwrap(), full);

    let report = CampaignReport::build(&rec, Some(&tel), None).unwrap();
    let engine = report.engine.as_ref().expect("telemetry merged");
    assert_eq!(engine.totals.resumed, KEPT as u64);
    assert_eq!(engine.totals.done, run.total_tasks as u64);
    let executed: u64 = report.cells.iter().map(|c| c.counter("tasks")).sum();
    assert_eq!(executed, engine.totals.done - engine.totals.resumed);
    for (a, b) in report.cells.iter().zip(&baseline.cells) {
        assert_eq!(a.counts, b.counts, "outcome tables come from the records");
    }
    for p in [&rec, &tel] {
        std::fs::remove_file(p).unwrap();
    }
}

/// An unwritable telemetry path fails the run before any task executes:
/// the error names the path and the record file holds only its header.
#[test]
fn unwritable_telemetry_path_fails_before_any_task() {
    let fx = Fixture::new();
    let rec = temp_path("no-tel-dir.jsonl");
    let tel = temp_path("missing-dir").join("tel.jsonl");
    let err = fx.try_run(77, 2, &rec, Some(&tel), false).unwrap_err();
    assert!(
        err.contains(&tel.display().to_string()),
        "the error must name the telemetry path, got: {err}"
    );
    let records = std::fs::read_to_string(&rec).unwrap();
    assert_eq!(records.lines().count(), 1, "{records}");
    assert!(records.starts_with(r#"{"record":"campaign""#), "{records}");
    std::fs::remove_file(&rec).unwrap();
}

/// The telemetry header reaches the disk before the first task ends, so
/// a run killed mid-flight leaves a stream whose header `--resume` can
/// check, not an empty file it must refuse.
#[test]
fn telemetry_header_is_on_disk_while_tasks_run() {
    let fx = Fixture::new();
    let rec = temp_path("header-first.jsonl");
    let tel = temp_path("header-first-tel.jsonl");
    let first: Mutex<Option<String>> = Mutex::new(None);
    let progress = |_: Progress| {
        first
            .lock()
            .unwrap()
            .get_or_insert_with(|| std::fs::read_to_string(&tel).unwrap());
    };
    run_campaign(
        &fx.cells(),
        &CampaignConfig {
            injections: 16,
            seed: 77,
            threads: 1,
            ..CampaignConfig::default()
        },
        &EngineOptions {
            records: Some(&rec),
            telemetry: Some(&tel),
            progress: Some(&progress),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let first = first.into_inner().unwrap().expect("progress fired");
    let header = std::fs::read_to_string(&tel).unwrap();
    let header = header.lines().next().unwrap();
    assert_eq!(
        first,
        format!("{header}\n"),
        "only the header, and all of it"
    );
    for p in [&rec, &tel] {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn final_progress_is_always_emitted() {
    let fx = Fixture::new();
    let rec = temp_path("prog.jsonl");
    let snapshots: Mutex<Vec<(usize, usize, usize)>> = Mutex::new(Vec::new());
    let progress = |p: Progress| {
        snapshots
            .lock()
            .unwrap()
            .push((p.completed, p.total, p.resumed));
    };
    run_campaign(
        &fx.cells(),
        &CampaignConfig {
            injections: 16,
            seed: 77,
            threads: 4,
            ..CampaignConfig::default()
        },
        &EngineOptions {
            records: Some(&rec),
            fast_forward: true,
            early_exit: true,
            progress: Some(&progress),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let seen = snapshots.lock().unwrap().clone();
    let last = seen.last().expect("progress fired");
    assert_eq!(
        (last.0, last.1),
        (32, 32),
        "final snapshot shows done == planned"
    );

    // A fully-resumed campaign spawns no task work at all, yet the final
    // snapshot must still arrive (and show everything as resumed).
    snapshots.lock().unwrap().clear();
    run_campaign(
        &fx.cells(),
        &CampaignConfig {
            injections: 16,
            seed: 77,
            threads: 4,
            ..CampaignConfig::default()
        },
        &EngineOptions {
            records: Some(&rec),
            resume: true,
            fast_forward: true,
            early_exit: true,
            progress: Some(&progress),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let seen = snapshots.lock().unwrap().clone();
    let last = seen.last().expect("fully-resumed campaign still reports");
    assert_eq!(
        (last.0, last.1, last.2),
        (32, 32, 32),
        "final snapshot of a fully-resumed campaign"
    );

    std::fs::remove_file(&rec).unwrap();
}
