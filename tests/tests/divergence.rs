//! The divergence observatory must be an observer, never a participant:
//! the record stream is byte-identical with `--divergence` on or off,
//! and the timeline stream itself is byte-identical across thread
//! counts and fast-forward — the same invariance bar
//! the record stream already clears. On top of the invariance sweep:
//! the resume reconciliation of a torn timeline tail, the
//! missing-file-on-resume error, the stream schema the CI check backs
//! on, the report's propagation join (including truncated and absent
//! streams), and the cross-validation of interp-side timelines against
//! the SSA taint tracer — memory divergence without taint would mean
//! one of the two observers is lying.

use fiq_asm::MachOptions;
use fiq_backend::LowerOptions;
use fiq_core::json::Json;
use fiq_core::{
    plan_llfi, profile_llfi, profile_llfi_with_snapshots, profile_pinfi_with_snapshots,
    run_campaign, run_llfi_observed, trace_llfi, CampaignConfig, CampaignReport, CampaignRun,
    Category, CellSpec, EngineOptions, GoldenRef, Outcome, SnapshotCache, Substrate, TaskTel,
    Timeline,
};
use fiq_interp::InterpOptions;
use fiq_mem::component;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Store-then-reduce kernel with per-round overwrites: stores of a
/// tainted `seed` put divergence into memory pages, the next round's
/// rewrite masks it again, and the parity reduction keeps a bit-0 flip
/// alive as an SDC — so campaigns over it produce born, masked, and
/// never-born timelines in one run.
const KERNEL: &str = "
int vals[64];
int main() {
  int s = 0;
  for (int r = 0; r < 8; r += 1) {
    int seed = 3 + r;
    for (int i = 0; i < 64; i += 1) {
      seed = (seed * 1103515245 + 12345) & 2147483647;
      vals[i] = seed;
    }
    for (int i = 0; i < 64; i += 1) s += vals[i] & 1;
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
    let dir = std::env::temp_dir().join(format!("fiq-div-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// One llfi + one pinfi cell over `all`, with snapshot caches so the
/// checkpoint stream the timelines hang off actually exists.
struct Fixture {
    module: fiq_ir::Module,
    prog: fiq_asm::AsmProgram,
    lp: fiq_core::LlfiProfile,
    pp: fiq_core::PinfiProfile,
    snaps: (Arc<SnapshotCache>, Arc<SnapshotCache>),
}

const INJECTIONS: u32 = 10;
const TASKS: usize = 2 * INJECTIONS as usize;

impl Fixture {
    fn new() -> Fixture {
        let (module, prog) = compiled(KERNEL);
        let lp = profile_llfi(&module, InterpOptions::default()).unwrap();
        let pp = fiq_core::profile_pinfi(&prog, MachOptions::default()).unwrap();
        let (_, ls) = profile_llfi_with_snapshots(&module, InterpOptions::default(), 211).unwrap();
        let (_, ps) = profile_pinfi_with_snapshots(&prog, MachOptions::default(), 211).unwrap();
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
                category: Category::All,
                substrate: Substrate::Llfi {
                    module: &self.module,
                    profile: &self.lp,
                },
                snapshots: Some(Arc::clone(&self.snaps.0)),
            },
            CellSpec {
                label: "kernel".into(),
                category: Category::All,
                substrate: Substrate::Pinfi {
                    prog: &self.prog,
                    profile: &self.pp,
                },
                snapshots: Some(Arc::clone(&self.snaps.1)),
            },
        ]
    }

    fn try_run(
        &self,
        threads: usize,
        fast_forward: bool,
        records: Option<&Path>,
        divergence: Option<&Path>,
        resume: bool,
    ) -> Result<CampaignRun, String> {
        run_campaign(
            &self.cells(),
            &CampaignConfig {
                injections: INJECTIONS,
                seed: 77,
                threads,
                ..CampaignConfig::default()
            },
            &EngineOptions {
                records,
                divergence,
                resume,
                fast_forward,
                early_exit: true,
                ..EngineOptions::default()
            },
        )
    }

    fn run(
        &self,
        threads: usize,
        fast_forward: bool,
        records: Option<&Path>,
        divergence: Option<&Path>,
        resume: bool,
    ) -> CampaignRun {
        self.try_run(threads, fast_forward, records, divergence, resume)
            .unwrap()
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Timelines are a pure function of (campaign seed, cell grid): thread
/// count and fast-forward must not move a byte.
#[test]
fn timelines_byte_identical_across_threads_dispatch_and_fast_forward() {
    let fx = Fixture::new();
    let base = temp_path("det-base.div.jsonl");
    fx.run(1, true, None, Some(&base), false);
    let baseline = read(&base);
    assert!(!baseline.is_empty());
    for (name, threads, ff) in [
        ("threads-2", 2, true),
        ("threads-4", 4, true),
        ("no-ff", 1, false),
    ] {
        let path = temp_path(&format!("det-{name}.div.jsonl"));
        fx.run(threads, ff, None, Some(&path), false);
        assert_eq!(
            read(&path),
            baseline,
            "{name}: divergence stream must be byte-identical"
        );
    }
}

/// The hard invariant: turning the observatory on must not move a byte
/// on the records channel.
#[test]
fn records_byte_identical_with_divergence_on_or_off() {
    let fx = Fixture::new();
    let without = temp_path("inv-off.rec.jsonl");
    let with = temp_path("inv-on.rec.jsonl");
    let div = temp_path("inv-on.div.jsonl");
    fx.run(1, true, Some(&without), None, false);
    fx.run(1, true, Some(&with), Some(&div), false);
    assert_eq!(
        read(&without),
        read(&with),
        "records must be byte-identical with --divergence on or off"
    );
}

/// Schema of the `--divergence` stream: the versioned header names the
/// cell grid, and every timeline line carries the fields the report and
/// the CI validation script key on, internally consistent.
#[test]
fn divergence_stream_schema_is_stable() {
    let fx = Fixture::new();
    let div = temp_path("schema.div.jsonl");
    fx.run(1, true, None, Some(&div), false);
    let text = read(&div);
    let mut lines = text.lines();

    let header = Json::parse(lines.next().expect("header line")).expect("header parses");
    assert_eq!(
        header.get("record").and_then(Json::as_str),
        Some("divergence")
    );
    assert_eq!(
        header.get("version").and_then(Json::as_u64),
        Some(fiq_core::DIVERGENCE_VERSION)
    );
    assert_eq!(header.get("seed").and_then(Json::as_u64), Some(77));
    assert_eq!(
        header.get("injections").and_then(Json::as_u64),
        Some(u64::from(INJECTIONS))
    );
    assert!(header.get("hang_factor").and_then(Json::as_u64).is_some());
    let cells = header.get("cells").and_then(Json::as_array).expect("cells");
    assert_eq!(cells.len(), 2);
    assert_eq!(cells[0].get("tool").and_then(Json::as_str), Some("llfi"));
    assert_eq!(cells[1].get("tool").and_then(Json::as_str), Some("pinfi"));

    let mut task = 0u64;
    let mut born = 0u64;
    for line in lines {
        let v = Json::parse(line).expect("timeline line parses");
        assert_eq!(v.get("record").and_then(Json::as_str), Some("timeline"));
        assert_eq!(
            v.get("task").and_then(Json::as_u64),
            Some(task),
            "dense task order"
        );
        assert!(v.get("injection").and_then(Json::as_u64).is_some());
        assert!(matches!(
            v.get("tool").and_then(Json::as_str),
            Some("llfi" | "pinfi")
        ));
        let outcome = v.get("outcome").and_then(Json::as_str).expect("outcome");
        assert!(Outcome::from_name(outcome).is_some(), "known outcome name");
        let entries = v.get("entries").and_then(Json::as_array).expect("entries");
        let diverged: Vec<bool> = entries
            .iter()
            .map(|e| {
                let e = e.as_array().expect("entry is an array");
                assert_eq!(e.len(), 4, "entry = [checkpoint, steps, components, pages]");
                e[2].as_u64().expect("components") != 0
            })
            .collect();
        let birth = v.get("birth").and_then(Json::as_u64);
        let distance = v.get("distance").and_then(Json::as_u64).expect("distance");
        // Birth ⟺ some diverged entry; distance 0 ⟺ never born; only
        // the final entry may be clean (a clean observation closes the
        // timeline).
        assert_eq!(birth.is_some(), diverged.contains(&true));
        assert_eq!(distance == 0, birth.is_none());
        assert!(diverged.iter().rev().skip(1).all(|&d| d));
        if let Some(masked) = v.get("masked").and_then(Json::as_u64) {
            assert!(birth.is_some(), "masking requires a birth");
            assert_eq!(diverged.last(), Some(&false));
            assert!(masked > birth.unwrap());
        }
        born += u64::from(birth.is_some());
        task += 1;
    }
    assert_eq!(task as usize, TASKS, "one timeline per injection");
    assert!(born > 0, "kernel must produce at least one born timeline");
}

/// Kill tolerance: a torn final timeline line (and a records file that
/// got further than the divergence file, or vice versa) reconciles on
/// resume — both streams are truncated to the common prefix and the
/// finished files are byte-identical to an uninterrupted run.
#[test]
fn torn_divergence_tail_is_reconciled_on_resume() {
    let fx = Fixture::new();
    let rec = temp_path("torn.rec.jsonl");
    let div = temp_path("torn.div.jsonl");
    fx.run(1, true, Some(&rec), Some(&div), false);
    let (rec_full, div_full) = (read(&rec), read(&div));

    // Keep 7 complete records but only 4 complete timelines plus a torn
    // half-line: resume must reconcile both prefixes down to 4.
    let prefix = |text: &str, lines: usize| {
        let mut keep: Vec<&str> = text.lines().take(1 + lines).collect();
        keep.push("");
        keep.join("\n")
    };
    let torn = {
        let mut t = prefix(&div_full, 4);
        t.push_str(&div_full.lines().nth(5).unwrap()[..20]);
        t
    };
    std::fs::write(&rec, prefix(&rec_full, 7)).unwrap();
    std::fs::write(&div, torn).unwrap();

    let run = fx.run(1, true, Some(&rec), Some(&div), true);
    assert_eq!(run.resumed_tasks, 4, "common prefix of the two streams");
    assert_eq!(read(&rec), rec_full, "records finish byte-identical");
    assert_eq!(read(&div), div_full, "timelines finish byte-identical");
}

/// Resuming a records+divergence campaign without the divergence file
/// must fail loudly: silently restarting the timeline stream would
/// desynchronize it from the record stream forever.
#[test]
fn resume_without_the_divergence_file_is_an_error() {
    let fx = Fixture::new();
    let rec = temp_path("missing.rec.jsonl");
    let div = temp_path("missing.div.jsonl");
    fx.run(1, true, Some(&rec), Some(&div), false);
    std::fs::remove_file(&div).unwrap();
    let err = fx
        .try_run(1, true, Some(&rec), Some(&div), true)
        .unwrap_err();
    assert!(
        err.contains("cannot resume with --divergence"),
        "unexpected error: {err}"
    );
}

/// The report joins the divergence stream into a propagation section,
/// and saturates instead of panicking when the stream is truncated or
/// absent.
#[test]
fn report_joins_divergence_and_survives_truncation_and_absence() {
    let fx = Fixture::new();
    let rec = temp_path("report.rec.jsonl");
    let div = temp_path("report.div.jsonl");
    fx.run(1, true, Some(&rec), Some(&div), false);

    let full = CampaignReport::build(&rec, None, Some(&div)).unwrap();
    let born: u64 = full
        .cells
        .iter()
        .map(|c| c.propagation.as_ref().expect("propagation present").born)
        .sum();
    assert!(born > 0);
    let human = full.render();
    assert!(human.contains("propagation:"));
    assert!(human.contains("funnel: born→masked"));
    assert!(human.contains("distance (checkpoints):"));
    assert!(human.contains("propagation, llfi vs pinfi:"));
    let json = full.to_json().to_string();
    assert!(json.contains("\"propagation\":{\"timelines\":"));
    assert!(!json.contains("NaN"), "no NaN may leak into the JSON form");

    // Truncated to the bare header: every count saturates to zero and
    // both renderings stay finite.
    let header_only = temp_path("report-truncated.div.jsonl");
    let header = read(&div).lines().next().unwrap().to_string() + "\n";
    std::fs::write(&header_only, header).unwrap();
    let truncated = CampaignReport::build(&rec, None, Some(&header_only)).unwrap();
    for c in &truncated.cells {
        let p = c.propagation.as_ref().expect("propagation present");
        assert_eq!((p.timelines, p.born, p.masked), (0, 0, 0));
        assert_eq!(p.born_pct(), 0.0);
        assert_eq!(p.masked_pct(), 0.0);
    }
    let human = truncated.render();
    assert!(human.contains("propagation: 0 timelines, 0 born (0.0%)"));
    assert!(!truncated.to_json().to_string().contains("NaN"));

    // Absent: no propagation section at all.
    let absent = CampaignReport::build(&rec, None, None).unwrap();
    assert!(absent.cells.iter().all(|c| c.propagation.is_none()));
    assert!(!absent.render().contains("propagation"));

    // A stream from a different campaign is rejected, not merged.
    let other = temp_path("report-other.div.jsonl");
    std::fs::write(&other, read(&div).replacen("\"seed\":77", "\"seed\":78", 1)).unwrap();
    let err = CampaignReport::build(&rec, None, Some(&other)).unwrap_err();
    assert!(err.contains("seed"), "unexpected error: {err}");
}

/// Cross-validation against the SSA taint tracer: three corpus kernels
/// with different propagation shapes, every planned injection run under
/// both observers. A timeline showing memory divergence while the
/// tracer saw neither tainted memory nor a tainted branch would mean
/// the observatory invented a divergence (or the tracer lost one).
#[test]
fn memory_divergence_cross_validates_against_taint_tracer() {
    let corpus = [
        // Store-heavy: tainted values reach memory directly.
        KERNEL,
        // Reduction: taint mostly lives in registers; memory divergence
        // only via the spilled accumulator page.
        "int main() {
          int s = 1;
          for (int i = 1; i < 40; i += 1) {
            s = (s * i + 7) & 65535;
          }
          print_i64(s);
          return 0;
        }",
        // Control-flow: a tainted compare redirects stores, diverging
        // memory through addresses rather than values.
        "int flags[32];
        int main() {
          int n = 0;
          for (int i = 0; i < 32; i += 1) {
            if ((i * 2654435761) & 64) { flags[i] = i; } else { flags[31 - i] = i; }
          }
          for (int i = 0; i < 32; i += 1) n += flags[i];
          print_i64(n);
          return 0;
        }",
    ];
    let opts = InterpOptions::default();
    let mut mem_timelines = 0u64;
    for (pi, source) in corpus.iter().enumerate() {
        let mut module = fiq_frontend::compile("cross", source).expect("compiles");
        fiq_opt::optimize_module(&mut module);
        let (lp, snaps) = profile_llfi_with_snapshots(&module, opts, 97).unwrap();
        let golden = GoldenRef {
            snapshots: &snaps,
            golden_steps: lp.golden_steps,
        };
        let mut rng = StdRng::seed_from_u64(pi as u64);
        for _ in 0..12 {
            let Some(inj) = plan_llfi(&module, &lp, Category::All, &mut rng) else {
                continue;
            };
            let mut tl = Timeline::new();
            run_llfi_observed(
                &module,
                opts,
                inj,
                &lp.golden_output,
                None,
                Some(golden),
                true,
                Some(&mut tl),
                None,
                TaskTel::off(),
            )
            .unwrap();
            if !tl
                .entries
                .iter()
                .any(|e| e.components & component::MEM != 0)
            {
                continue;
            }
            mem_timelines += 1;
            let rep = trace_llfi(&module, opts, inj, &lp.golden_output).unwrap();
            assert!(
                rep.peak_tainted_memory > 0 || rep.tainted_branches > 0,
                "program {pi}, {inj:?}: timeline shows memory divergence \
                 but the tracer saw no tainted memory and no tainted branch"
            );
        }
    }
    assert!(
        mem_timelines >= 3,
        "corpus must exercise the memory-divergence oracle, saw {mem_timelines}"
    );
}
