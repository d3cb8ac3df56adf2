//! Hang proofs: with early exit on, a run past the last golden checkpoint
//! whose state repeats is recorded as the hang its budget would give,
//! without running to the budget. The records must be byte-identical to
//! full execution, at every thread count and with or without
//! fast-forward; only the `hangs_proven` telemetry counter tells the two
//! apart. Each kernel pins one behaviour: a pure cycle is proved, while a
//! counting loop, a long loop that finishes, and a cycle that prints are
//! never proved.

use fiq_asm::MachOptions;
use fiq_backend::LowerOptions;
use fiq_core::telemetry::{cell_counter, TelemetrySummary};
use fiq_core::{
    profile_llfi, profile_llfi_with_snapshots, profile_pinfi, profile_pinfi_with_snapshots,
    restore_point, run_campaign, run_llfi_observed, CampaignConfig, Category, CellSpec,
    EngineOptions, GoldenRef, InjectionRun, LlfiInjection, Outcome, SnapshotCache, Substrate,
    TaskTel, HUB_SPEC,
};
use fiq_interp::{InterpOptions, InterpSnapshot};
use fiq_telemetry::TelemetryHub;
use std::path::PathBuf;
use std::sync::Arc;

/// A pointer chase over a list the first loop links up. A fault that
/// links an entry backwards (or stops the first loop early, leaving
/// zeros) sends the chase round a cycle that writes nothing: its state
/// repeats exactly. A counter flipped in one of its top three bits still
/// stores in bounds (the address arithmetic wraps) and counts on until
/// the budget instead, so not every hang here is a cycle.
const CYCLE: &str = "
int next[8];
int main() {
  for (int i = 0; i < 8; i += 1) next[i] = i + 1;
  int x = 0;
  while (x != 8) x = next[x];
  print_i64(x);
  return 0;
}";

/// A loop whose exit test is an inequality: a counter flipped past the
/// bound counts on until the budget, and its state never repeats.
const COUNT: &str = "
int main() {
  int s = 0;
  for (int i = 0; i != 50; i += 1) s += i;
  print_i64(s);
  return 0;
}";

/// A loop bound read from memory once: a flipped high bit makes the loop
/// run many golden lengths and then finish (or count on until the
/// budget).
const LONG: &str = "
int lim = 64;
int main() {
  int n = lim;
  int s = 0;
  for (int i = 0; i < n; i += 1) s += i & 3;
  print_i64(s);
  return 0;
}";

/// [`CYCLE`] with a character printed on every step of the chase: the
/// console grows, so the state never repeats.
const PRINTING: &str = "
int next[8];
int main() {
  for (int i = 0; i < 8; i += 1) next[i] = i + 1;
  int x = 0;
  while (x != 8) {
    print_char(46);
    x = next[x];
  }
  print_i64(x);
  return 0;
}";

/// Checkpoint interval of the kernels' golden runs: several checkpoints
/// within their few hundred golden steps.
const INTERVAL: u64 = 16;

/// The driver's pause stride past the golden length.
const STRIDE: u64 = 256;

struct Kernel {
    module: fiq_ir::Module,
    prog: fiq_asm::AsmProgram,
    lp: fiq_core::LlfiProfile,
    pp: fiq_core::PinfiProfile,
    snaps: (Arc<SnapshotCache>, Arc<SnapshotCache>),
}

impl Kernel {
    fn new(source: &str) -> Kernel {
        let mut module = fiq_frontend::compile("kernel", source).expect("compiles");
        fiq_opt::optimize_module(&mut module);
        let prog = fiq_backend::lower_module(&module, LowerOptions::default()).expect("lowers");
        let lp = profile_llfi(&module, InterpOptions::default()).unwrap();
        let pp = profile_pinfi(&prog, MachOptions::default()).unwrap();
        let (_, ls) =
            profile_llfi_with_snapshots(&module, InterpOptions::default(), INTERVAL).unwrap();
        let (_, ps) =
            profile_pinfi_with_snapshots(&prog, MachOptions::default(), INTERVAL).unwrap();
        Kernel {
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

    fn llfi_snaps(&self) -> &[InterpSnapshot] {
        match &*self.snaps.0 {
            SnapshotCache::Llfi(s) => s,
            SnapshotCache::Pinfi(_) => unreachable!("llfi cache"),
        }
    }

    fn budget(&self) -> u64 {
        CampaignConfig::default().hang_budget(self.lp.golden_steps)
    }

    /// Runs one planned LLFI fault, with early exit or not and with
    /// fast-forward or not, and returns its result and `hangs_proven`.
    fn run_llfi(&self, inj: LlfiInjection, early_exit: bool, ff: bool) -> (InjectionRun, u64) {
        let budget = self.budget();
        let opts = InterpOptions {
            max_steps: budget,
            ..InterpOptions::default()
        };
        let snaps = self.llfi_snaps();
        let snap = ff
            .then(|| restore_point(snaps, inj.site, inj.instance, budget))
            .flatten();
        let golden = early_exit.then_some(GoldenRef {
            snapshots: snaps,
            golden_steps: self.lp.golden_steps,
        });
        let hub = TelemetryHub::new(&HUB_SPEC, 1, 1);
        let run = run_llfi_observed(
            &self.module,
            opts,
            inj,
            &self.lp.golden_output,
            snap,
            golden,
            early_exit,
            None,
            None,
            TaskTel::new(hub.worker(0), 0),
        )
        .unwrap();
        (run, hub.cell_counter_total(0, cell_counter::HANGS_PROVEN))
    }

    /// The first LLFI fault of `cat` (in site, instance, bit order) whose
    /// full run satisfies `wanted`.
    fn find_llfi(&self, cat: Category, wanted: impl Fn(&InjectionRun) -> bool) -> LlfiInjection {
        let cum = self.lp.cumulative(&self.module, cat);
        let mut prev = 0;
        for &(site, c) in &cum {
            let width = self.module.func(site.func).inst(site.inst).ty.size() as u32 * 8;
            for instance in 1..=c - prev {
                for bit in 0..width.clamp(1, 64) {
                    let inj = LlfiInjection {
                        site,
                        instance,
                        bit,
                    };
                    if wanted(&self.run_llfi(inj, false, false).0) {
                        return inj;
                    }
                }
            }
            prev = c;
        }
        panic!("no {cat} fault of the kernel behaves as wanted");
    }

    /// Checks one planned fault against its full run at both fast-forward
    /// settings and returns its `hangs_proven`, which must not depend on
    /// fast-forward.
    fn check_planned(&self, inj: LlfiInjection) -> (InjectionRun, u64) {
        let (base, unproven) = self.run_llfi(inj, false, false);
        assert_eq!(unproven, 0, "{inj:?}: no proof without early exit");
        let mut proven = Vec::new();
        for ff in [false, true] {
            let (run, n) = self.run_llfi(inj, true, ff);
            assert_eq!(run.outcome, base.outcome, "{inj:?} ff {ff}: outcome");
            assert_eq!(run.steps, base.steps, "{inj:?} ff {ff}: steps");
            assert!(!run.early_exit, "{inj:?}: a proof is not a convergence");
            proven.push(n);
        }
        assert_eq!(
            proven[0], proven[1],
            "{inj:?}: fast-forward changed the proof"
        );
        (base, proven[0])
    }

    fn cells(&self, cat: Category) -> Vec<CellSpec<'_>> {
        vec![
            CellSpec {
                label: "kernel".into(),
                category: cat,
                substrate: Substrate::Llfi {
                    module: &self.module,
                    profile: &self.lp,
                },
                snapshots: Some(Arc::clone(&self.snaps.0)),
            },
            CellSpec {
                label: "kernel".into(),
                category: cat,
                substrate: Substrate::Pinfi {
                    prog: &self.prog,
                    profile: &self.pp,
                },
                snapshots: Some(Arc::clone(&self.snaps.1)),
            },
        ]
    }

    /// Runs a sampled campaign over `cat` at 1 and 2 threads, with and
    /// without fast-forward, with and without early exit. Every record
    /// stream must equal the one without early exit; returns the hang
    /// count and `hangs_proven` of each cell with early exit on.
    fn campaign(&self, tag: &str, cat: Category) -> Vec<(u64, u64)> {
        let cells = self.cells(cat);
        let mut reference: Option<String> = None;
        let mut result = None;
        for early_exit in [false, true] {
            for threads in [1usize, 2] {
                for fast_forward in [false, true] {
                    let name = format!("{tag}-{cat}-ee{early_exit}-t{threads}-ff{fast_forward}");
                    let (records, telemetry) = (
                        temp_path(&format!("{name}.jsonl")),
                        temp_path(&format!("{name}.tel.jsonl")),
                    );
                    let run = run_campaign(
                        &cells,
                        &CampaignConfig {
                            injections: 48,
                            seed: 9,
                            threads,
                            ..CampaignConfig::default()
                        },
                        &EngineOptions {
                            records: Some(&records),
                            telemetry: Some(&telemetry),
                            fast_forward,
                            early_exit,
                            ..EngineOptions::default()
                        },
                    )
                    .unwrap();
                    let stream = std::fs::read_to_string(&records).unwrap();
                    match &reference {
                        None => reference = Some(stream),
                        Some(r) => assert!(*r == stream, "{name}: record stream differs"),
                    }
                    let tel = TelemetrySummary::read(&telemetry).unwrap();
                    let cells: Vec<(u64, u64)> = run
                        .cells
                        .iter()
                        .zip(&tel.cells)
                        .map(|(c, m)| {
                            let proven = m
                                .counters
                                .iter()
                                .find(|(n, _)| n == "hangs_proven")
                                .map(|&(_, v)| v)
                                .expect("hangs_proven counter");
                            (c.counts.hang, proven)
                        })
                        .collect();
                    std::fs::remove_file(&records).unwrap();
                    std::fs::remove_file(&telemetry).unwrap();
                    if !early_exit {
                        assert!(
                            cells.iter().all(|&(_, p)| p == 0),
                            "{name}: proof without ee"
                        );
                        continue;
                    }
                    match &result {
                        None => result = Some(cells),
                        Some(r) => assert_eq!(*r, cells, "{name}: hangs_proven must not vary"),
                    }
                }
            }
        }
        result.expect("ran with early exit")
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fiq-hang-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn is_hang(run: &InjectionRun) -> bool {
    run.outcome == Outcome::Hang
}

#[test]
fn a_pure_cycle_is_proved() {
    let k = Kernel::new(CYCLE);
    let inj = k.find_llfi(Category::Arithmetic, is_hang);
    let (run, proven) = k.check_planned(inj);
    assert_eq!(run.steps, k.budget() + 1);
    assert_eq!(proven, 1, "{inj:?}: the chase cycle repeats its state");

    for (hangs, proven) in k.campaign("cycle", Category::Arithmetic) {
        assert!(proven > 0, "the campaign must prove chase cycles");
        assert!(proven <= hangs, "only hangs are proved");
    }
}

#[test]
fn a_counting_loop_is_never_proved() {
    let k = Kernel::new(COUNT);
    let inj = k.find_llfi(Category::Arithmetic, is_hang);
    let (run, proven) = k.check_planned(inj);
    assert_eq!(run.steps, k.budget() + 1);
    assert_eq!(proven, 0, "{inj:?}: a counter never repeats");

    for (hangs, proven) in k.campaign("count", Category::Arithmetic) {
        assert!(hangs > 0, "the campaign must hang");
        assert_eq!(proven, 0);
    }
}

#[test]
fn a_long_loop_that_finishes_is_never_proved() {
    let k = Kernel::new(LONG);
    let golden = k.lp.golden_steps;
    // Long enough that the driver pauses many times past golden.
    let inj = k.find_llfi(Category::Load, |run| {
        run.outcome != Outcome::Hang && run.steps > golden + 8 * STRIDE
    });
    let (run, proven) = k.check_planned(inj);
    assert!(run.steps <= k.budget());
    assert_eq!(proven, 0, "{inj:?}: a finishing run is not a hang");

    for (_, proven) in k.campaign("long", Category::Load) {
        assert_eq!(proven, 0);
    }
}

#[test]
fn a_cycle_that_prints_is_never_proved() {
    let k = Kernel::new(PRINTING);
    let inj = k.find_llfi(Category::Arithmetic, is_hang);
    let (run, proven) = k.check_planned(inj);
    assert_eq!(run.steps, k.budget() + 1);
    assert_eq!(proven, 0, "{inj:?}: the console grows every round");

    for (hangs, proven) in k.campaign("printing", Category::Arithmetic) {
        assert!(hangs > 0, "the campaign must hang");
        assert_eq!(proven, 0);
    }
}
