//! Fast-forward equivalence: restoring a profiling checkpoint and
//! replaying only the tail must reproduce a full-replay campaign
//! byte-for-byte — same cell reports, same record stream — at every
//! thread count and snapshot interval, and resume must interoperate
//! across the two modes. Each checkpoint's site counts, which come from
//! the profiler's counting hook, must split the golden event stream
//! exactly where the checkpoint was taken.

use fiq_asm::{AsmHook, MachOptions, MachState, Machine};
use fiq_backend::LowerOptions;
use fiq_core::{
    profile_llfi, profile_llfi_with_snapshots, profile_pinfi, profile_pinfi_with_snapshots,
    run_campaign, CampaignConfig, Category, CellSpec, EngineOptions, SnapshotCache, Substrate,
};
use fiq_interp::{InstSite, Interp, InterpHook, InterpOptions, RtVal};
use fiq_ir::{FuncId, InstId};
use std::path::PathBuf;
use std::sync::Arc;

/// Same kernel as the end-to-end suite: long enough that injections land
/// deep in the run, so fast-forward actually skips work.
const KERNEL: &str = "
int keys[96];
int vals[96];
double acc[16];
int main() {
  int seed = 31415;
  for (int i = 0; i < 96; i += 1) {
    seed = (seed * 1103515245 + 12345) & 2147483647;
    keys[i] = seed & 95;
    vals[i] = (seed >> 8) & 1023;
  }
  int s = 0;
  for (int r = 0; r < 12; r += 1) {
    for (int i = 0; i < 96; i += 1) {
      s += vals[keys[i]];
      acc[i & 15] += (double)vals[i] * 0.0625;
    }
  }
  double d = 0.0;
  for (int i = 0; i < 16; i += 1) d += acc[i];
  print_i64(s);
  print_f64(d);
  return 0;
}";

fn compiled() -> (fiq_ir::Module, fiq_asm::AsmProgram) {
    let mut m = fiq_frontend::compile("kernel", KERNEL).expect("compiles");
    fiq_opt::optimize_module(&mut m);
    let p = fiq_backend::lower_module(&m, LowerOptions::default()).expect("lowers");
    (m, p)
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fiq-ff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Both tools × two categories, optionally with snapshot caches attached.
fn grid_cells<'a>(
    m: &'a fiq_ir::Module,
    p: &'a fiq_asm::AsmProgram,
    lp: &'a fiq_core::LlfiProfile,
    pp: &'a fiq_core::PinfiProfile,
    snaps: Option<&(Arc<SnapshotCache>, Arc<SnapshotCache>)>,
) -> Vec<CellSpec<'a>> {
    let mut cells = Vec::new();
    for cat in [Category::Arithmetic, Category::Load] {
        cells.push(CellSpec {
            label: "kernel".into(),
            category: cat,
            substrate: Substrate::Llfi {
                module: m,
                profile: lp,
            },
            snapshots: snaps.map(|(l, _)| Arc::clone(l)),
        });
        cells.push(CellSpec {
            label: "kernel".into(),
            category: cat,
            substrate: Substrate::Pinfi {
                prog: p,
                profile: pp,
            },
            snapshots: snaps.map(|(_, r)| Arc::clone(r)),
        });
    }
    cells
}

fn config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        injections: 20,
        seed: 77,
        threads,
        ..CampaignConfig::default()
    }
}

#[test]
fn snapshot_profiling_matches_plain_profiling() {
    let (m, p) = compiled();
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let pp = profile_pinfi(&p, MachOptions::default()).unwrap();
    let (lps, ls) = profile_llfi_with_snapshots(&m, InterpOptions::default(), 97).unwrap();
    let (pps, ps) = profile_pinfi_with_snapshots(&p, MachOptions::default(), 131).unwrap();
    assert_eq!(lp.golden_output, lps.golden_output);
    assert_eq!(lp.golden_steps, lps.golden_steps);
    assert_eq!(lp.counts, lps.counts);
    assert_eq!(pp.golden_output, pps.golden_output);
    assert_eq!(pp.golden_steps, pps.golden_steps);
    assert_eq!(pp.counts, pps.counts);
    // Snapshots are spread across the run, strictly increasing in steps.
    assert!(
        ls.len() as u64 >= lp.golden_steps / (2 * 97),
        "{}",
        ls.len()
    );
    assert!(
        ps.len() as u64 >= pp.golden_steps / (2 * 131),
        "{}",
        ps.len()
    );
    assert!(ls.windows(2).all(|w| w[0].steps() < w[1].steps()));
    assert!(ps.windows(2).all(|w| w[0].steps() < w[1].steps()));
}

/// The catalog workload the checkpoint-count tests profile.
fn raytrace() -> fiq_workloads::Compiled {
    fiq_workloads::by_name("raytrace")
        .expect("raytrace is in the catalog")
        .compile()
        .expect("compiles")
}

/// Checkpoint interval for the count tests: seven or eight checkpoints
/// over raytrace's golden run at either level.
const COUNT_INTERVAL: u64 = 99_991;

/// Every site's `on_result` events, indexed `[func][inst]` like
/// [`fiq_core::LlfiProfile::counts`].
struct ResultCounts(Vec<Vec<u64>>);

impl InterpHook for ResultCounts {
    fn on_result(&mut self, site: InstSite, _frame: u64, _val: &mut RtVal) {
        self.0[site.func.index()][site.inst.index()] += 1;
    }
}

/// Every instruction's retires, indexed like
/// [`fiq_core::PinfiProfile::counts`].
struct RetireCounts(Vec<u64>);

impl AsmHook for RetireCounts {
    fn on_retire(&mut self, idx: usize, _st: &mut MachState) {
        self.0[idx] += 1;
    }
}

/// For every IR checkpoint, the site counts it carries plus the events a
/// run restored from it sees equal the profile's count, at every site.
#[test]
fn snapshot_counts_partition_the_event_stream() {
    let c = raytrace();
    let opts = InterpOptions::default();
    let (lp, snaps) = profile_llfi_with_snapshots(&c.module, opts, COUNT_INTERVAL).unwrap();
    assert!(snaps.len() >= 4, "{} checkpoints", snaps.len());
    for snap in &snaps {
        let zero = c.module.funcs.iter().map(|f| vec![0; f.insts.len()]);
        let mut tail = Interp::restore(&c.module, opts, ResultCounts(zero.collect()), snap);
        assert_eq!(tail.run().steps, lp.golden_steps);
        let tail = tail.into_hook().0;
        for (f, counts) in lp.counts.iter().enumerate() {
            for (i, &total) in counts.iter().enumerate() {
                let site = InstSite {
                    func: FuncId(f as u32),
                    inst: InstId(i as u32),
                };
                assert_eq!(
                    snap.site_count(site) + tail[f][i],
                    total,
                    "checkpoint at step {} must split {site:?}'s events exactly",
                    snap.steps()
                );
            }
        }
    }
}

/// For every asm checkpoint, the retire counts it carries plus the
/// retires a run restored from it sees equal the profile's count, at
/// every instruction.
#[test]
fn snapshot_counts_partition_the_retire_stream() {
    let c = raytrace();
    let opts = MachOptions::default();
    let (pp, snaps) = profile_pinfi_with_snapshots(&c.program, opts, COUNT_INTERVAL).unwrap();
    assert!(snaps.len() >= 4, "{} checkpoints", snaps.len());
    for snap in &snaps {
        let zero = RetireCounts(vec![0; c.program.insts.len()]);
        let mut tail = Machine::restore(&c.program, opts, zero, snap);
        assert_eq!(tail.run().steps, pp.golden_steps);
        let tail = tail.into_hook().0;
        for (idx, &total) in pp.counts.iter().enumerate() {
            assert_eq!(
                snap.site_count(idx) + tail[idx],
                total,
                "checkpoint at step {} must split instruction {idx}'s retires exactly",
                snap.steps()
            );
        }
    }
}

#[test]
fn fast_forward_is_byte_identical_to_full_replay() {
    let (m, p) = compiled();
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let pp = profile_pinfi(&p, MachOptions::default()).unwrap();

    // Baseline: full golden-prefix replay, single-threaded.
    let base_path = temp_path("base.jsonl");
    let cells = grid_cells(&m, &p, &lp, &pp, None);
    let base = run_campaign(
        &cells,
        &config(1),
        &EngineOptions {
            records: Some(&base_path),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let base_stream = std::fs::read_to_string(&base_path).unwrap();
    std::fs::remove_file(&base_path).unwrap();

    // Dense, sparse, and beyond-golden intervals (the last captures zero
    // snapshots, so fast-forward silently degrades to full replay).
    for interval in [7u64, 97, 1 << 40] {
        let (_, ls) = profile_llfi_with_snapshots(&m, InterpOptions::default(), interval).unwrap();
        let (_, ps) = profile_pinfi_with_snapshots(&p, MachOptions::default(), interval).unwrap();
        let snaps = (
            Arc::new(SnapshotCache::Llfi(ls)),
            Arc::new(SnapshotCache::Pinfi(ps)),
        );
        for threads in [1usize, 4] {
            let path = temp_path(&format!("ff-i{interval}-t{threads}.jsonl"));
            let cells = grid_cells(&m, &p, &lp, &pp, Some(&snaps));
            let run = run_campaign(
                &cells,
                &config(threads),
                &EngineOptions {
                    records: Some(&path),
                    fast_forward: true,
                    ..EngineOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                run.cells, base.cells,
                "interval {interval}, {threads} threads: reports must match full replay"
            );
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                base_stream,
                "interval {interval}, {threads} threads: record stream must be byte-identical"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }
}

#[test]
fn resume_crosses_flush_batches_and_fast_forward_modes() {
    let (m, p) = compiled();
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let pp = profile_pinfi(&p, MachOptions::default()).unwrap();

    // Fresh full-replay run: 4 cells × 20 injections = 80 records, so the
    // batched writer flushes once at 64 and once when the pool drains.
    let fresh_path = temp_path("resume-fresh.jsonl");
    let cells = grid_cells(&m, &p, &lp, &pp, None);
    let fresh = run_campaign(
        &cells,
        &config(2),
        &EngineOptions {
            records: Some(&fresh_path),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let fresh_stream = std::fs::read_to_string(&fresh_path).unwrap();
    std::fs::remove_file(&fresh_path).unwrap();

    let (_, ls) = profile_llfi_with_snapshots(&m, InterpOptions::default(), 53).unwrap();
    let (_, ps) = profile_pinfi_with_snapshots(&p, MachOptions::default(), 53).unwrap();
    let snaps = (
        Arc::new(SnapshotCache::Llfi(ls)),
        Arc::new(SnapshotCache::Pinfi(ps)),
    );

    // Kill points straddling the flush-batch boundary (64) plus the
    // header-only and one-record edges; every truncation carries a torn
    // partial line. The killed run used full replay; the resumed run uses
    // fast-forward — outputs must still be byte-identical.
    for keep in [0usize, 1, 63, 64, 79] {
        let prefix: usize = fresh_stream
            .split_inclusive('\n')
            .take(1 + keep)
            .map(str::len)
            .sum();
        let torn_path = temp_path(&format!("resume-torn-{keep}.jsonl"));
        std::fs::write(
            &torn_path,
            format!(
                "{}{}",
                &fresh_stream[..prefix],
                r#"{"record":"injection","task":99,"ou"#
            ),
        )
        .unwrap();
        let cells = grid_cells(&m, &p, &lp, &pp, Some(&snaps));
        let resumed = run_campaign(
            &cells,
            &config(2),
            &EngineOptions {
                records: Some(&torn_path),
                resume: true,
                fast_forward: true,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.resumed_tasks, keep, "truncated to {keep} records");
        assert_eq!(resumed.cells, fresh.cells, "keep {keep}: reports match");
        assert_eq!(
            std::fs::read_to_string(&torn_path).unwrap(),
            fresh_stream,
            "keep {keep}: record stream rebuilt byte-identically"
        );
        std::fs::remove_file(&torn_path).unwrap();
    }
}

/// A record file well past the resume reader's internal buffer (the
/// header alone exceeds it thanks to a long workload label) must stream
/// through intact: every record parsed, the torn tail truncated, and the
/// rebuilt file byte-identical to an uninterrupted run.
#[test]
fn resume_streams_record_files_larger_than_the_read_buffer() {
    const TINY: &str = "
int main() {
  int s = 0;
  for (int i = 0; i < 40; i += 1) s += i * 3;
  print_i64(s);
  return 0;
}";
    let mut m = fiq_frontend::compile("tiny", TINY).expect("compiles");
    fiq_opt::optimize_module(&mut m);
    let p = fiq_backend::lower_module(&m, LowerOptions::default()).expect("lowers");
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let pp = profile_pinfi(&p, MachOptions::default()).unwrap();

    // An 8 KiB+ label makes even the header line larger than BufReader's
    // default buffer, so a single read_line must loop internally.
    let label = "t".repeat(10_000);
    let cells = vec![
        CellSpec {
            label: label.clone(),
            category: fiq_core::Category::Arithmetic,
            substrate: Substrate::Llfi {
                module: &m,
                profile: &lp,
            },
            snapshots: None,
        },
        CellSpec {
            label,
            category: fiq_core::Category::Arithmetic,
            substrate: Substrate::Pinfi {
                prog: &p,
                profile: &pp,
            },
            snapshots: None,
        },
    ];
    let cfg = CampaignConfig {
        injections: 150,
        seed: 5,
        threads: 2,
        ..CampaignConfig::default()
    };

    let fresh_path = temp_path("large-fresh.jsonl");
    let fresh = run_campaign(
        &cells,
        &cfg,
        &EngineOptions {
            records: Some(&fresh_path),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let fresh_stream = std::fs::read_to_string(&fresh_path).unwrap();
    assert!(
        fresh_stream.len() > 16 * 1024,
        "file must dwarf the 8 KiB read buffer, got {} bytes",
        fresh_stream.len()
    );
    std::fs::remove_file(&fresh_path).unwrap();

    // Kill deep into the record stream, with a torn final line.
    let keep = 217usize;
    let prefix: usize = fresh_stream
        .split_inclusive('\n')
        .take(1 + keep)
        .map(str::len)
        .sum();
    let torn_path = temp_path("large-torn.jsonl");
    std::fs::write(
        &torn_path,
        format!("{}{}", &fresh_stream[..prefix], r#"{"record":"inj"#),
    )
    .unwrap();
    let resumed = run_campaign(
        &cells,
        &cfg,
        &EngineOptions {
            records: Some(&torn_path),
            resume: true,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.resumed_tasks, keep);
    assert_eq!(resumed.cells, fresh.cells);
    assert_eq!(std::fs::read_to_string(&torn_path).unwrap(), fresh_stream);
    std::fs::remove_file(&torn_path).unwrap();
}
