//! Differential lockstep tests for the execution cores.
//!
//! Each substrate runs one production core, the pre-decoded table, and
//! keeps its per-instruction `match` as a reference core that only
//! `run_reference_until` reaches. The two must be observationally
//! indistinguishable: identical step counts, [`StateDigest`] (architectural
//! state + console), stop status, console bytes, and hook event order.
//! This suite checks that on both substrates:
//!
//! * full runs of every corpus regression and 200 generated programs,
//!   with an inert hook (quiescent fast loop) and an always-active one
//!   (evented loop);
//! * a boundary sweep that pauses the production core at *every* step,
//!   so every pause lands at every offset inside every fused unit and
//!   exercises the unfused `plain` table the core steps near a boundary;
//! * snapshots captured by the production core, restored into the
//!   reference core, run to the reference's final state;
//! * faulted runs: phase-switching recorder hooks that sleep until a
//!   site, flip one bit there, record a window of events, and sleep
//!   again, over a fixed kernel and 200 generated programs;
//! * a FLAGS injection delivered inside a fused ALU+jcc superinstruction.

use fiq_asm::{
    AluOp, AsmFunc, AsmHook, AsmProgram, Cond, Inst, MachOptions, MachState, Machine, NopAsmHook,
    Operand, Reg, RegId, RunResult, Width, ALL_FLAGS, ZF,
};
use fiq_backend::LowerOptions;
use fiq_interp::{ExecResult, InstSite, Interp, InterpHook, InterpOptions, NopHook, RtVal};
use fiq_ir::Module;
use fiq_mem::{Quiescence, StateDigest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything the cores must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    steps: u64,
    digest: StateDigest,
    status: String,
    output: String,
}

fn observe_interp<H: InterpHook>(interp: &Interp<'_, H>, res: ExecResult) -> Observed {
    Observed {
        steps: res.steps,
        digest: interp.state_digest(),
        status: format!("{:?}", res.status),
        output: res.output,
    }
}

fn observe_machine<H: AsmHook>(machine: &Machine<'_, H>, res: RunResult) -> Observed {
    Observed {
        steps: res.steps,
        digest: machine.state_digest(),
        status: format!("{:?}", res.status),
        output: res.output,
    }
}

/// A hook that ignores every event but reports itself always active, so
/// the production core stays on its evented loop instead of the
/// quiescent one [`NopHook`] and [`NopAsmHook`] select.
#[derive(Clone, Copy)]
struct ActiveNop;

impl InterpHook for ActiveNop {}
impl AsmHook for ActiveNop {}

/// Which core a run steps with.
#[derive(Clone, Copy, Debug)]
enum Core {
    Reference,
    Production,
}

fn run_interp<H: InterpHook>(m: &Module, max_steps: u64, hook: H, core: Core) -> (Observed, H) {
    let opts = InterpOptions {
        max_steps,
        ..InterpOptions::default()
    };
    let mut interp = Interp::new(m, opts, hook).expect("interpreter setup");
    let res = match core {
        Core::Reference => interp
            .run_reference_until(u64::MAX)
            .expect("an unbounded run stops"),
        Core::Production => interp.run(),
    };
    let obs = observe_interp(&interp, res);
    (obs, interp.into_hook())
}

fn run_machine<H: AsmHook>(p: &AsmProgram, max_steps: u64, hook: H, core: Core) -> (Observed, H) {
    let opts = MachOptions {
        max_steps,
        ..MachOptions::default()
    };
    let mut machine = Machine::new(p, opts, hook).expect("machine setup");
    let res = match core {
        Core::Reference => machine
            .run_reference_until(u64::MAX)
            .expect("an unbounded run stops"),
        Core::Production => machine.run(),
    };
    let obs = observe_machine(&machine, res);
    (obs, machine.into_hook())
}

fn compile(name: &str, source: &str) -> (Module, AsmProgram) {
    let mut module =
        fiq_frontend::compile(name, source).unwrap_or_else(|e| panic!("{name}: compile: {e}"));
    fiq_opt::optimize_module(&mut module);
    fiq_ir::verify_module(&module).unwrap_or_else(|e| panic!("{name}: verify: {e}"));
    let prog = fiq_backend::lower_module(&module, LowerOptions::default())
        .unwrap_or_else(|e| panic!("{name}: lower: {e}"));
    (module, prog)
}

fn corpus() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("read corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mc"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus must hold at least one program");
    entries
        .into_iter()
        .map(|path| {
            let source = std::fs::read_to_string(&path).expect("read corpus program");
            (path.display().to_string(), source)
        })
        .collect()
}

fn generated(seed: u64) -> (String, String) {
    let program = fiq_fuzz::Gen::new(seed).program();
    (format!("gen-seed-{seed}"), fiq_fuzz::render(&program))
}

/// Compiles `source` and checks the production core, on its quiescent
/// and its evented loop, against the reference core on both substrates.
fn check_lockstep(name: &str, source: &str, max_steps: u64) {
    let (module, prog) = compile(name, source);
    let (want, _) = run_interp(&module, max_steps, NopHook, Core::Reference);
    let (got, _) = run_interp(&module, max_steps, NopHook, Core::Production);
    assert_eq!(got, want, "{name}: interp quiescent loop diverged");
    let (got, _) = run_interp(&module, max_steps, ActiveNop, Core::Production);
    assert_eq!(got, want, "{name}: interp evented loop diverged");

    let (want, _) = run_machine(&prog, max_steps, NopAsmHook, Core::Reference);
    let (got, _) = run_machine(&prog, max_steps, NopAsmHook, Core::Production);
    assert_eq!(got, want, "{name}: machine quiescent loop diverged");
    let (got, _) = run_machine(&prog, max_steps, ActiveNop, Core::Production);
    assert_eq!(got, want, "{name}: machine evented loop diverged");
}

/// Every shrunken fuzz regression must run in lockstep across cores.
#[test]
fn corpus_lockstep_across_dispatch_modes() {
    for (name, source) in corpus() {
        check_lockstep(&name, &source, 20_000_000);
    }
}

/// 200 generated programs — the same generator `fiq fuzz` draws from —
/// must run in lockstep across cores. Deterministic by seed.
#[test]
fn generated_programs_lockstep_across_dispatch_modes() {
    for seed in 0..200u64 {
        let (name, source) = generated(seed);
        check_lockstep(&name, &source, 500_000);
    }
}

/// A negative row index sign-extends to near `u64::MAX` before the GEP
/// stride multiply: the pre-decoded core folds index scaling into
/// `GepStep::Scale` with wrapping arithmetic, and that wrap-through-zero
/// address computation must land on exactly the same (in-bounds) final
/// address as the reference core's element-by-element walk. The
/// compensating column index brings every access back inside the array,
/// so the run finishes and the cores must agree on output and digest,
/// not merely both trap.
#[test]
fn gep_negative_index_wraps_identically_across_cores() {
    check_lockstep(
        "gep-negative-index",
        r"
        int m[4][4];
        int main() {
          for (int r = 0; r < 4; r += 1) {
            for (int c = 0; c < 4; c += 1) {
              m[r][c] = r * 4 + c;
            }
          }
          int s = 0;
          for (int k = 1; k < 4; k += 1) {
            int i = 0 - k;
            int j = k * 4 + k;
            s += m[i][j];
          }
          print_i64(s);
          return 0;
        }",
        1_000_000,
    );
}

/// The same wrap driven fully out of bounds: a computed index near
/// `u64::MAX` whose final address falls outside every allocation. Both
/// cores must classify it as the same trap after the same number of
/// steps — a divergence here is exactly the kind of silent address
/// miscomputation the wrapping stride rules exist to prevent.
#[test]
fn gep_out_of_bounds_wrap_traps_identically_across_cores() {
    check_lockstep(
        "gep-oob-wrap",
        r"
        int a[8];
        int main() {
          for (int i = 0; i < 8; i += 1) { a[i] = i; }
          int k = a[3] - 9;
          print_i64(a[k]);
          return 0;
        }",
        1_000_000,
    );
}

/// How each production instance of the boundary sweep approaches its
/// pauses: `(stride, first pause)`. Stride 1 pauses at every step from
/// the step before; the four stride-4 instances (one per residue) reach
/// every step from four steps back — farther than the widest
/// superinstruction retires (three steps) — so each pause is approached
/// on the fused table and must switch to the plain one in time.
const SWEEP: [(u64, u64); 5] = [(1, 1), (4, 1), (4, 2), (4, 3), (4, 4)];

/// What one paused (or stopped) core looks like.
fn pause_point<R: std::fmt::Debug>(steps: u64, digest: StateDigest, stop: Option<R>) -> String {
    format!("{steps} {digest:?} {stop:?}")
}

/// Pauses the production interpreter at every step `k` (see [`SWEEP`])
/// and compares it with the reference core paused at the same `k`.
fn sweep_interp<H: InterpHook>(name: &str, m: &Module, max_steps: u64, hook: impl Fn() -> H) {
    let opts = InterpOptions {
        max_steps,
        ..InterpOptions::default()
    };
    let mut reference = Interp::new(m, opts, hook()).unwrap();
    let mut cores: Vec<_> = SWEEP
        .iter()
        .map(|&(stride, first)| (stride, first, Interp::new(m, opts, hook()).unwrap()))
        .collect();
    for k in 1.. {
        let stop = reference
            .run_reference_until(k)
            .map(|r| (r.status, r.output));
        let stopped = stop.is_some();
        let want = pause_point(reference.steps(), reference.state_digest(), stop);
        for (stride, next, core) in &mut cores {
            if *next != k && !stopped {
                continue;
            }
            *next += *stride;
            let stop = core.run_until(k).map(|r| (r.status, r.output));
            let got = pause_point(core.steps(), core.state_digest(), stop);
            assert_eq!(got, want, "{name}: interp stride {stride} paused at {k}");
        }
        if stopped {
            return;
        }
    }
}

/// The asm twin of [`sweep_interp`].
fn sweep_machine<H: AsmHook>(name: &str, p: &AsmProgram, max_steps: u64, hook: impl Fn() -> H) {
    let opts = MachOptions {
        max_steps,
        ..MachOptions::default()
    };
    let mut reference = Machine::new(p, opts, hook()).unwrap();
    let mut cores: Vec<_> = SWEEP
        .iter()
        .map(|&(stride, first)| (stride, first, Machine::new(p, opts, hook()).unwrap()))
        .collect();
    for k in 1.. {
        let stop = reference
            .run_reference_until(k)
            .map(|r| (r.status, r.output));
        let stopped = stop.is_some();
        let want = pause_point(reference.steps(), reference.state_digest(), stop);
        for (stride, next, core) in &mut cores {
            if *next != k && !stopped {
                continue;
            }
            *next += *stride;
            let stop = core.run_until(k).map(|r| (r.status, r.output));
            let got = pause_point(core.steps(), core.state_digest(), stop);
            assert_eq!(got, want, "{name}: machine stride {stride} paused at {k}");
        }
        if stopped {
            return;
        }
    }
}

/// Pausing the production core at any step must land on exactly the
/// state the reference core reaches at that step — including pauses that
/// fall inside a fused unit, which the core reaches through its plain
/// table. Swept over every corpus program and the first 20 generated
/// programs, on both substrates and on both production loops.
#[test]
fn boundary_sweep_pauses_match_reference_at_every_step() {
    let mut programs = corpus();
    programs.extend((0..20).map(generated));
    for (name, source) in programs {
        let (module, prog) = compile(&name, &source);
        sweep_interp(&name, &module, 500_000, || NopHook);
        sweep_interp(&name, &module, 500_000, || ActiveNop);
        sweep_machine(&name, &prog, 500_000, || NopAsmHook);
        sweep_machine(&name, &prog, 500_000, || ActiveNop);
    }
}

/// A small kernel for the snapshot-resume test, which restores every
/// snapshot and runs it to completion (quadratic in the run length).
const SNAP_KERNEL: &str = "
    int vals[8];
    int main() {
      int s = 3;
      for (int i = 0; i < 8; i += 1) {
        s = (s * 1103515245 + 12345) & 2147483647;
        vals[i] = s;
      }
      int t = 0;
      for (int r = 0; r < 3; r += 1) {
        for (int i = 0; i < 8; i += 1) { t += vals[i] & 7; }
      }
      print_i64(t);
      return 0;
    }";

/// The capture point after one at `steps`: the next multiple of
/// `interval` past it, as `run_with_snapshots` schedules them.
fn next_due(mut due: u64, interval: u64, steps: u64) -> u64 {
    while due <= steps {
        due += interval;
    }
    due
}

/// Snapshots are the contract between the profiling run that captures
/// them and every fast-forwarded injection that restores them. Snapshots
/// the production core captures at intervals 1–4 (so captures land at
/// every offset inside every fused unit) must be taken where the
/// reference core pauses for the same capture point and hold exactly its
/// state there, and restored into the reference core they must run to
/// the reference's final state.
#[test]
fn production_snapshots_resume_identically_on_reference_core() {
    let (module, prog) = compile("snap-kernel", SNAP_KERNEL);
    let max_steps = 1_000_000;
    let iopts = InterpOptions {
        max_steps,
        ..InterpOptions::default()
    };
    let mopts = MachOptions {
        max_steps,
        ..MachOptions::default()
    };
    let (interp_final, _) = run_interp(&module, max_steps, NopHook, Core::Reference);
    let (machine_final, _) = run_machine(&prog, max_steps, NopAsmHook, Core::Reference);
    for interval in 1..=4u64 {
        let (res, snaps) = Interp::new(&module, iopts, NopHook)
            .unwrap()
            .run_with_snapshots(interval);
        assert_eq!(res.steps, interp_final.steps, "interp capture run");
        assert!(
            !snaps.is_empty(),
            "interp interval {interval}: no snapshots"
        );
        let mut paused = Interp::new(&module, iopts, NopHook).unwrap();
        let mut due = interval;
        for snap in &snaps {
            // The capture rule: the first boundary at or past `due`.
            assert!(paused.run_reference_until(due).is_none());
            due = next_due(due, interval, paused.steps());
            assert_eq!(
                (paused.steps(), paused.state_digest()),
                (snap.steps(), *snap.digest()),
                "interp interval {interval}: snapshot at {}",
                snap.steps()
            );
            let mut resumed = Interp::restore(&module, iopts, NopHook, snap);
            let res = resumed.run_reference_until(u64::MAX).unwrap();
            assert_eq!(
                observe_interp(&resumed, res),
                interp_final,
                "interp interval {interval}: resumed from {}",
                snap.steps()
            );
        }

        let (res, snaps) = Machine::new(&prog, mopts, NopAsmHook)
            .unwrap()
            .run_with_snapshots(interval);
        assert_eq!(res.steps, machine_final.steps, "machine capture run");
        assert_eq!(snaps.len() as u64, (res.steps - 1) / interval);
        let mut paused = Machine::new(&prog, mopts, NopAsmHook).unwrap();
        let mut due = interval;
        for snap in &snaps {
            assert!(paused.run_reference_until(due).is_none());
            due = next_due(due, interval, paused.steps());
            assert_eq!(
                (paused.steps(), paused.state_digest()),
                (snap.steps(), *snap.digest()),
                "machine interval {interval}: snapshot at {}",
                snap.steps()
            );
            let mut resumed = Machine::restore(&prog, mopts, NopAsmHook, snap);
            let res = resumed.run_reference_until(u64::MAX).unwrap();
            assert_eq!(
                observe_machine(&resumed, res),
                machine_final,
                "machine interval {interval}: resumed from {}",
                snap.steps()
            );
        }
    }
}

/// Source for the fixed event-order tests: nested loops over memory with
/// a store in the inner body, so the event stream interleaves results,
/// operand uses, loads, and stores across fusion candidates (latch
/// compare+branch triples included).
const EVENT_KERNEL: &str = "
    int vals[16];
    int main() {
      int s = 3;
      for (int i = 0; i < 16; i += 1) {
        s = (s * 1103515245 + 12345) & 2147483647;
        vals[i] = s;
      }
      int t = 0;
      for (int r = 0; r < 6; r += 1) {
        for (int i = 0; i < 16; i += 1) { t += vals[i] & 7; }
      }
      print_i64(t);
      return 0;
    }";

/// Records every `on_result` site while fully active — used on the
/// reference core to pick fault targets for the phase recorder.
#[derive(Default)]
struct SiteCensus {
    results: Vec<InstSite>,
}

impl InterpHook for SiteCensus {
    fn on_result(&mut self, site: InstSite, _frame: u64, _val: &mut RtVal) {
        self.results.push(site);
    }
}

/// A quiescence-aware recording fault hook with the same phase structure
/// as the LLFI hook: inert-until-site (recording only its own site's
/// results, which is all the contract lets it observe), then — once the
/// watched dynamic instance retires and `bit` (if any) has been flipped
/// in its result — fully active for a fixed number of events, then inert
/// forever. The recorded event log must be byte-identical whether the
/// core honors the quiescence report (production) or ignores it
/// (reference). With `sleep` off the hook reports `Active` until the
/// fault too, so the production core delivers it inside a fused unit's
/// evented path instead of stepping the watched unit alone.
struct PhaseRecorder {
    sleep: bool,
    target: InstSite,
    /// Fire on this dynamic instance of `target` (1-based).
    nth: u64,
    /// Result bit to flip at the fire point (modulo the result width).
    bit: Option<u32>,
    seen: u64,
    /// 0 = until-site, 1 = active, 2 = done.
    phase: u8,
    /// Events still to record while active.
    remaining: u32,
    events: Vec<String>,
}

impl PhaseRecorder {
    fn new(target: InstSite, nth: u64, bit: Option<u32>, sleep: bool) -> PhaseRecorder {
        PhaseRecorder {
            sleep,
            target,
            nth,
            bit,
            seen: 0,
            phase: 0,
            remaining: 64,
            events: Vec::new(),
        }
    }

    fn record(&mut self, ev: String) {
        self.events.push(ev);
        self.remaining -= 1;
        if self.remaining == 0 {
            self.phase = 2;
        }
    }
}

impl InterpHook for PhaseRecorder {
    fn on_result(&mut self, site: InstSite, frame: u64, val: &mut RtVal) {
        match self.phase {
            0 if site == self.target => {
                self.seen += 1;
                if self.seen == self.nth {
                    if let Some(b) = self.bit {
                        *val = val.with_bit_flipped(b % val.bit_width());
                    }
                    self.phase = 1;
                }
                self.events.push(format!(
                    "pre-result {site:?} f{frame} n{} {val:?}",
                    self.seen
                ));
            }
            1 => self.record(format!("result {site:?} f{frame} {val:?}")),
            _ => {}
        }
    }

    fn on_use(&mut self, def: InstSite, consumer: InstSite, frame: u64) {
        if self.phase == 1 {
            self.record(format!("use {def:?} -> {consumer:?} f{frame}"));
        }
    }

    fn on_load(&mut self, site: InstSite, frame: u64, addr: u64, size: u64) {
        if self.phase == 1 {
            self.record(format!("load {site:?} f{frame} {addr:#x}+{size}"));
        }
    }

    fn on_store(&mut self, site: InstSite, frame: u64, addr: u64, size: u64) {
        if self.phase == 1 {
            self.record(format!("store {site:?} f{frame} {addr:#x}+{size}"));
        }
    }

    fn quiescence(&self) -> Quiescence<InstSite> {
        match self.phase {
            0 if self.sleep => Quiescence::UntilSite(self.target),
            0 | 1 => Quiescence::Active,
            _ => Quiescence::Forever,
        }
    }
}

/// Runs one recorder on the reference core and, sleeping and not, on the
/// production core, and requires the same event log, stop status, step
/// count, and state digest. Returns the reference log.
fn interp_events_match(
    name: &str,
    m: &Module,
    max_steps: u64,
    recorder: impl Fn(bool) -> PhaseRecorder,
) -> Vec<String> {
    let (want, want_hook) = run_interp(m, max_steps, recorder(true), Core::Reference);
    for sleep in [true, false] {
        let (got, got_hook) = run_interp(m, max_steps, recorder(sleep), Core::Production);
        assert_eq!(
            got_hook.events, want_hook.events,
            "{name}: interp event log (sleep {sleep})"
        );
        assert_eq!(got, want, "{name}: interp final state (sleep {sleep})");
    }
    want_hook.events
}

/// Draws `count` seeded `(site, instance)` fault targets from a census of
/// dynamic events: each a uniformly chosen event, identified by its
/// static site and which instance of that site it is.
fn pick_targets<S: Copy + PartialEq>(
    census: &[S],
    rng: &mut StdRng,
    count: usize,
) -> Vec<(S, u64)> {
    (0..count)
        .map(|_| {
            let pick = rng.gen_range(0..census.len());
            let target = census[pick];
            let nth = census[..=pick].iter().filter(|s| **s == target).count() as u64;
            (target, nth)
        })
        .collect()
}

/// The budget faulted runs get: a faulty run may loop forever, so (like
/// the campaign engine's hang budget) it is bounded by a multiple of the
/// golden run.
fn fault_budget(golden_steps: u64) -> u64 {
    golden_steps * 4 + 1_000
}

/// The quiescent fast loop must not reorder, drop, or duplicate hook
/// events, and a fault delivered at the watched site must propagate the
/// same way on both cores: a hook that sleeps until a site, flips a bit
/// there, wakes for a window of full instrumentation, and then sleeps
/// forever records the exact same event log and ends in the same state.
/// Checked on a fixed kernel (with and without a flip) and on 200
/// generated programs at three seeded (site, instance, bit) triples each.
#[test]
fn interp_hook_event_order_matches_across_cores() {
    let (module, _) = compile("event-kernel", EVENT_KERNEL);
    let (golden, census) = run_interp(&module, 1_000_000, SiteCensus::default(), Core::Reference);
    let results = census.results;
    assert!(
        results.len() > 100,
        "kernel too small to pick a mid-run site"
    );
    // The result event one third into the run, and which dynamic
    // instance of its site it is.
    let pick = results.len() / 3;
    let target = results[pick];
    let nth = results[..=pick].iter().filter(|s| **s == target).count() as u64;
    for bit in [None, Some(0), Some(17)] {
        let events = interp_events_match(
            "event-kernel",
            &module,
            fault_budget(golden.steps),
            |sleep| PhaseRecorder::new(target, nth, bit, sleep),
        );
        assert!(
            events.iter().any(|e| e.starts_with("result ")),
            "active window never opened — bad target choice"
        );
    }

    for seed in 0..200u64 {
        let (name, source) = generated(seed);
        let (module, _) = compile(&name, &source);
        let (golden, census) = run_interp(&module, 500_000, SiteCensus::default(), Core::Reference);
        if census.results.is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for (target, nth) in pick_targets(&census.results, &mut rng, 3) {
            let bit = rng.gen_range(0..64u32);
            let label = format!("{name} {target:?}#{nth} bit {bit}");
            interp_events_match(&label, &module, fault_budget(golden.steps), |sleep| {
                PhaseRecorder::new(target, nth, Some(bit), sleep)
            });
        }
    }
}

/// Records every retire index whose instruction writes a register —
/// used on the reference core to pick fault targets for the asm recorder.
struct RetireCensus<'p> {
    prog: &'p AsmProgram,
    retires: Vec<usize>,
}

impl AsmHook for RetireCensus<'_> {
    fn on_retire(&mut self, idx: usize, _st: &mut MachState) {
        if self.prog.insts[idx].dest().is_some() {
            self.retires.push(idx);
        }
    }
}

/// The asm-level twin of [`PhaseRecorder`]: retire events only, with the
/// post-retire FLAGS image folded into the log so a fused pair that
/// clobbered FLAGS between halves would be caught, not just one that
/// reordered retires. At the fire point it flips `bit` of the target
/// instruction's destination (the lowest FLAGS bit it writes, for a
/// FLAGS destination), like a PINFI fault. `sleep` as in
/// [`PhaseRecorder`].
struct AsmPhaseRecorder {
    sleep: bool,
    dest: Option<RegId>,
    target: usize,
    nth: u64,
    bit: Option<u32>,
    seen: u64,
    phase: u8,
    remaining: u32,
    events: Vec<String>,
}

impl AsmPhaseRecorder {
    fn new(
        prog: &AsmProgram,
        target: usize,
        nth: u64,
        bit: Option<u32>,
        sleep: bool,
    ) -> AsmPhaseRecorder {
        AsmPhaseRecorder {
            sleep,
            dest: prog.insts[target].dest(),
            target,
            nth,
            bit,
            seen: 0,
            phase: 0,
            remaining: 64,
            events: Vec::new(),
        }
    }
}

impl AsmHook for AsmPhaseRecorder {
    fn on_retire(&mut self, idx: usize, st: &mut MachState) {
        match self.phase {
            0 if idx == self.target => {
                self.seen += 1;
                if self.seen == self.nth {
                    match (self.dest, self.bit) {
                        (Some(RegId::Gpr(r)), Some(b)) => st.regs[r.index()] ^= 1 << (b % 64),
                        (Some(RegId::Xmm(x)), Some(b)) => st.xmm[x.index()][0] ^= 1 << (b % 64),
                        (Some(RegId::Flags(mask)), Some(_)) => {
                            st.flags ^= mask & mask.wrapping_neg()
                        }
                        _ => {}
                    }
                    self.phase = 1;
                }
                self.events.push(format!(
                    "pre-retire {idx} n{} flags={:#x} regs={:x?}",
                    self.seen,
                    st.flags & ALL_FLAGS,
                    st.regs
                ));
            }
            1 => {
                self.events
                    .push(format!("retire {idx} flags={:#x}", st.flags & ALL_FLAGS));
                self.remaining -= 1;
                if self.remaining == 0 {
                    self.phase = 2;
                }
            }
            _ => {}
        }
    }

    fn quiescence(&self) -> Quiescence<usize> {
        match self.phase {
            0 if self.sleep => Quiescence::UntilSite(self.target),
            0 | 1 => Quiescence::Active,
            _ => Quiescence::Forever,
        }
    }
}

/// The asm twin of [`interp_events_match`].
fn machine_events_match(
    name: &str,
    p: &AsmProgram,
    max_steps: u64,
    recorder: impl Fn(bool) -> AsmPhaseRecorder,
) -> Vec<String> {
    let (want, want_hook) = run_machine(p, max_steps, recorder(true), Core::Reference);
    for sleep in [true, false] {
        let (got, got_hook) = run_machine(p, max_steps, recorder(sleep), Core::Production);
        assert_eq!(
            got_hook.events, want_hook.events,
            "{name}: machine event log (sleep {sleep})"
        );
        assert_eq!(got, want, "{name}: machine final state (sleep {sleep})");
    }
    want_hook.events
}

/// Same contract at the asm level: the retire-event log of a fault hook
/// that sleeps until a site, flips a destination bit there, wakes for a
/// window, and sleeps again is identical across cores, and so is the
/// final state. Checked on the fixed kernel's first fusable
/// compare+branch (so the quiescent loop has to stop inside a
/// superinstruction) and on 200 generated programs at three seeded
/// (site, instance, bit) triples each.
#[test]
fn machine_hook_event_order_matches_across_cores() {
    let (_, prog) = compile("event-kernel", EVENT_KERNEL);
    let (golden, _) = run_machine(&prog, 1_000_000, NopAsmHook, Core::Reference);
    let target = prog
        .insts
        .iter()
        .zip(prog.insts.iter().skip(1))
        .position(|(head, tail)| {
            matches!(
                head,
                Inst::Cmp { .. } | Inst::Alu { .. } | Inst::Test { .. }
            ) && matches!(tail, Inst::Jcc { .. })
        })
        .expect("kernel lowers with at least one fusable compare+branch");
    for bit in [None, Some(0)] {
        let events =
            machine_events_match("event-kernel", &prog, fault_budget(golden.steps), |sleep| {
                AsmPhaseRecorder::new(&prog, target, 4, bit, sleep)
            });
        assert!(
            events.iter().any(|e| e.starts_with("retire ")),
            "active window never opened — bad target choice"
        );
    }

    for seed in 0..200u64 {
        let (name, source) = generated(seed);
        let (_, prog) = compile(&name, &source);
        let census = RetireCensus {
            prog: &prog,
            retires: Vec::new(),
        };
        let (golden, census) = run_machine(&prog, 500_000, census, Core::Reference);
        if census.retires.is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for (target, nth) in pick_targets(&census.retires, &mut rng, 3) {
            let bit = rng.gen_range(0..64u32);
            let label = format!("{name} inst {target}#{nth} bit {bit}");
            machine_events_match(&label, &prog, fault_budget(golden.steps), |sleep| {
                AsmPhaseRecorder::new(&prog, target, nth, Some(bit), sleep)
            });
        }
    }
}

/// Flips one FLAGS bit at the Nth retire of the targeted instruction,
/// with the same quiescence phases as the real PINFI hook: inert until
/// the site, inert forever once the fault is in.
struct FlagInjector {
    target: usize,
    nth: u64,
    seen: u64,
    injected: bool,
}

impl AsmHook for FlagInjector {
    fn on_retire(&mut self, idx: usize, st: &mut MachState) {
        if !self.injected && idx == self.target {
            self.seen += 1;
            if self.seen == self.nth {
                st.flags ^= 1 << ZF;
                self.injected = true;
            }
        }
    }

    fn quiescence(&self) -> Quiescence<usize> {
        if self.injected {
            Quiescence::Forever
        } else {
            Quiescence::UntilSite(self.target)
        }
    }
}

/// A FLAGS-targeted injection delivered at the ALU half of a fused
/// ALU+jcc superinstruction must steer the branch: the fused pair
/// re-reads FLAGS after the head's retire event, so flipping ZF there
/// behaves exactly as it does between two reference steps. The backend
/// always separates ALU ops from branches with an explicit compare, so
/// the pair is hand-assembled: a countdown loop whose `sub rax, 1` feeds
/// `jne` directly (the sub-as-compare idiom the fusion exists for).
#[test]
fn flag_injection_inside_fused_alu_jcc_steers_branch_identically() {
    let insts = vec![
        Inst::Mov {
            width: Width::B8,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(32),
        },
        Inst::Mov {
            width: Width::B8,
            dst: Operand::Reg(Reg::Rbx),
            src: Operand::Imm(0),
        },
        // loop: rbx += rax; rax -= 1; jne loop
        Inst::Alu {
            op: AluOp::Add,
            dst: Reg::Rbx,
            src: Operand::Reg(Reg::Rax),
        },
        Inst::Alu {
            op: AluOp::Sub,
            dst: Reg::Rax,
            src: Operand::Imm(1),
        },
        Inst::Jcc {
            cond: Cond::Ne,
            target: 2,
        },
        Inst::Ret,
    ];
    let prog = AsmProgram {
        insts,
        funcs: vec![AsmFunc {
            name: "main".into(),
            entry: 0,
            end: 6,
        }],
        globals: vec![],
        main: 0,
    };
    let sub_idx = 3;
    let injector = || FlagInjector {
        target: sub_idx,
        nth: 5,
        seen: 0,
        injected: false,
    };

    // Flip ZF at the 5th `sub rax, 1` (rax = 27, ZF would be clear):
    // `jne` must fall through and the loop must exit 27 iterations early.
    let (faulty_ref, hook) = run_machine(&prog, 1_000_000, injector(), Core::Reference);
    assert!(hook.injected, "fault was never delivered");
    let (clean, _) = run_machine(&prog, 1_000_000, NopAsmHook, Core::Reference);
    assert!(
        faulty_ref.steps < clean.steps,
        "injection did not steer the branch: {} vs {} steps",
        faulty_ref.steps,
        clean.steps
    );
    let (got, hook) = run_machine(&prog, 1_000_000, injector(), Core::Production);
    assert!(hook.injected, "fault was never delivered");
    assert_eq!(got, faulty_ref, "steered branch diverged from reference");
    let (got, _) = run_machine(&prog, 1_000_000, NopAsmHook, Core::Production);
    assert_eq!(got, clean, "clean run diverged from reference");
}
