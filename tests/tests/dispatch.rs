//! Differential lockstep tests for the execution cores.
//!
//! Each substrate runs one production core, the pre-decoded table, and
//! keeps its per-instruction `match` as a reference core that only
//! `run_reference_until` reaches. The two must be observationally
//! indistinguishable: identical step counts, stop status, console bytes
//! and hook event order, and states that the cores' own exact compare
//! (`capture` on one, `equals_capture` on the other: frames or registers,
//! memory, console length) finds equal. This suite checks that on both
//! substrates:
//!
//! * full runs of every corpus regression and 200 generated programs,
//!   with an inert hook (quiescent fast loop) and an always-active one
//!   (evented loop);
//! * a boundary sweep that pauses the production core at *every* step,
//!   so on the interpreter every pause lands at every offset inside every
//!   fused unit and exercises the unfused `plain` table it steps near a
//!   boundary, and on the machine (one table, one instruction per step)
//!   every pause is reached by the quiescent and the evented loop;
//! * snapshots captured by the production core, restored into the
//!   reference core, run to the reference's final state;
//! * faulted runs: phase-switching recorder hooks that sleep until a
//!   site, flip one bit there, record a window of events, and sleep
//!   again, over a fixed kernel and 200 generated programs;
//! * a ZF fault delivered at a `sub` steering the adjacent `jne` on the
//!   machine's production core exactly as on its reference core;
//! * a hand-built program through every census-driven asm decoded form,
//!   on NaN, ±0.0 and ±inf operands and with each memory form trapping;
//! * the census itself: the share of the catalog golden runs' asm steps
//!   that still take the `Generic` fallback.

use fiq_asm::{
    AluOp, AsmFunc, AsmHook, AsmProgram, Cond, Inst, MachOptions, MachSnapshot, MachState, Machine,
    NopAsmHook, Operand, Reg, RegId, RunResult, Width, ALL_FLAGS, ZF,
};
use fiq_backend::LowerOptions;
use fiq_core::{run_with_snapshots, Executor};
use fiq_interp::{
    ExecResult, InstSite, Interp, InterpHook, InterpOptions, InterpSnapshot, NopHook, RtVal,
};
use fiq_ir::Module;
use fiq_mem::Quiescence;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything the cores must agree on but the rest of their state,
/// which [`assert_same`] compares exactly.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    steps: u64,
    status: String,
    output: String,
    console: String,
}

/// A core stopped at the end of a run, with what it reported.
struct Ran<C> {
    obs: Observed,
    core: C,
}

fn observe_interp<H: InterpHook>(interp: Interp<'_, H>, res: ExecResult) -> Ran<Interp<'_, H>> {
    Ran {
        obs: Observed {
            steps: res.steps,
            status: format!("{:?}", res.status),
            output: res.output,
            console: interp.console().contents().to_string(),
        },
        core: interp,
    }
}

fn observe_machine<H: AsmHook>(machine: Machine<'_, H>, res: RunResult) -> Ran<Machine<'_, H>> {
    Ran {
        obs: Observed {
            steps: res.steps,
            status: format!("{:?}", res.status),
            output: res.output,
            console: machine.console().contents().to_string(),
        },
        core: machine,
    }
}

/// True when `got`'s state equals `want`'s exactly, steps aside: the
/// cores' own capture compare (frames or registers, memory bytes and
/// layout, console length).
fn same_state<G: Executor, W: Executor<Capture = G::Capture>>(got: &G, want: &W) -> bool {
    got.equals_capture(&want.capture())
}

/// Asserts that two runs ended alike: the same observations and exactly
/// the same state.
fn assert_same<G: Executor, W: Executor<Capture = G::Capture>>(
    got: &Ran<G>,
    want: &Ran<W>,
    what: &str,
) {
    assert_eq!(got.obs, want.obs, "{what}");
    assert!(same_state(&got.core, &want.core), "{what}: states differ");
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

fn run_interp<H: InterpHook>(
    m: &Module,
    max_steps: u64,
    hook: H,
    core: Core,
) -> Ran<Interp<'_, H>> {
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
    observe_interp(interp, res)
}

fn run_machine<H: AsmHook>(
    p: &AsmProgram,
    max_steps: u64,
    hook: H,
    core: Core,
) -> Ran<Machine<'_, H>> {
    let opts = MachOptions { max_steps };
    let mut machine = Machine::new(p, opts, hook).expect("machine setup");
    let res = match core {
        Core::Reference => machine
            .run_reference_until(u64::MAX)
            .expect("an unbounded run stops"),
        Core::Production => machine.run(),
    };
    observe_machine(machine, res)
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
    let want = run_interp(&module, max_steps, NopHook, Core::Reference);
    let got = run_interp(&module, max_steps, NopHook, Core::Production);
    assert_same(&got, &want, &format!("{name}: interp quiescent loop"));
    let got = run_interp(&module, max_steps, ActiveNop, Core::Production);
    assert_same(&got, &want, &format!("{name}: interp evented loop"));

    let want = run_machine(&prog, max_steps, NopAsmHook, Core::Reference);
    let got = run_machine(&prog, max_steps, NopAsmHook, Core::Production);
    assert_same(&got, &want, &format!("{name}: machine quiescent loop"));
    let got = run_machine(&prog, max_steps, ActiveNop, Core::Production);
    assert_same(&got, &want, &format!("{name}: machine evented loop"));
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
/// so the run finishes and the cores must agree on output and state,
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
/// every step from four steps back — farther than the widest IR
/// superinstruction retires (three steps) — so each interpreter pause is
/// approached on the fused table and must switch to the plain one in
/// time.
const SWEEP: [(u64, u64); 5] = [(1, 1), (4, 1), (4, 2), (4, 3), (4, 4)];

/// What one paused (or stopped) core reports; [`same_state`] compares
/// the rest.
fn pause_point<R: std::fmt::Debug>(steps: u64, console: &str, stop: Option<R>) -> String {
    format!("{steps} {console:?} {stop:?}")
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
        let console = reference.console().contents();
        let want = pause_point(reference.steps(), console, stop);
        for (stride, next, core) in &mut cores {
            if *next != k && !stopped {
                continue;
            }
            *next += *stride;
            let stop = core.run_until(k).map(|r| (r.status, r.output));
            let got = pause_point(core.steps(), core.console().contents(), stop);
            assert_eq!(got, want, "{name}: interp stride {stride} paused at {k}");
            assert!(
                same_state(core, &reference),
                "{name}: interp stride {stride} state at {k}"
            );
        }
        if stopped {
            return;
        }
    }
}

/// The asm twin of [`sweep_interp`].
fn sweep_machine<H: AsmHook>(name: &str, p: &AsmProgram, max_steps: u64, hook: impl Fn() -> H) {
    let opts = MachOptions { max_steps };
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
        let console = reference.console().contents();
        let want = pause_point(reference.steps(), console, stop);
        for (stride, next, core) in &mut cores {
            if *next != k && !stopped {
                continue;
            }
            *next += *stride;
            let stop = core.run_until(k).map(|r| (r.status, r.output));
            let got = pause_point(core.steps(), core.console().contents(), stop);
            assert_eq!(got, want, "{name}: machine stride {stride} paused at {k}");
            assert!(
                same_state(core, &reference),
                "{name}: machine stride {stride} state at {k}"
            );
        }
        if stopped {
            return;
        }
    }
}

/// Pausing the production core at any step must land on exactly the
/// state the reference core reaches at that step — including pauses that
/// fall inside an interpreter fused unit, which the interpreter reaches
/// through its plain table. Swept over every corpus program and the
/// first 20 generated programs, on both substrates and on both
/// production loops.
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

/// A production interpreter run with `hook`, checkpointed every
/// `interval` steps by the profiler's capture schedule.
fn interp_snapshots<H: InterpHook>(
    module: &Module,
    opts: InterpOptions,
    hook: H,
    interval: u64,
) -> (ExecResult, Vec<InterpSnapshot>) {
    let mut interp = Interp::new(module, opts, hook).unwrap();
    run_with_snapshots(&mut interp, interval, |i, prev| {
        i.snapshot(prev, Vec::new())
    })
}

/// A production machine run with `hook`, checkpointed every `interval`
/// steps by the profiler's capture schedule.
fn machine_snapshots<H: AsmHook>(
    prog: &AsmProgram,
    opts: MachOptions,
    hook: H,
    interval: u64,
) -> (RunResult, Vec<MachSnapshot>) {
    let mut machine = Machine::new(prog, opts, hook).unwrap();
    run_with_snapshots(&mut machine, interval, |m, prev| {
        m.snapshot(prev, Vec::new())
    })
}

/// Snapshots are the contract between the profiling run that captures
/// them and every fast-forwarded injection that restores them. Snapshots
/// the production core captures at intervals 1–4 (so interpreter
/// captures land at every offset inside every fused unit) must be taken
/// where the reference core pauses for the same capture point and hold
/// exactly its state there, and restored into the reference core they
/// must run to the reference's final state. Each core captures twice:
/// under an inert hook, whose quiescent loop runs up to each pause, and
/// under an always-active one, whose evented loop does; the two lists
/// must also equal each other.
#[test]
fn production_snapshots_resume_identically_on_reference_core() {
    let (module, prog) = compile("snap-kernel", SNAP_KERNEL);
    let max_steps = 1_000_000;
    let iopts = InterpOptions {
        max_steps,
        ..InterpOptions::default()
    };
    let mopts = MachOptions { max_steps };
    let interp_final = run_interp(&module, max_steps, NopHook, Core::Reference);
    let machine_final = run_machine(&prog, max_steps, NopAsmHook, Core::Reference);
    for interval in 1..=4u64 {
        let (res, snaps) = interp_snapshots(&module, iopts, NopHook, interval);
        let (active_res, active) = interp_snapshots(&module, iopts, ActiveNop, interval);
        assert_eq!(res.steps, interp_final.obs.steps, "interp capture run");
        assert_eq!(
            active_res.steps, interp_final.obs.steps,
            "interp capture run"
        );
        assert!(
            !snaps.is_empty(),
            "interp interval {interval}: no snapshots"
        );
        assert_eq!(snaps.len(), active.len(), "interp interval {interval}");
        let mut paused = Interp::new(&module, iopts, NopHook).unwrap();
        let mut due = interval;
        for (snap, evented) in snaps.iter().zip(&active) {
            // The capture rule: the first boundary at or past `due`.
            assert!(paused.run_reference_until(due).is_none());
            due = next_due(due, interval, paused.steps());
            for (which, s) in [("quiescent", snap), ("evented", evented)] {
                assert!(
                    paused.state_equals_snapshot(s),
                    "interp interval {interval}, {which}: snapshot at {} (paused at {})",
                    s.steps(),
                    paused.steps()
                );
            }
            assert!(
                Interp::restore(&module, iopts, NopHook, snap).state_equals_snapshot(evented),
                "interp interval {interval}: loops captured different states at {}",
                snap.steps()
            );
            let mut resumed = Interp::restore(&module, iopts, NopHook, snap);
            let res = resumed.run_reference_until(u64::MAX).unwrap();
            assert_same(
                &observe_interp(resumed, res),
                &interp_final,
                &format!("interp interval {interval}: resumed from {}", snap.steps()),
            );
        }

        let (res, snaps) = machine_snapshots(&prog, mopts, NopAsmHook, interval);
        let (active_res, active) = machine_snapshots(&prog, mopts, ActiveNop, interval);
        assert_eq!(res.steps, machine_final.obs.steps, "machine capture run");
        assert_eq!(
            active_res.steps, machine_final.obs.steps,
            "machine capture run"
        );
        assert_eq!(snaps.len() as u64, (res.steps - 1) / interval);
        assert_eq!(snaps.len(), active.len(), "machine interval {interval}");
        let mut paused = Machine::new(&prog, mopts, NopAsmHook).unwrap();
        let mut due = interval;
        for (snap, evented) in snaps.iter().zip(&active) {
            assert!(paused.run_reference_until(due).is_none());
            due = next_due(due, interval, paused.steps());
            for (which, s) in [("quiescent", snap), ("evented", evented)] {
                assert!(
                    paused.state_equals_snapshot(s),
                    "machine interval {interval}, {which}: snapshot at {} (paused at {})",
                    s.steps(),
                    paused.steps()
                );
            }
            assert!(
                Machine::restore(&prog, mopts, NopAsmHook, snap).state_equals_snapshot(evented),
                "machine interval {interval}: loops captured different states at {}",
                snap.steps()
            );
            let mut resumed = Machine::restore(&prog, mopts, NopAsmHook, snap);
            let res = resumed.run_reference_until(u64::MAX).unwrap();
            assert_same(
                &observe_machine(resumed, res),
                &machine_final,
                &format!("machine interval {interval}: resumed from {}", snap.steps()),
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
/// count, and state. Returns the reference log.
fn interp_events_match(
    name: &str,
    m: &Module,
    max_steps: u64,
    recorder: impl Fn(bool) -> PhaseRecorder,
) -> Vec<String> {
    let want = run_interp(m, max_steps, recorder(true), Core::Reference);
    for sleep in [true, false] {
        let got = run_interp(m, max_steps, recorder(sleep), Core::Production);
        assert_eq!(
            got.core.hook().events,
            want.core.hook().events,
            "{name}: interp event log (sleep {sleep})"
        );
        assert_same(
            &got,
            &want,
            &format!("{name}: interp final state (sleep {sleep})"),
        );
    }
    want.core.into_hook().events
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
    let golden = run_interp(&module, 1_000_000, SiteCensus::default(), Core::Reference);
    let results = &golden.core.hook().results;
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
            fault_budget(golden.obs.steps),
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
        let golden = run_interp(&module, 500_000, SiteCensus::default(), Core::Reference);
        let results = &golden.core.hook().results;
        if results.is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for (target, nth) in pick_targets(results, &mut rng, 3) {
            let bit = rng.gen_range(0..64u32);
            let label = format!("{name} {target:?}#{nth} bit {bit}");
            interp_events_match(&label, &module, fault_budget(golden.obs.steps), |sleep| {
                PhaseRecorder::new(target, nth, Some(bit), sleep)
            });
        }
    }
}

/// Builds `mix`, `pick` and a `main` that calls `mix` in a loop, directly
/// as IR so the calls stay calls: the optimizer inlines every call of the
/// catalog programs, so they never read an argument slot. Every scalar
/// kind crosses a call twice, once computed and once as a constant, and
/// `mix` reads its arguments through stores, struct-field GEPs with
/// constant indices, float arithmetic with `f32` and `f64` constants, an
/// intrinsic, a select, and a nested call whose branch tests an argument.
fn call_kernel() -> Module {
    use fiq_ir::{
        BinOp, Callee, CastOp, Constant, FuncBuilder, Function, Global, GlobalInit, ICmpPred,
        InstKind, IntTy, Intrinsic, Type, Value,
    };
    let rec_ty = Type::Struct(vec![
        Type::i8(),
        Type::i16(),
        Type::i32(),
        Type::i64(),
        Type::f32(),
        Type::f64(),
        Type::Ptr,
    ]);
    let mut m = Module::new("call-kernel");
    let rec = m.add_global(Global {
        name: "rec".into(),
        ty: rec_ty.clone(),
        init: GlobalInit::Zeroed,
    });

    // pick(c: i1, x: i64, y: i64) -> i64
    let mut pick = Function::new(
        "pick",
        vec![Type::i1(), Type::i64(), Type::i64()],
        Type::i64(),
    );
    let mut b = FuncBuilder::new(&mut pick);
    let (then_bb, else_bb) = (b.new_block(), b.new_block());
    b.cond_br(Value::Arg(0), then_bb, else_bb);
    b.switch_to(then_bb);
    let t = b.binary(BinOp::Add, Value::Arg(1), Value::i64(3));
    b.ret(Some(t));
    b.switch_to(else_bb);
    let e = b.binary(BinOp::Sub, Value::Arg(2), Value::Arg(1));
    b.ret(Some(e));
    let pick = m.add_func(pick);

    // mix(a: i1, b: i8, c: i16, d: i32, e: i64, f: f32, g: f64, p: ptr) -> i64
    let params = vec![
        Type::i1(),
        Type::i8(),
        Type::i16(),
        Type::i32(),
        Type::i64(),
        Type::f32(),
        Type::f64(),
        Type::Ptr,
    ];
    let mut mix = Function::new("mix", params.clone(), Type::i64());
    let mut b = FuncBuilder::new(&mut mix);
    let mut fields = Vec::new();
    for k in 0..7u32 {
        let field = b.gep(
            rec_ty.clone(),
            Value::Arg(7),
            vec![Value::i64(0), Value::int(IntTy::I32, i64::from(k))],
        );
        b.store(Value::Arg(k + 1), field);
        fields.push(b.load(params[k as usize + 1].clone(), field));
    }
    let sb = b.cast(CastOp::SExt, fields[0], Type::i64());
    let sc = b.cast(CastOp::SExt, fields[1], Type::i64());
    let sd = b.cast(CastOp::SExt, fields[2], Type::i64());
    let x = b.binary(BinOp::Add, sb, sc);
    let x = b.binary(BinOp::Add, x, sd);
    let x = b.binary(BinOp::Xor, x, fields[3]);
    let f = b.binary(BinOp::FMul, fields[4], Value::Const(Constant::f32(2.5)));
    let f = b.cast(CastOp::FpExt, f, Type::f64());
    let g = b.binary(BinOp::FMul, fields[5], Value::f64(-0.25));
    let fs = b.binary(BinOp::FAdd, f, g);
    let fs = b.binary(BinOp::FAdd, fs, Value::Arg(6));
    b.call(
        Callee::Intrinsic(Intrinsic::PrintF64),
        vec![Value::Arg(6)],
        Type::Void,
    );
    let y = b.cast(CastOp::FpToSi, fs, Type::i64());
    let z = b.select(Value::Arg(0), x, y);
    let w = b.call(
        Callee::Func(pick),
        vec![Value::Arg(0), z, Value::i64(7)],
        Type::i64(),
    );
    let pa = b.cast(CastOp::PtrToInt, Value::Arg(7), Type::i64());
    let pf = b.cast(CastOp::PtrToInt, fields[6], Type::i64());
    let same = b.binary(BinOp::Sub, pa, pf);
    let r = b.binary(BinOp::Add, w, same);
    b.ret(Some(r));
    let mix = m.add_func(mix);

    let mut main = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut main);
    let entry = b.current_block();
    let (header, body, exit) = (b.new_block(), b.new_block(), b.new_block());
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Type::i64(), vec![(entry, Value::i64(0))]);
    let acc = b.phi(Type::i64(), vec![(entry, Value::i64(0))]);
    let more = b.icmp(ICmpPred::Slt, i, Value::i64(12));
    b.cond_br(more, body, exit);
    b.switch_to(body);
    let computed = vec![
        b.icmp(ICmpPred::Slt, i, Value::i64(6)),
        b.cast(CastOp::Trunc, i, Type::i8()),
        b.cast(CastOp::Trunc, i, Type::i16()),
        b.cast(CastOp::Trunc, i, Type::i32()),
        i,
        b.cast(CastOp::SiToFp, i, Type::f32()),
        b.cast(CastOp::SiToFp, i, Type::f64()),
        Value::Const(Constant::Global(rec)),
    ];
    let r1 = b.call(Callee::Func(mix), computed, Type::i64());
    let constants = vec![
        Value::bool(true),
        Value::int(IntTy::I8, -3),
        Value::int(IntTy::I16, 300),
        Value::int(IntTy::I32, -70_000),
        Value::i64(1 << 40),
        Value::Const(Constant::f32(1.25)),
        Value::f64(-2.5),
        Value::Const(Constant::Global(rec)),
    ];
    let r2 = b.call(Callee::Func(mix), constants, Type::i64());
    let s = b.binary(BinOp::Add, r1, r2);
    let acc2 = b.binary(BinOp::Add, acc, s);
    let i2 = b.binary(BinOp::Add, i, Value::i64(1));
    b.br(header);
    b.switch_to(exit);
    b.call(
        Callee::Intrinsic(Intrinsic::PrintI64),
        vec![acc],
        Type::Void,
    );
    b.ret(None);
    for (phi, next) in [(i, i2), (acc, acc2)] {
        let InstKind::Phi { incomings } = &mut main.inst_mut(phi.as_inst().unwrap()).kind else {
            unreachable!("built as a phi")
        };
        incomings.push((body, next));
    }
    m.add_func(main);
    fiq_ir::verify_module(&m).expect("call kernel verifies");
    m
}

/// Every hook event, in order, from an always-active hook.
#[derive(Default)]
struct EventLog(Vec<String>);

impl InterpHook for EventLog {
    fn on_result(&mut self, site: InstSite, frame: u64, val: &mut RtVal) {
        self.0.push(format!("result {site:?} f{frame} {val:?}"));
    }

    fn on_use(&mut self, def: InstSite, consumer: InstSite, frame: u64) {
        self.0.push(format!("use {def:?} -> {consumer:?} f{frame}"));
    }

    fn on_load(&mut self, site: InstSite, frame: u64, addr: u64, size: u64) {
        self.0
            .push(format!("load {site:?} f{frame} {addr:#x}+{size}"));
    }

    fn on_store(&mut self, site: InstSite, frame: u64, addr: u64, size: u64) {
        self.0
            .push(format!("store {site:?} f{frame} {addr:#x}+{size}"));
    }
}

/// Argument and constant slots: calls that pass every scalar kind, as
/// computed values and as constants, run identically on the reference
/// core and on both production loops — whole runs, the full event log,
/// a pause at every step, and faulted runs that sleep, wake at a seeded
/// site and sleep again.
#[test]
fn argument_and_constant_slots_match_reference() {
    let module = call_kernel();
    let max_steps = 1_000_000;
    let want = run_interp(&module, max_steps, SiteCensus::default(), Core::Reference);
    assert!(want.obs.status.contains("Finished"), "{}", want.obs.status);
    let got = run_interp(&module, max_steps, NopHook, Core::Production);
    assert_same(&got, &want, "call kernel: quiescent loop");
    let got = run_interp(&module, max_steps, ActiveNop, Core::Production);
    assert_same(&got, &want, "call kernel: evented loop");
    let log_want = run_interp(&module, max_steps, EventLog::default(), Core::Reference);
    let log_got = run_interp(&module, max_steps, EventLog::default(), Core::Production);
    assert_eq!(
        log_got.core.hook().0,
        log_want.core.hook().0,
        "call kernel: event log"
    );

    sweep_interp("call-kernel", &module, max_steps, || NopHook);
    sweep_interp("call-kernel", &module, max_steps, || ActiveNop);

    let mut rng = StdRng::seed_from_u64(5);
    for (target, nth) in pick_targets(&want.core.hook().results, &mut rng, 12) {
        let bit = rng.gen_range(0..64u32);
        let label = format!("call-kernel {target:?}#{nth} bit {bit}");
        interp_events_match(&label, &module, fault_budget(want.obs.steps), |sleep| {
            PhaseRecorder::new(target, nth, Some(bit), sleep)
        });
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
/// post-retire FLAGS image folded into the log so a core that clobbered
/// FLAGS between two retires would be caught, not just one that
/// reordered them. At the fire point it flips `bit` of the target
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
    let want = run_machine(p, max_steps, recorder(true), Core::Reference);
    for sleep in [true, false] {
        let got = run_machine(p, max_steps, recorder(sleep), Core::Production);
        assert_eq!(
            got.core.hook().events,
            want.core.hook().events,
            "{name}: machine event log (sleep {sleep})"
        );
        assert_same(
            &got,
            &want,
            &format!("{name}: machine final state (sleep {sleep})"),
        );
    }
    want.core.into_hook().events
}

/// Same contract at the asm level: the retire-event log of a fault hook
/// that sleeps until a site, flips a destination bit there, wakes for a
/// window, and sleeps again is identical across cores, and so is the
/// final state. Checked on the fixed kernel's first FLAGS producer
/// feeding an adjacent `jcc` (so the quiescent loop has to stop right
/// before the instruction whose FLAGS the branch reads) and on 200
/// generated programs at three seeded
/// (site, instance, bit) triples each.
#[test]
fn machine_hook_event_order_matches_across_cores() {
    let (_, prog) = compile("event-kernel", EVENT_KERNEL);
    let golden = run_machine(&prog, 1_000_000, NopAsmHook, Core::Reference);
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
        .expect("kernel lowers with at least one compare+branch pair");
    for bit in [None, Some(0)] {
        let events = machine_events_match(
            "event-kernel",
            &prog,
            fault_budget(golden.obs.steps),
            |sleep| AsmPhaseRecorder::new(&prog, target, 4, bit, sleep),
        );
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
        let golden = run_machine(&prog, 500_000, census, Core::Reference);
        let retires = &golden.core.hook().retires;
        if retires.is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for (target, nth) in pick_targets(retires, &mut rng, 3) {
            let bit = rng.gen_range(0..64u32);
            let label = format!("{name} inst {target}#{nth} bit {bit}");
            machine_events_match(&label, &prog, fault_budget(golden.obs.steps), |sleep| {
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

/// A ZF fault delivered at a `sub` must steer the adjacent `jne` on the
/// production core exactly as on the reference core: the retire event
/// of the `sub` runs before the `jne` reads FLAGS, on the quiescent
/// loop's watch stop as on the evented loop. The backend always
/// separates ALU ops from branches with an explicit compare, so the
/// pair is hand-assembled: a countdown loop whose `sub rax, 1` feeds
/// `jne` directly (the sub-as-compare idiom).
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
    let faulty_ref = run_machine(&prog, 1_000_000, injector(), Core::Reference);
    assert!(faulty_ref.core.hook().injected, "fault was never delivered");
    let clean = run_machine(&prog, 1_000_000, NopAsmHook, Core::Reference);
    assert!(
        faulty_ref.obs.steps < clean.obs.steps,
        "injection did not steer the branch: {} vs {} steps",
        faulty_ref.obs.steps,
        clean.obs.steps
    );
    let got = run_machine(&prog, 1_000_000, injector(), Core::Production);
    assert!(got.core.hook().injected, "fault was never delivered");
    assert_same(&got, &faulty_ref, "steered branch");
    let got = run_machine(&prog, 1_000_000, NopAsmHook, Core::Production);
    assert_same(&got, &clean, "clean run");
}

/// Logs every retire with the full register file and FLAGS, and reports
/// itself always active, so the production core runs its evented loop.
#[derive(Default)]
struct RetireLog(Vec<String>);

impl AsmHook for RetireLog {
    fn on_retire(&mut self, idx: usize, st: &mut MachState) {
        self.0.push(format!(
            "{idx} flags={:#x} regs={:x?} xmm={:x?}",
            st.flags, st.regs, st.xmm
        ));
    }
}

/// The memory forms [`decoded_forms_program`] can end on a trap with.
#[derive(Clone, Copy, Debug)]
enum MemForm {
    MovsdLoad,
    MovsdStore,
    SseMem,
    CmpMem,
    AluMem,
}

/// A hand-assembled program that retires every decoded form the census
/// added — `movsd` x←x, x←m and m←x, `Sse` x,x and x,m for every op, `cmp
/// r,m` and `alu r,m` for every op — over every pair of eight operands:
/// NaN, ±0.0, ±inf and three finite values whose integer images differ in
/// their upper halves. Conditional jumps read the FLAGS each `cmp r,m` and
/// `alu r,m` leaves. With `trap`, the program then runs one access of
/// that form at the given address before returning. Also returns the
/// end of the globals, which the machine's guard gap follows.
fn decoded_forms_program(trap: Option<(MemForm, u64)>) -> (AsmProgram, u64) {
    use fiq_asm::{GlobalImage, MemRef, SseOp, XOperand, Xmm};
    let specials = [
        f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5,
        -2.25,
        f64::from_bits(0x0000_0001_ffff_fff0),
    ];
    let globals = vec![
        GlobalImage {
            name: "vals".into(),
            size: 64,
            align: 8,
            init: specials.iter().flat_map(|v| v.to_le_bytes()).collect(),
        },
        GlobalImage {
            name: "out".into(),
            size: 64,
            align: 8,
            init: Vec::new(),
        },
    ];
    let addrs = AsmProgram::global_addresses(&globals);
    let (vals, out) = (addrs[0], addrs[1]);
    let at = |base: Reg, index: Reg| MemRef {
        base: Some(base),
        index: Some(index),
        scale: 8,
        disp: 0,
    };
    let (vi, vj, oj) = (
        at(Reg::Rbx, Reg::Rsi),
        at(Reg::Rbx, Reg::Rdi),
        at(Reg::R12, Reg::Rdi),
    );
    let x = |n: u8| XOperand::Xmm(Xmm(n));
    let movi = |r: Reg, v: i64| Inst::Mov {
        width: Width::B8,
        dst: Operand::Reg(r),
        src: Operand::Imm(v),
    };
    let movsd = |dst: XOperand, src: XOperand| Inst::Movsd { dst, src };
    let sse = |op: SseOp, dst: u8, src: XOperand| Inst::Sse {
        op,
        dst: Xmm(dst),
        src,
    };
    let alu = |op: AluOp, dst: Reg, src: Operand| Inst::Alu { op, dst, src };
    let cmp = |lhs: Reg, rhs: Operand| Inst::Cmp {
        lhs: Operand::Reg(lhs),
        rhs,
    };
    let mem = |m: MemRef| XOperand::Mem(m);
    let mut insts = vec![
        movi(Reg::Rbx, vals as i64),
        movi(Reg::R12, out as i64),
        movi(Reg::Rsi, 0),
    ];
    let outer = insts.len() as u32;
    insts.push(movi(Reg::Rdi, 0));
    let inner = insts.len() as u32;
    insts.extend([
        movsd(x(0), mem(vi)),
        movsd(x(1), mem(vj)),
        movsd(x(2), x(0)),
        sse(SseOp::Addsd, 2, x(1)),
        movsd(x(3), x(0)),
        sse(SseOp::Subsd, 3, mem(vj)),
        movsd(x(4), x(0)),
        sse(SseOp::Mulsd, 4, x(1)),
        sse(SseOp::Mulsd, 5, mem(vj)),
        movsd(x(6), x(0)),
        sse(SseOp::Divsd, 6, mem(vj)),
        sse(SseOp::Divsd, 7, x(1)),
        sse(SseOp::Subsd, 8, x(0)),
        sse(SseOp::Addsd, 9, mem(vi)),
        sse(SseOp::Sqrtsd, 10, x(1)),
        sse(SseOp::Sqrtsd, 11, mem(vi)),
        movsd(mem(oj), x(6)),
        sse(SseOp::Addsd, 12, mem(oj)),
        Inst::Mov {
            width: Width::B8,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Mem(vi),
        },
        cmp(Reg::Rax, Operand::Mem(vj)),
    ]);
    // Each conditional skips the next instruction, so FLAGS steer state.
    let skip = |insts: &Vec<Inst>, cond: Cond| Inst::Jcc {
        cond,
        target: insts.len() as u32 + 2,
    };
    for (cond, op, dst) in [
        (Cond::L, AluOp::Add, Reg::R8),
        (Cond::B, AluOp::Sub, Reg::R9),
        (Cond::E, AluOp::Imul, Reg::R10),
        (Cond::P, AluOp::And, Reg::R11),
        (Cond::A, AluOp::Or, Reg::R13),
        (Cond::G, AluOp::Xor, Reg::R14),
    ] {
        insts.push(skip(&insts, cond));
        insts.push(alu(op, dst, Operand::Mem(vj)));
        insts.push(skip(&insts, Cond::Ne));
        insts.push(cmp(dst, Operand::Mem(oj)));
    }
    insts.extend([
        alu(AluOp::Add, Reg::Rdi, Operand::Imm(1)),
        cmp(Reg::Rdi, Operand::Imm(8)),
        Inst::Jcc {
            cond: Cond::Ne,
            target: inner,
        },
        alu(AluOp::Add, Reg::Rsi, Operand::Imm(1)),
        cmp(Reg::Rsi, Operand::Imm(8)),
        Inst::Jcc {
            cond: Cond::Ne,
            target: outer,
        },
    ]);
    if let Some((form, addr)) = trap {
        let m = MemRef::base_disp(Reg::Rcx, 0);
        insts.push(movi(Reg::Rcx, addr as i64));
        insts.push(match form {
            MemForm::MovsdLoad => movsd(x(0), mem(m)),
            MemForm::MovsdStore => movsd(mem(m), x(0)),
            MemForm::SseMem => sse(SseOp::Addsd, 0, mem(m)),
            MemForm::CmpMem => cmp(Reg::Rax, Operand::Mem(m)),
            MemForm::AluMem => alu(AluOp::Add, Reg::Rax, Operand::Mem(m)),
        });
    }
    insts.push(Inst::Ret);
    let end = insts.len() as u32;
    let prog = AsmProgram {
        insts,
        funcs: vec![AsmFunc {
            name: "main".into(),
            entry: 0,
            end,
        }],
        globals,
        main: 0,
    };
    (prog, out + 64)
}

/// Every decoded form the census added runs in lockstep with the
/// reference core on NaN, ±0.0 and ±inf operands, and each memory form
/// traps as the reference does on a null, an unmapped and a
/// region-straddling address: whole runs on the quiescent and the evented
/// loop (state, memory and the full retire log), a pause at every step on
/// both loops, and faults injected into each new form's destination.
#[test]
fn census_decoded_forms_lockstep_with_reference() {
    let (_, data_end) = decoded_forms_program(None);
    let mut cases = vec![(String::from("no trap"), None)];
    for form in [
        MemForm::MovsdLoad,
        MemForm::MovsdStore,
        MemForm::SseMem,
        MemForm::CmpMem,
        MemForm::AluMem,
    ] {
        for (trap, addr) in [
            ("NullDeref", 8),
            ("Unmapped", data_end + 64),
            ("OutOfBounds", data_end - 4),
        ] {
            cases.push((format!("{form:?} {trap}"), Some((form, addr, trap))));
        }
    }
    for (name, trap) in cases {
        let (prog, _) = decoded_forms_program(trap.map(|(form, addr, _)| (form, addr)));
        let dec = fiq_asm::DecodedProgram::decode(&prog);
        let generic: Vec<_> = (0..prog.insts.len())
            .filter(|&i| dec.is_generic(i))
            .collect();
        assert_eq!(
            generic,
            [prog.insts.len() - 1],
            "{name}: only `ret` is generic"
        );

        let max_steps = MachOptions::default().max_steps;
        let want = run_machine(&prog, max_steps, RetireLog::default(), Core::Reference);
        let want_status = trap.map_or("Finished".into(), |(_, addr, trap)| {
            format!("Trapped({trap} {{ addr: {addr} }})")
        });
        assert_eq!(want.obs.status, want_status, "{name}");
        let got = run_machine(&prog, max_steps, RetireLog::default(), Core::Production);
        let (got_log, want_log) = (&got.core.hook().0, &want.core.hook().0);
        if let Some(k) =
            (0..got_log.len().max(want_log.len())).find(|&k| got_log.get(k) != want_log.get(k))
        {
            panic!(
                "{name}: retire {k} is {:?}, reference {:?}",
                got_log.get(k),
                want_log.get(k)
            );
        }
        assert_same(&got, &want, &format!("{name}: evented run"));
        let got = run_machine(&prog, max_steps, NopAsmHook, Core::Production);
        assert_same(&got, &want, &format!("{name}: quiescent run"));

        sweep_machine(&name, &prog, 1_000_000, || NopAsmHook);
        sweep_machine(&name, &prog, 1_000_000, || ActiveNop);
        for target in 3..prog.insts.len() - 1 {
            if prog.insts[target].dest().is_some() {
                let label = format!("{name} inst {target}");
                machine_events_match(&label, &prog, 1_000_000, |sleep| {
                    AsmPhaseRecorder::new(&prog, target, 11, Some(63), sleep)
                });
            }
        }
    }
}

/// Counts retires per static instruction index.
struct RetireCounts(Vec<u64>);

impl AsmHook for RetireCounts {
    fn on_retire(&mut self, idx: usize, _st: &mut MachState) {
        self.0[idx] += 1;
    }
}

/// The census of retired asm steps that reach the decoded core's
/// `Generic` fallback, over the golden runs of the six catalog workloads
/// (a noise-free work counter for the decoded forms; 31.6% before the
/// census-driven forms were added). Prints each workload's share and
/// bounds the total.
#[test]
fn generic_fallback_is_a_small_share_of_catalog_asm_steps() {
    let (mut generic, mut total) = (0u64, 0u64);
    for w in &fiq_workloads::CATALOG {
        let c = w.compile().expect("catalog compiles");
        let dec = fiq_asm::DecodedProgram::decode(&c.program);
        let counts = RetireCounts(vec![0; c.program.insts.len()]);
        let counts = run_machine(&c.program, u64::MAX, counts, Core::Reference)
            .core
            .into_hook();
        let all: u64 = counts.0.iter().sum();
        let gen: u64 = (0..counts.0.len())
            .filter(|&i| dec.is_generic(i))
            .map(|i| counts.0[i])
            .sum();
        println!(
            "{:10} {all:9} steps, {gen:8} generic ({:.1}%)",
            w.name,
            100.0 * gen as f64 / all as f64
        );
        generic += gen;
        total += all;
    }
    let share = 100.0 * generic as f64 / total as f64;
    println!(
        "{:10} {total:9} steps, {generic:8} generic ({share:.1}%)",
        "total"
    );
    assert!(
        share <= 5.0,
        "Generic share {share:.1}% of retired asm steps"
    );
}
