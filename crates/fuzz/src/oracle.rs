//! Differential oracles over one generated program.
//!
//! Every program is checked at each requested optimization level, and at
//! each level against four oracles:
//!
//! * **opt-agreement** — the interpreted result (exit status + console
//!   output) is identical across all optimization pipelines, from
//!   no-opt to the full module pipeline,
//! * **cross-level** — the IR interpreter ("LLFI level") and the lowered
//!   machine run ("PINFI level") produce identical output,
//! * **snapshot-replay** — a run paused at every checkpoint with
//!   `run_until` and snapshotted there ([`fiq_core::run_with_snapshots`])
//!   reproduces the plain run bit-for-bit, and resuming from *every*
//!   checkpoint replays the rest of the run to the same status, step
//!   count, and output — on both substrates,
//! * **injection** — seeded single-bit faults at both levels classify
//!   identically (outcome and step count) with and without fast-forward
//!   and early exit, and record the same divergence timeline with and
//!   without early exit and fast-forward.
//!
//! A panic inside any compiler stage or substrate is converted into a
//! finding too ([`OracleKind::Panic`]) rather than tearing down the fuzz
//! loop: a compiler pass that panics on a valid program is exactly the
//! kind of bug differential fuzzing exists to surface.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fiq_asm::{AsmProgram, MachOptions, Machine, NopAsmHook, RunResult};
use fiq_backend::LowerOptions;
use fiq_core::{
    plan_llfi, plan_pinfi, profile_llfi_with_snapshots, profile_pinfi_with_snapshots,
    restore_point, run_llfi_observed, run_pinfi_observed, run_with_snapshots, CampaignConfig,
    Category, Checkpoint, Executor, GoldenRef, InjectionRun, PinfiOptions, TaskTel, Timeline,
};
use fiq_interp::{run_module, ExecStatus, Interp, InterpOptions, NopHook};
use fiq_ir::Module;
use fiq_mem::Trap;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which oracle flagged a divergence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OracleKind {
    /// Interpreted result differs between optimization pipelines.
    OptAgreement,
    /// Interpreter and lowered machine disagree.
    CrossLevel,
    /// Checkpoint restore + replay does not reproduce the straight run.
    SnapshotReplay,
    /// A faulted run classifies differently with fast-forward or early
    /// exit, or its divergence timeline depends on them.
    Injection,
    /// A compiler stage or substrate panicked on a valid program.
    Panic,
}

impl OracleKind {
    /// Stable lowercase name (CLI `--oracle` values).
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::OptAgreement => "opt-agreement",
            OracleKind::CrossLevel => "cross-level",
            OracleKind::SnapshotReplay => "snapshot-replay",
            OracleKind::Injection => "injection",
            OracleKind::Panic => "panic",
        }
    }
}

/// Which oracles to run (the panic trap is always armed).
#[derive(Clone, Copy, Debug)]
pub struct OracleSet {
    /// Run the opt-agreement oracle.
    pub opt_agreement: bool,
    /// Run the cross-level oracle.
    pub cross_level: bool,
    /// Run the snapshot-replay oracle.
    pub snapshot_replay: bool,
    /// Run the injection oracle.
    pub injection: bool,
}

impl Default for OracleSet {
    fn default() -> OracleSet {
        OracleSet {
            opt_agreement: true,
            cross_level: true,
            snapshot_replay: true,
            injection: true,
        }
    }
}

impl OracleSet {
    /// Enables only the named oracle. `None` for an unknown name.
    pub fn only(name: &str) -> Option<OracleSet> {
        let mut s = OracleSet {
            opt_agreement: false,
            cross_level: false,
            snapshot_replay: false,
            injection: false,
        };
        match name {
            "opt-agreement" => s.opt_agreement = true,
            "cross-level" => s.cross_level = true,
            "snapshot-replay" => s.snapshot_replay = true,
            "injection" => s.injection = true,
            _ => return None,
        }
        Some(s)
    }
}

/// A confirmed cross-pipeline / cross-level disagreement.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which oracle fired.
    pub oracle: OracleKind,
    /// Optimization level (0–3) the program was running at.
    pub opt_level: u8,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} @ O{}] {}",
            self.oracle.name(),
            self.opt_level,
            self.detail
        )
    }
}

/// Why a program failed its check.
#[derive(Clone, Debug)]
pub enum CheckFailure {
    /// The source did not compile — a generator (or reducer-mutation)
    /// defect, not an oracle finding. The reducer uses this to reject
    /// ill-typed mutations.
    Compile(String),
    /// An oracle fired.
    Divergence(Divergence),
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckFailure::Compile(e) => write!(f, "compile error: {e}"),
            CheckFailure::Divergence(d) => write!(f, "{d}"),
        }
    }
}

/// Every optimization level the oracles distinguish.
pub const ALL_OPT_LEVELS: [u8; 4] = [0, 1, 2, 3];

/// Applies one optimization level in place. `0` = none; `1` = mem2reg +
/// DCE per function; `2` = the full per-function pipeline; `3` = the
/// module pipeline (adds inlining).
pub fn apply_opt(module: &mut Module, level: u8) {
    match level {
        0 => {}
        1 => {
            for f in &mut module.funcs {
                fiq_opt::mem2reg(f);
                fiq_opt::dce(f);
            }
        }
        2 => {
            for f in &mut module.funcs {
                fiq_opt::optimize_function(f);
            }
        }
        _ => {
            fiq_opt::optimize_module(module);
        }
    }
}

fn interp_opts(max_steps: u64) -> InterpOptions {
    InterpOptions {
        max_steps,
        ..InterpOptions::default()
    }
}

fn mach_opts(max_steps: u64) -> MachOptions {
    MachOptions { max_steps }
}

fn status_str(s: ExecStatus) -> String {
    match s {
        ExecStatus::Finished => "finished".to_string(),
        ExecStatus::Trapped(t) => format!("trapped: {t}"),
        ExecStatus::BudgetExceeded => "budget exceeded (hang)".to_string(),
    }
}

fn first_diff(a: &str, b: &str) -> String {
    let line = a
        .lines()
        .zip(b.lines())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.lines().count().min(b.lines().count()));
    let la = a.lines().nth(line).unwrap_or("<eof>");
    let lb = b.lines().nth(line).unwrap_or("<eof>");
    format!("first differing line {}: {la:?} vs {lb:?}", line + 1)
}

fn diverge(oracle: OracleKind, opt_level: u8, detail: String) -> CheckFailure {
    CheckFailure::Divergence(Divergence {
        oracle,
        opt_level,
        detail,
    })
}

/// Checks one Mini-C source against the configured oracles at every
/// requested optimization level. Panics anywhere inside the pipeline are
/// reported as [`OracleKind::Panic`] divergences.
pub fn check_source(
    source: &str,
    levels: &[u8],
    oracles: OracleSet,
    max_steps: u64,
) -> Result<(), CheckFailure> {
    let source = source.to_string();
    let levels = levels.to_vec();
    let caught = catch_unwind(AssertUnwindSafe(move || {
        check_inner(&source, &levels, oracles, max_steps)
    }));
    match caught {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(diverge(
                OracleKind::Panic,
                u8::MAX,
                format!("panicked: {msg}"),
            ))
        }
    }
}

fn check_inner(
    source: &str,
    levels: &[u8],
    oracles: OracleSet,
    max_steps: u64,
) -> Result<(), CheckFailure> {
    let base =
        fiq_frontend::compile("fuzz", source).map_err(|e| CheckFailure::Compile(e.to_string()))?;

    // Baseline: the unoptimized interpreted run. Everything else is
    // compared against it.
    let baseline = run_module(&base, interp_opts(max_steps))
        .map_err(|t| diverge(OracleKind::OptAgreement, 0, format!("setup trap: {t}")))?;
    if !baseline.finished() {
        return Err(diverge(
            OracleKind::OptAgreement,
            0,
            format!(
                "unoptimized run did not finish: {}",
                status_str(baseline.status)
            ),
        ));
    }

    for &level in levels {
        let mut module = base.clone();
        apply_opt(&mut module, level);

        let ir_run = run_module(&module, interp_opts(max_steps))
            .map_err(|t| diverge(OracleKind::OptAgreement, level, format!("setup trap: {t}")))?;
        if oracles.opt_agreement {
            if !ir_run.finished() {
                return Err(diverge(
                    OracleKind::OptAgreement,
                    level,
                    format!(
                        "optimized run did not finish: {}",
                        status_str(ir_run.status)
                    ),
                ));
            }
            if ir_run.output != baseline.output {
                return Err(diverge(
                    OracleKind::OptAgreement,
                    level,
                    format!(
                        "interpreted output differs from the unoptimized run; {}",
                        first_diff(&baseline.output, &ir_run.output)
                    ),
                ));
            }
        }

        let needs_machine = oracles.cross_level || oracles.snapshot_replay || oracles.injection;
        // One machine run serves the cross-level comparison, the
        // machine's replay oracle and its checkpoint interval.
        let machine = if needs_machine {
            let cross = |detail: String| diverge(OracleKind::CrossLevel, level, detail);
            let prog = fiq_backend::lower_module(&module, LowerOptions::default())
                .map_err(|e| cross(format!("lowering rejected valid IR: {e}")))?;
            let run = fiq_asm::run_program(&prog, mach_opts(max_steps))
                .map_err(|t| cross(format!("machine setup trap: {t}")))?;
            Some((prog, run))
        } else {
            None
        };

        if let (true, Some((_, mach_run))) = (oracles.cross_level, &machine) {
            if !mach_run.status.finished() {
                return Err(diverge(
                    OracleKind::CrossLevel,
                    level,
                    format!(
                        "machine run did not finish: {}",
                        status_str(mach_run.status)
                    ),
                ));
            }
            if mach_run.output != baseline.output {
                return Err(diverge(
                    OracleKind::CrossLevel,
                    level,
                    format!(
                        "machine output differs from interpreter; {}",
                        first_diff(&baseline.output, &mach_run.output)
                    ),
                ));
            }
        }

        if oracles.snapshot_replay {
            let opts = interp_opts(max_steps);
            let fresh = Interp::new(&module, opts, NopHook);
            // The oracle reads no site counts, so none are passed.
            let take = |i: &Interp<'_, NopHook>, prev: Option<&_>| i.snapshot(prev, Vec::new());
            let restore = |s: &_| Interp::restore(&module, opts, NopHook, s);
            replay_oracle("interp", level, &ir_run, fresh, take, restore)?;
            if let Some((prog, mach_run)) = &machine {
                let opts = mach_opts(max_steps);
                let fresh = Machine::new(prog, opts, NopAsmHook);
                let take =
                    |m: &Machine<'_, NopAsmHook>, prev: Option<&_>| m.snapshot(prev, Vec::new());
                let restore = |s: &_| Machine::restore(prog, opts, NopAsmHook, s);
                replay_oracle("machine", level, mach_run, fresh, take, restore)?;
            }
        }

        if let (true, Some((prog, mach_run))) = (oracles.injection, &machine) {
            injection_oracle(
                &module,
                prog,
                level,
                max_steps,
                (ir_run.steps, mach_run.steps),
            )?;
        }
    }
    Ok(())
}

/// How many checkpoints the replay oracles aim for. Replaying from each
/// checkpoint once and pausing at every later one keeps the whole check
/// O(checkpoints) full runs.
const TARGET_CHECKPOINTS: u64 = 4;

/// The checkpoint interval for a run of `steps` golden steps.
fn interval(steps: u64) -> u64 {
    (steps / TARGET_CHECKPOINTS).max(1)
}

/// Checks one core's checkpoints: snapshotting (`take`) must not perturb
/// the straight run `plain`, and a run restored from every checkpoint
/// (`restore`) must equal golden exactly at every later checkpoint and
/// finish exactly as `plain` did. `fresh` is a new executor at program
/// start; `core` names it in findings.
fn replay_oracle<E: Executor>(
    core: &str,
    level: u8,
    plain: &RunResult,
    fresh: Result<E, Trap>,
    take: impl Fn(&E, Option<&E::Snapshot>) -> E::Snapshot,
    restore: impl Fn(&E::Snapshot) -> E,
) -> Result<(), CheckFailure> {
    let replay = |detail: String| diverge(OracleKind::SnapshotReplay, level, detail);
    let mut exec = fresh.map_err(|t| replay(format!("setup trap: {t}")))?;
    let (gold, snaps) = run_with_snapshots(&mut exec, interval(plain.steps), take);
    if gold.status != plain.status || gold.steps != plain.steps || gold.output != plain.output {
        return Err(replay(format!(
            "{core}: snapshotting perturbed the run: {} in {} steps vs {} in {} steps",
            status_str(gold.status),
            gold.steps,
            status_str(plain.status),
            plain.steps
        )));
    }

    for (i, snap) in snaps.iter().enumerate() {
        let mut it = restore(snap);
        if !it.state_equals_snapshot(snap) {
            return Err(replay(format!(
                "{core}: restore from checkpoint {i} is lossy"
            )));
        }
        for (j, later) in snaps.iter().enumerate().skip(i + 1) {
            if let Some(res) = it.run_until(later.steps()) {
                return Err(replay(format!(
                    "{core}: replay from checkpoint {i} ended ({}, {} steps) before \
                     reaching checkpoint {j} at step {}",
                    status_str(res.status),
                    res.steps,
                    later.steps()
                )));
            }
            if !it.state_equals_snapshot(later) {
                return Err(replay(format!(
                    "{core}: replay from checkpoint {i} diverged by checkpoint {j}"
                )));
            }
        }
        let fin = it.run();
        if fin.status != gold.status || fin.steps != gold.steps || fin.output != gold.output {
            return Err(replay(format!(
                "{core}: run resumed from checkpoint {i} finished {} in {} steps with {} \
                 output bytes; straight run finished {} in {} steps with {} bytes",
                status_str(fin.status),
                fin.steps,
                fin.output.len(),
                status_str(gold.status),
                gold.steps,
                gold.output.len()
            )));
        }
    }
    Ok(())
}

/// Faults the injection oracle draws per level, program and
/// optimization level.
const INJECTIONS_PER_LEVEL: usize = 3;

/// Checks seeded faults at both levels against every way the campaign
/// engine can run them. The RNG is seeded by the optimization level, so
/// the triples are a pure function of the program. Each level captures
/// its checkpoints at an interval derived from its own golden step count
/// (`steps`: IR, then machine).
fn injection_oracle(
    module: &Module,
    prog: &AsmProgram,
    level: u8,
    max_steps: u64,
    (ir_steps, mach_steps): (u64, u64),
) -> Result<(), CheckFailure> {
    let fail = |detail: String| diverge(OracleKind::Injection, level, detail);
    let mut rng = StdRng::seed_from_u64(u64::from(level));

    let (lp, snaps) =
        profile_llfi_with_snapshots(module, interp_opts(max_steps), interval(ir_steps))
            .map_err(|e| fail(format!("llfi profile: {e}")))?;
    let plan =
        || plan_llfi(module, &lp, Category::All, &mut rng).map(|i| (i, (i.site, i.instance)));
    check_faults(
        &snaps,
        lp.golden_steps,
        plan,
        |inj, budget, snap, golden, ee, tl| {
            let out = &lp.golden_output;
            let opts = interp_opts(budget);
            run_llfi_observed(
                module,
                opts,
                inj,
                out,
                snap,
                golden,
                ee,
                tl,
                None,
                TaskTel::off(),
            )
        },
    )
    .map_err(|e| fail(format!("llfi {e}")))?;

    let (pp, snaps) =
        profile_pinfi_with_snapshots(prog, mach_opts(max_steps), interval(mach_steps))
            .map_err(|e| fail(format!("pinfi profile: {e}")))?;
    let popts = PinfiOptions::default();
    let plan =
        || plan_pinfi(prog, &pp, Category::All, popts, &mut rng).map(|i| (i, (i.idx, i.instance)));
    check_faults(
        &snaps,
        pp.golden_steps,
        plan,
        |inj, budget, snap, golden, ee, tl| {
            let out = &pp.golden_output;
            let opts = mach_opts(budget);
            run_pinfi_observed(
                prog,
                opts,
                inj,
                out,
                snap,
                golden,
                ee,
                tl,
                None,
                TaskTel::off(),
            )
        },
    )
    .map_err(|e| fail(format!("pinfi {e}")))
}

/// Checks [`INJECTIONS_PER_LEVEL`] faults `plan` draws at one level
/// (each with its `(site, instance)`) through [`check_fault`], restoring
/// where the engine would. `run(fault, budget, snapshot, golden,
/// early_exit, timeline)` runs one.
#[allow(clippy::type_complexity)]
fn check_faults<S: Checkpoint, P: Copy + std::fmt::Debug>(
    snaps: &[S],
    golden_steps: u64,
    mut plan: impl FnMut() -> Option<(P, (S::Site, u64))>,
    run: impl Fn(
        P,
        u64,
        Option<&S>,
        Option<GoldenRef<'_, S>>,
        bool,
        Option<&mut Timeline>,
    ) -> Result<InjectionRun, String>,
) -> Result<(), String> {
    let budget = CampaignConfig::default().hang_budget(golden_steps);
    let golden = GoldenRef {
        snapshots: snaps,
        golden_steps,
    };
    for _ in 0..INJECTIONS_PER_LEVEL {
        let Some((inj, (site, instance))) = plan() else {
            break;
        };
        let restore = restore_point(snaps, site, instance, budget);
        check_fault(restore, |snap, compare, early_exit, timeline| {
            run(
                inj,
                budget,
                snap,
                compare.then_some(golden),
                early_exit,
                timeline,
            )
        })
        .map_err(|e| format!("{inj:?}: {e}"))?;
    }
    Ok(())
}

/// Runs one planned fault with and without the fast-forward `restore`
/// point and the golden checkpoints (`run(snapshot, compare, early_exit,
/// timeline)`), and describes the first disagreement with the plain run.
fn check_fault<S>(
    restore: Option<&S>,
    run: impl Fn(Option<&S>, bool, bool, Option<&mut Timeline>) -> Result<InjectionRun, String>,
) -> Result<(), String> {
    let key = |r: InjectionRun| (r.outcome, r.steps);
    let plain = key(run(None, false, true, None)?);
    for (snap, early_exit) in [(restore, false), (None, true), (restore, true)] {
        let got = key(run(snap, early_exit, early_exit, None)?);
        if got != plain {
            return Err(format!(
                "fast-forward {} early-exit {early_exit}: {got:?}, plain run: {plain:?}",
                snap.is_some()
            ));
        }
    }
    // Timelines: without early exit (the reference), with it, and with
    // it after a fast-forward restore.
    let mut timelines = Vec::new();
    for (snap, early_exit) in [(None, false), (None, true), (restore, true)] {
        let mut tl = Timeline::new();
        let got = key(run(snap, true, early_exit, Some(&mut tl))?);
        if got != plain {
            return Err(format!(
                "observed, fast-forward {} early-exit {early_exit}: {got:?}, plain run: {plain:?}",
                snap.is_some()
            ));
        }
        timelines.push(tl);
    }
    if let Some(i) = (1..timelines.len()).find(|&i| timelines[i] != timelines[0]) {
        return Err(format!(
            "timeline variant {i} differs from the run without early exit: {:?} vs {:?}",
            timelines[i].entries, timelines[0].entries
        ));
    }
    Ok(())
}
