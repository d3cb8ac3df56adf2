//! PINFI — the low-level (assembly) fault injector.
//!
//! Reproduces the paper's PINFI (§IV), including its two activation
//! heuristics (Fig 2):
//!
//! * **flag-bit pruning** — injections into compare instructions target
//!   only the FLAGS bits the following conditional jump reads,
//! * **XMM pruning** — injections into double-precision destinations
//!   target only the low 64 of the 128 XMM bits.
//!
//! Both heuristics can be disabled ([`PinfiOptions`]) to quantify their
//! effect on fault-activation rates (DESIGN.md ablation ✦4).

use crate::category::{injection_dest, Category};
use crate::divergence::Timeline;
use crate::outcome::{classify, Outcome};
use crate::profile::{locate, GoldenRef, PinfiProfile};
use crate::telemetry::{cell_counter, cell_hist, TaskTel};
use fiq_asm::{
    AsmHook, AsmProgram, DecodedProgram, ExtFn, Inst, MachOptions, MachSnapshot, MachState,
    Machine, Reg, RegId, RunResult, ALL_FLAGS,
};
use fiq_mem::{Quiescence, RunStatus};
use rand::Rng;
use std::sync::Arc;

/// PINFI configuration (paper §IV heuristics).
#[derive(Debug, Clone, Copy)]
pub struct PinfiOptions {
    /// Restrict flag injections to the bits the next `jcc` reads.
    pub flag_pruning: bool,
    /// Restrict XMM injections to the low 64 bits used by scalar doubles.
    pub xmm_pruning: bool,
}

impl Default for PinfiOptions {
    fn default() -> PinfiOptions {
        PinfiOptions {
            flag_pruning: true,
            xmm_pruning: true,
        }
    }
}

/// A fully planned PINFI injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinfiInjection {
    /// Target instruction index.
    pub idx: usize,
    /// 1-based dynamic instance of that instruction.
    pub instance: u64,
    /// Destination register (or FLAGS bits) to corrupt.
    pub dest: RegId,
    /// Bit to flip. For [`RegId::Flags`] this is an absolute FLAGS bit
    /// position; for XMM it may exceed 63 when pruning is off.
    pub bit: u32,
}

/// Plans a random injection into `cat`. Returns `None` when the category
/// has no dynamic instances.
pub fn plan_pinfi(
    prog: &AsmProgram,
    profile: &PinfiProfile,
    cat: Category,
    opts: PinfiOptions,
    rng: &mut impl Rng,
) -> Option<PinfiInjection> {
    plan_pinfi_from(prog, &profile.cumulative(prog, cat), opts, rng)
}

/// [`plan_pinfi`] from a precomputed cumulative site table
/// ([`PinfiProfile::cumulative`]): the table depends only on (program,
/// profile, category), so a campaign hoists it out of its per-injection
/// planning loop. Consumes `rng` draws exactly as [`plan_pinfi`] does.
pub fn plan_pinfi_from(
    prog: &AsmProgram,
    cum: &[(usize, u64)],
    opts: PinfiOptions,
    rng: &mut impl Rng,
) -> Option<PinfiInjection> {
    let total = cum.last()?.1;
    let k = rng.gen_range(1..=total);
    let (idx, instance) = locate(cum, k);
    let dest = injection_dest(prog, idx).expect("candidates have destinations");
    let (dest, bit) = match dest {
        RegId::Flags(mask) => {
            let mask = if opts.flag_pruning { mask } else { ALL_FLAGS };
            let bits: Vec<u32> = (0..64).filter(|b| mask & (1 << b) != 0).collect();
            let bit = bits[rng.gen_range(0..bits.len())];
            (RegId::Flags(mask), bit)
        }
        RegId::Xmm(x) => {
            let width = if opts.xmm_pruning { 64 } else { 128 };
            (RegId::Xmm(x), rng.gen_range(0..width))
        }
        RegId::Gpr(r) => (RegId::Gpr(r), rng.gen_range(0..64)),
    };
    Some(PinfiInjection {
        idx,
        instance,
        dest,
        bit,
    })
}

struct PinfiHook<'p> {
    prog: &'p AsmProgram,
    inj: PinfiInjection,
    seen: u64,
    injected: bool,
    /// The corrupted location still holds the fault.
    live: bool,
    activated: bool,
}

impl PinfiHook<'_> {
    fn reads_fault(&self, inst: &Inst) -> bool {
        // Allocation-free read-set walk: this runs on every retired
        // instruction while the fault is live.
        let mut hit = false;
        inst.for_each_read(&mut |r| {
            hit |= match (r, self.inj.dest) {
                (RegId::Gpr(a), RegId::Gpr(b)) => a == b,
                (RegId::Flags(read_mask), RegId::Flags(_)) => read_mask & (1 << self.inj.bit) != 0,
                // All double-precision operations read only the low XMM
                // half, so a fault in the upper half is never activated.
                (RegId::Xmm(a), RegId::Xmm(b)) => a == b && self.inj.bit < 64,
                _ => false,
            };
        });
        hit
    }

    fn overwrites_fault(&self, inst: &Inst, idx: usize) -> bool {
        // CallExt float functions overwrite xmm0's low half.
        if let Inst::CallExt { ext } = inst {
            if matches!(ext, ExtFn::PrintI64 | ExtFn::PrintChar | ExtFn::Abort) {
                return false;
            }
            return matches!(self.inj.dest, RegId::Xmm(x) if x.index() == 0)
                && self.inj.bit < 64
                && ext.is_float_fn();
        }
        // Idiv writes both rax and rdx.
        if matches!(inst, Inst::Idiv { .. }) {
            return matches!(self.inj.dest, RegId::Gpr(Reg::Rax) | RegId::Gpr(Reg::Rdx));
        }
        let Some(d) = self.prog.insts[idx].dest() else {
            return false;
        };
        match (d, self.inj.dest) {
            (RegId::Gpr(a), RegId::Gpr(b)) => a == b,
            // Flag-setting instructions rewrite every modeled FLAGS bit.
            (RegId::Flags(_), RegId::Flags(_)) => true,
            // Scalar-double writes replace only the low 64 XMM bits: an
            // upper-half fault survives every overwrite (and is never
            // read — the basis of the XMM pruning heuristic).
            (RegId::Xmm(a), RegId::Xmm(b)) => a == b && self.inj.bit < 64,
            _ => false,
        }
    }

    /// True once the run's eventual `activated` verdict can no longer
    /// change: the fault is in (injected) and is either already activated
    /// (the flag is monotone) or overwritten (no future read can see it).
    /// Convergence checks are gated on this so an early exit freezes
    /// exactly the activation verdict the full run would report.
    fn outcome_settled(&self) -> bool {
        self.injected && (self.activated || !self.live)
    }

    fn apply(&self, st: &mut MachState) {
        match self.inj.dest {
            RegId::Gpr(r) => {
                let v = st.reg(r);
                st.set_reg(r, v ^ (1u64 << self.inj.bit));
            }
            RegId::Flags(_) => {
                st.flags ^= 1u64 << self.inj.bit;
            }
            RegId::Xmm(x) => {
                if self.inj.bit < 64 {
                    st.xmm[x.index()][0] ^= 1u64 << self.inj.bit;
                } else {
                    st.xmm[x.index()][1] ^= 1u64 << (self.inj.bit - 64);
                }
            }
        }
    }
}

impl AsmHook for PinfiHook<'_> {
    fn on_retire(&mut self, idx: usize, st: &mut MachState) {
        // Track the existing fault first: this retired instruction may
        // have read (activated) and/or overwritten it. Once activated the
        // verdict is frozen (the flag is monotone and `live` is only
        // consulted when the fault never activated), so the per-retire
        // read/overwrite walk stops paying for the rest of the run.
        if self.injected && self.live && !self.activated {
            let inst = &self.prog.insts[idx];
            if self.reads_fault(inst) {
                self.activated = true;
            }
            if self.overwrites_fault(inst, idx) {
                self.live = false;
            }
        }
        if !self.injected && idx == self.inj.idx {
            self.seen += 1;
            if self.seen == self.inj.instance {
                self.apply(st);
                self.injected = true;
                self.live = true;
            }
        }
    }

    /// Pre-injection the hook only acts on retires of the target
    /// instruction index, so it is inert until execution reaches it. Once
    /// the verdict is settled (activation is monotone and checked before
    /// `live` in the final classification), no future retire can change
    /// anything the hook reports. In between, every retire must be
    /// delivered for the read/overwrite walk.
    fn quiescence(&self) -> Quiescence<usize> {
        if !self.injected {
            Quiescence::UntilSite(self.inj.idx)
        } else if self.outcome_settled() {
            Quiescence::Forever
        } else {
            Quiescence::Active
        }
    }
}

/// Runs one PINFI injection and classifies the outcome.
///
/// # Errors
///
/// Returns an error string if machine setup fails.
pub fn run_pinfi(
    prog: &AsmProgram,
    opts: MachOptions,
    inj: PinfiInjection,
    golden_output: &str,
) -> Result<Outcome, String> {
    run_pinfi_detailed(prog, opts, inj, golden_output).map(|d| d.outcome)
}

/// [`run_pinfi`] plus the retired-instruction count of the faulty run,
/// for per-injection records.
///
/// # Errors
///
/// Returns an error string if machine setup fails.
pub fn run_pinfi_detailed(
    prog: &AsmProgram,
    opts: MachOptions,
    inj: PinfiInjection,
    golden_output: &str,
) -> Result<crate::outcome::InjectionRun, String> {
    run_pinfi_detailed_from(prog, opts, inj, golden_output, None, None)
}

/// [`run_pinfi_detailed`], optionally fast-forwarded and/or
/// convergence-checked.
///
/// When `snapshot` is given, the machine restores it and replays only the
/// tail instead of re-executing the golden prefix. The snapshot must have
/// been captured during this program's profiling run *strictly before*
/// the planned injection occurrence (i.e.
/// `snapshot.site_count(inj.idx) < inj.instance`). The hook's instance
/// counter starts from the snapshot's retire count for the target
/// instruction and the step counter continues from the snapshot value,
/// so the restored run is bit-identical to a full run.
///
/// When `golden` is given, the run additionally pauses at every golden
/// checkpoint step it crosses and — once the fault's activation verdict
/// is settled — compares its architectural state against the checkpoint
/// (digests first, full compare on a digest match). An exact match proves
/// the remaining execution identical to golden, so the run returns
/// immediately with the outcome and reconstructed step count the full run
/// would have produced. Output is bit-identical with or without `golden`;
/// only wall-clock changes.
///
/// # Errors
///
/// Returns an error string if machine setup fails.
pub fn run_pinfi_detailed_from(
    prog: &AsmProgram,
    opts: MachOptions,
    inj: PinfiInjection,
    golden_output: &str,
    snapshot: Option<&MachSnapshot>,
    golden: Option<GoldenRef<'_, MachSnapshot>>,
) -> Result<crate::outcome::InjectionRun, String> {
    run_pinfi_observed(
        prog,
        opts,
        inj,
        golden_output,
        snapshot,
        golden,
        true,
        None,
        None,
        TaskTel::off(),
    )
}

/// [`run_pinfi_detailed_from`] with campaign telemetry, an optional
/// shared pre-decoded program, and an optional divergence [`Timeline`]:
/// records the step-attribution split (skipped / executed /
/// reconstructed), snapshot restore cost, convergence-compare counts, and
/// the fault's activation verdict into `tel`. `decoded` lets the campaign
/// engine decode the program once per cell and share the table across
/// every injection run (`None` decodes inline).
///
/// `early_exit` controls whether golden checkpoints are used for
/// convergence truncation; `timeline` (which requires `golden`)
/// additionally records a per-checkpoint divergence observation at every
/// post-injection pause. Observation is passive — the returned
/// [`InjectionRun`](crate::outcome::InjectionRun) and every `tel` counter
/// but `pages_compared` (which counts the observation's own page
/// compares) are byte-identical with `timeline` present or absent.
/// Passing `true`, `None`, `None`, [`TaskTel::off`] makes this identical to
/// [`run_pinfi_detailed_from`].
///
/// # Errors
///
/// Returns an error string if machine setup fails.
#[allow(clippy::too_many_arguments)]
pub fn run_pinfi_observed(
    prog: &AsmProgram,
    opts: MachOptions,
    inj: PinfiInjection,
    golden_output: &str,
    snapshot: Option<&MachSnapshot>,
    golden: Option<GoldenRef<'_, MachSnapshot>>,
    early_exit: bool,
    timeline: Option<&mut Timeline>,
    decoded: Option<Arc<DecodedProgram>>,
    tel: TaskTel<'_>,
) -> Result<crate::outcome::InjectionRun, String> {
    let seen = snapshot.map_or(0, |s| s.site_count(inj.idx));
    debug_assert!(
        seen < inj.instance,
        "snapshot must precede the injection occurrence"
    );
    let hook = PinfiHook {
        prog,
        inj,
        seen,
        injected: false,
        live: false,
        activated: false,
    };
    let mut machine = match snapshot {
        Some(s) => {
            let t0 = tel.enabled().then(std::time::Instant::now);
            let machine = Machine::restore_with_decoded(prog, decoded, opts, hook, s);
            if let Some(t0) = t0 {
                tel.hist(cell_hist::RESTORE_NS, t0.elapsed().as_nanos() as u64);
            }
            machine
        }
        None => Machine::with_decoded(prog, decoded, opts, hook).map_err(|t| t.to_string())?,
    };
    let (result, early_exit) = drive_pinfi(
        &mut machine,
        opts,
        golden_output,
        golden,
        early_exit,
        timeline,
        tel,
    );
    // Step attribution: what the record reports = steps skipped by the
    // fast-forward restore + steps actually executed + steps an early
    // exit reconstructed without executing.
    let skipped = machine.restored_steps();
    let executed = machine.steps() - skipped;
    let reconstructed = result.steps.saturating_sub(machine.steps());
    tel.count(cell_counter::STEPS_REPORTED, result.steps);
    tel.count(cell_counter::STEPS_SKIPPED_FF, skipped);
    tel.count(cell_counter::STEPS_EXECUTED, executed);
    tel.count(cell_counter::STEPS_RECONSTRUCTED_EE, reconstructed);
    tel.count(cell_counter::STEPS_QUIESCENT, machine.steps_quiescent());
    let mem = &machine.st.mem;
    tel.count(
        cell_counter::RESTORE_PAGES_COPIED,
        mem.restore_pages_copied(),
    );
    tel.count(cell_counter::PAGES_COMPARED, mem.pages_compared());
    tel.hist(cell_hist::TASK_STEPS, result.steps);
    let hook = machine.into_hook();
    debug_assert!(hook.injected, "planned instance must be reached");
    let verdict = if hook.activated {
        cell_counter::VERDICT_ACTIVATED
    } else if !hook.live {
        cell_counter::VERDICT_OVERWRITTEN
    } else {
        cell_counter::VERDICT_DORMANT
    };
    tel.count(verdict, 1);
    Ok(crate::outcome::InjectionRun {
        outcome: classify(result.status, &result.output, golden_output, hook.activated),
        steps: result.steps,
        early_exit,
    })
}

/// Runs the machine to completion, pausing at every golden checkpoint it
/// crosses to (a) record a divergence-timeline observation and (b)
/// early-exit at the first checkpoint whose state the faulty run has
/// provably converged to. Returns the (possibly reconstructed) result and
/// whether it came from an early exit.
fn drive_pinfi(
    machine: &mut Machine<'_, PinfiHook<'_>>,
    opts: MachOptions,
    golden_output: &str,
    golden: Option<GoldenRef<'_, MachSnapshot>>,
    early_exit: bool,
    mut timeline: Option<&mut Timeline>,
    tel: TaskTel<'_>,
) -> (RunResult, bool) {
    let Some(g) = golden else {
        return (machine.run(), false);
    };
    loop {
        // With convergence truncation off, pausing is only for timeline
        // observation; once the timeline closes (a clean entry proves the
        // suffix mirrors golden), the remaining run needs no pauses.
        if !early_exit && !timeline.as_ref().is_some_and(|t| t.open()) {
            return (machine.run(), false);
        }
        // First checkpoint not yet reached; each checkpoint is considered
        // at most once because the step counter only grows.
        let next = g
            .snapshots
            .partition_point(|s| s.steps() <= machine.steps());
        let Some(snap) = g.snapshots.get(next) else {
            return (machine.run(), false);
        };
        if let Some(result) = machine.run_until(snap.steps()) {
            return (result, false); // ended before the checkpoint
        }
        // Observe before the early-exit machinery: recording is passive
        // (reads the paused state, consumes no RNG, touches none of the
        // counters below), so records and telemetry stay byte-identical
        // with the timeline on or off, but for the pages it compares.
        // Pre-injection pauses are skipped — the run still equals golden
        // there, which is also what makes timelines identical with and
        // without fast-forward.
        if machine.hook().injected {
            if let Some(tl) = timeline.as_mut().filter(|t| t.open()) {
                tl.record(next as u64, snap.steps(), machine.divergence_from(snap));
            }
        }
        if !early_exit {
            continue;
        }
        if !machine.hook().outcome_settled() {
            tel.count(cell_counter::PAUSES_UNSETTLED, 1);
            continue;
        }
        tel.count(cell_counter::DIGEST_COMPARES, 1);
        if !machine.state_matches_digest(snap) {
            continue;
        }
        tel.count(cell_counter::DIGEST_MATCHES, 1);
        if machine.state_equals_snapshot(snap) {
            tel.count(cell_counter::CONVERGED, 1);
            tel.hist(cell_hist::EXIT_CHECKPOINT, next as u64);
            tel.hist(cell_hist::EXIT_STEP, machine.steps());
            // State identical to golden at this step ⇒ the remaining
            // execution mirrors golden exactly (deterministic guest).
            let remaining = g.golden_steps - snap.steps();
            let total = machine.steps() + remaining;
            if total <= opts.max_steps {
                return (
                    RunResult {
                        status: RunStatus::Finished,
                        steps: total,
                        output: golden_output.to_string(),
                    },
                    true,
                );
            }
            // The mirrored suffix outlives the budget: the full run would
            // hang at max_steps + 1.
            return (
                RunResult {
                    status: RunStatus::BudgetExceeded,
                    steps: opts.max_steps + 1,
                    output: String::new(), // unused: hangs ignore output
                },
                true,
            );
        }
    }
}
