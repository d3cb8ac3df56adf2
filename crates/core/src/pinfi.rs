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
use crate::drive::{drive, forward_injector, timed_restore, FaultState};
use crate::outcome::InjectionRun;
use crate::profile::{locate, GoldenRef, PinfiProfile};
use crate::telemetry::TaskTel;
use fiq_asm::{
    AsmHook, AsmProgram, DecodedProgram, ExtFn, Inst, MachOptions, MachSnapshot, MachState,
    Machine, Reg, RegId, ALL_FLAGS,
};
use fiq_mem::Quiescence;
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

    fn fault(&self) -> FaultState {
        FaultState {
            injected: self.injected,
            live: self.live,
            activated: self.activated,
        }
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
    /// instruction index.
    fn quiescence(&self) -> Quiescence<usize> {
        self.fault().quiescence(self.inj.idx)
    }
}

forward_injector!(Machine<'_, PinfiHook<'_>>, MachSnapshot, usize);

/// Runs one PINFI injection from the start of the program and
/// classifies it: [`run_pinfi_observed`] without fast-forward, early
/// exit, timeline or telemetry.
///
/// # Errors
///
/// Returns an error string if machine setup fails.
pub fn run_pinfi(
    prog: &AsmProgram,
    opts: MachOptions,
    inj: PinfiInjection,
    golden_output: &str,
) -> Result<InjectionRun, String> {
    run_pinfi_observed(
        prog,
        opts,
        inj,
        golden_output,
        None,
        None,
        true,
        None,
        None,
        TaskTel::off(),
    )
}

/// Runs one PINFI injection, optionally fast-forwarded,
/// convergence-checked and observed, and classifies it.
///
/// The parameters work as in [`run_llfi_observed`](crate::run_llfi_observed),
/// with the machine's architectural state in place of the interpreter's;
/// a `snapshot` must precede the planned occurrence
/// (`snapshot.site_count(inj.idx) < inj.instance`).
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
) -> Result<InjectionRun, String> {
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
        Some(s) => timed_restore(tel, || {
            Machine::restore_with_decoded(prog, decoded, opts, hook, s)
        }),
        None => Machine::with_decoded(prog, decoded, opts, hook).map_err(|t| t.to_string())?,
    };
    Ok(drive(
        &mut machine,
        opts.max_steps,
        golden_output,
        golden,
        early_exit,
        timeline,
        tel,
    ))
}
