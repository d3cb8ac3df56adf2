//! LLFI — the high-level (IR) fault injector.
//!
//! Reproduces the paper's LLFI (§III): pick a uniformly random dynamic
//! instance of an instruction from the chosen category, flip one random
//! bit of its destination value at runtime, and track whether the
//! corrupted value is ever read (fault activation).

use crate::category::Category;
use crate::divergence::Timeline;
use crate::drive::{drive, timed_restore, FaultHook, FaultState};
use crate::outcome::InjectionRun;
use crate::profile::{locate, GoldenRef, LlfiProfile};
use crate::telemetry::TaskTel;
use fiq_interp::{
    DecodedModule, InstSite, Interp, InterpHook, InterpOptions, InterpSnapshot, RtVal,
};
use fiq_ir::{Module, Type};
use fiq_mem::Quiescence;
use rand::Rng;
use std::sync::Arc;

/// A fully planned LLFI injection: *which* dynamic instance of *which*
/// instruction, and which bit of its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlfiInjection {
    /// Target static instruction.
    pub site: InstSite,
    /// 1-based dynamic instance of that instruction.
    pub instance: u64,
    /// Bit to flip in the destination value.
    pub bit: u32,
}

/// Plans a random injection into `cat`. Returns `None` when the category
/// has no dynamic instances in this program.
pub fn plan_llfi(
    module: &Module,
    profile: &LlfiProfile,
    cat: Category,
    rng: &mut impl Rng,
) -> Option<LlfiInjection> {
    plan_llfi_from(module, &profile.cumulative(module, cat), rng)
}

/// [`plan_llfi`] from a precomputed cumulative site table
/// ([`LlfiProfile::cumulative`]): the table depends only on (module,
/// profile, category), so a campaign hoists it out of its per-injection
/// planning loop. Consumes `rng` draws exactly as [`plan_llfi`] does.
pub fn plan_llfi_from(
    module: &Module,
    cum: &[(InstSite, u64)],
    rng: &mut impl Rng,
) -> Option<LlfiInjection> {
    let total = cum.last()?.1;
    let k = rng.gen_range(1..=total);
    let (site, instance) = locate(cum, k);
    let bit = rng.gen_range(0..llfi_width(module, site));
    Some(LlfiInjection {
        site,
        instance,
        bit,
    })
}

/// The fault space of one LLFI site: the low [`bit_width`] bits of its
/// destination. Planning, collapse and enumeration all read it here.
pub(crate) fn llfi_width(module: &Module, site: InstSite) -> u32 {
    bit_width(&module.func(site.func).inst(site.inst).ty)
}

/// The bits of a value of type `ty`: 1 for `i1`, otherwise the type size
/// in bits, clamped to 1..=64.
pub(crate) fn bit_width(ty: &Type) -> u32 {
    if *ty == Type::i1() {
        1
    } else {
        (ty.size() as u32 * 8).clamp(1, 64)
    }
}

/// The injection + activation-tracking hook.
struct LlfiHook {
    site: InstSite,
    instance: u64,
    bit: u32,
    seen: u64,
    /// Frame in which the injected value currently lives (None once
    /// overwritten or not yet injected).
    live_frame: Option<u64>,
    injected: bool,
    activated: bool,
}

impl FaultHook for LlfiHook {
    fn fault(&self) -> FaultState {
        FaultState {
            injected: self.injected,
            live: self.live_frame.is_some(),
            activated: self.activated,
        }
    }
}

impl InterpHook for LlfiHook {
    fn on_result(&mut self, site: InstSite, frame: u64, val: &mut RtVal) {
        if site != self.site {
            return;
        }
        if !self.injected {
            self.seen += 1;
            if self.seen == self.instance {
                *val = val.with_bit_flipped(self.bit);
                self.injected = true;
                self.live_frame = Some(frame);
            }
            return;
        }
        // Re-execution of the target in the same invocation overwrites the
        // SSA slot: the fault is gone if it was never read.
        if self.live_frame == Some(frame) {
            self.live_frame = None;
        }
    }

    fn on_use(&mut self, def: InstSite, _consumer: InstSite, frame: u64) {
        if def == self.site && self.live_frame == Some(frame) {
            self.activated = true;
        }
    }

    /// Pre-injection the hook only acts on `on_result` at the target site
    /// (consumer `on_use` events need `live_frame`, which is still
    /// `None`).
    fn quiescence(&self) -> Quiescence<InstSite> {
        self.fault().quiescence(self.site)
    }
}

/// Runs one LLFI injection from the start of the program and classifies
/// it: [`run_llfi_observed`] without fast-forward, early exit, timeline
/// or telemetry.
///
/// # Errors
///
/// Returns an error string if interpreter setup fails.
pub fn run_llfi(
    module: &Module,
    opts: InterpOptions,
    inj: LlfiInjection,
    golden_output: &str,
) -> Result<InjectionRun, String> {
    run_llfi_observed(
        module,
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

/// Runs one LLFI injection, optionally fast-forwarded, convergence-checked
/// and observed, and classifies it.
///
/// When `snapshot` is given, the interpreter restores it and replays only
/// the tail instead of re-executing the golden prefix. The snapshot must
/// have been captured during this module's profiling run *strictly
/// before* the planned injection occurrence (i.e.
/// `snapshot.site_count(inj.site) < inj.instance`). Because pre-injection
/// hooks only observe, the restored run is bit-identical to a full run:
/// the hook's instance counter starts from the snapshot's count for the
/// target site and the step counter continues from the snapshot value.
///
/// With `golden` and `early_exit`, the run stops at the first golden
/// checkpoint its state provably converges to (digests first, then a full
/// compare, once the activation verdict is settled) and reconstructs the
/// outcome and step count of the full run; `timeline` (which requires
/// `golden`) records a divergence observation at every post-injection
/// checkpoint. The returned [`InjectionRun`] is identical with or without
/// either, and so is every `tel` counter but `pages_compared`. `decoded`
/// shares a table decoded once per cell (`None` decodes inline).
///
/// # Errors
///
/// Returns an error string if interpreter setup fails.
#[allow(clippy::too_many_arguments)]
pub fn run_llfi_observed(
    module: &Module,
    opts: InterpOptions,
    inj: LlfiInjection,
    golden_output: &str,
    snapshot: Option<&InterpSnapshot>,
    golden: Option<GoldenRef<'_, InterpSnapshot>>,
    early_exit: bool,
    timeline: Option<&mut Timeline>,
    decoded: Option<Arc<DecodedModule>>,
    tel: TaskTel<'_>,
) -> Result<InjectionRun, String> {
    let seen = snapshot.map_or(0, |s| s.site_count(inj.site));
    debug_assert!(
        seen < inj.instance,
        "snapshot must precede the injection occurrence"
    );
    let hook = LlfiHook {
        site: inj.site,
        instance: inj.instance,
        bit: inj.bit,
        seen,
        live_frame: None,
        injected: false,
        activated: false,
    };
    let mut interp = match snapshot {
        Some(s) => timed_restore(tel, || {
            Interp::restore_with_decoded(module, decoded, opts, hook, s)
        }),
        None => Interp::with_decoded(module, decoded, opts, hook).map_err(|t| t.to_string())?,
    };
    Ok(drive(
        &mut interp,
        opts.max_steps,
        golden_output,
        golden,
        early_exit,
        timeline,
        tel,
    ))
}
