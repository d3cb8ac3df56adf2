//! Profiling runs: dynamic instruction counts and golden outputs.
//!
//! Both injectors first profile the program (paper §III step 3: "first
//! profiling the program to obtain the total count of executed
//! instructions"), producing the golden output for SDC detection, the
//! golden step count for hang budgets, and per-instruction dynamic counts
//! used to pick a uniformly random dynamic instance.

use crate::category::{llfi_candidates, pinfi_candidates, Category};
use crate::drive::Executor;
use fiq_asm::{AsmHook, AsmProgram, MachOptions, MachSnapshot, MachState, Machine};
use fiq_interp::{InstSite, Interp, InterpHook, InterpOptions, InterpSnapshot, RtVal};
use fiq_ir::Module;
use fiq_mem::{RunResult, Trap};

/// LLFI profile: per-(function, instruction) dynamic execution counts plus
/// golden-run data.
#[derive(Debug, Clone)]
pub struct LlfiProfile {
    /// Golden (fault-free) output.
    pub golden_output: String,
    /// Golden dynamic instruction count.
    pub golden_steps: u64,
    /// `counts[func][inst]` = dynamic executions of that instruction.
    pub counts: Vec<Vec<u64>>,
}

struct CountingHook {
    counts: Vec<Vec<u64>>,
}

impl InterpHook for CountingHook {
    fn on_result(&mut self, site: InstSite, _frame: u64, _val: &mut RtVal) {
        self.counts[site.func.index()][site.inst.index()] += 1;
    }
}

/// Profiles a module at the IR level.
///
/// # Errors
///
/// Returns the trap if interpreter setup fails; a golden run that crashes
/// or hangs is a caller bug and is reported as an error too.
pub fn profile_llfi(module: &Module, opts: InterpOptions) -> Result<LlfiProfile, String> {
    // No run reaches step `u64::MAX`, so this takes no checkpoint.
    profile_llfi_with_snapshots(module, opts, u64::MAX).map(|(p, _)| p)
}

/// [`profile_llfi`] plus execution snapshots captured every `interval`
/// dynamic steps, for checkpointed fast-forward injection. Each carries
/// a copy of the counting hook's per-site counts at its capture point.
///
/// The profiling (golden) run's hooks only observe — they never perturb
/// state — so each snapshot is a valid prefix of *every* faulty run up to
/// its planned injection point.
///
/// # Errors
///
/// Same error conditions as [`profile_llfi`].
pub fn profile_llfi_with_snapshots(
    module: &Module,
    opts: InterpOptions,
    interval: u64,
) -> Result<(LlfiProfile, Vec<InterpSnapshot>), String> {
    let hook = CountingHook {
        counts: module
            .funcs
            .iter()
            .map(|f| vec![0; f.insts.len()])
            .collect(),
    };
    let mut interp = Interp::new(module, opts, hook).map_err(|t: Trap| t.to_string())?;
    let (result, snapshots) = run_with_snapshots(&mut interp, interval, |i, prev| {
        i.snapshot(prev, i.hook().counts.clone())
    });
    if !result.finished() {
        return Err(format!("golden IR run did not finish: {:?}", result.status));
    }
    let profile = LlfiProfile {
        golden_output: result.output,
        golden_steps: result.steps,
        counts: interp.into_hook().counts,
    };
    Ok((profile, snapshots))
}

impl LlfiProfile {
    /// Total dynamic executions of the candidate set for `cat`
    /// (the paper's Table IV numbers at the IR level).
    pub fn category_count(&self, module: &Module, cat: Category) -> u64 {
        self.cumulative(module, cat).last().map_or(0, |&(_, c)| c)
    }

    /// Builds the cumulative distribution used to sample a uniform dynamic
    /// instance from category `cat`: `(site, cumulative_count)` pairs.
    pub fn cumulative(&self, module: &Module, cat: Category) -> Vec<(InstSite, u64)> {
        self.cumulative_over(&llfi_candidates(module, cat))
    }

    /// [`LlfiProfile::cumulative`] over any candidate bitmap
    /// (`bits[func][inst]`), such as a calibrated one.
    pub(crate) fn cumulative_over(&self, bits: &[Vec<bool>]) -> Vec<(InstSite, u64)> {
        let mut cum = Vec::new();
        let mut running = 0u64;
        for (f, fbits) in bits.iter().enumerate() {
            for (i, &b) in fbits.iter().enumerate() {
                let c = self.counts[f][i];
                if b && c > 0 {
                    running += c;
                    cum.push((
                        InstSite {
                            func: fiq_ir::FuncId(f as u32),
                            inst: fiq_ir::InstId(i as u32),
                        },
                        running,
                    ));
                }
            }
        }
        cum
    }
}

/// PINFI profile: per-instruction-index dynamic counts plus golden-run
/// data.
#[derive(Debug, Clone)]
pub struct PinfiProfile {
    /// Golden (fault-free) output.
    pub golden_output: String,
    /// Golden dynamic instruction count.
    pub golden_steps: u64,
    /// `counts[idx]` = dynamic executions of instruction `idx`.
    pub counts: Vec<u64>,
}

struct AsmCountingHook {
    counts: Vec<u64>,
}

impl AsmHook for AsmCountingHook {
    fn on_retire(&mut self, idx: usize, _st: &mut MachState) {
        self.counts[idx] += 1;
    }
}

/// Profiles a program at the assembly level.
///
/// # Errors
///
/// Returns an error if machine setup fails or the golden run does not
/// finish.
pub fn profile_pinfi(prog: &AsmProgram, opts: MachOptions) -> Result<PinfiProfile, String> {
    // No run reaches step `u64::MAX`, so this takes no checkpoint.
    profile_pinfi_with_snapshots(prog, opts, u64::MAX).map(|(p, _)| p)
}

/// [`profile_pinfi`] plus execution snapshots captured every `interval`
/// retired instructions, for checkpointed fast-forward injection. Each
/// carries a copy of the counting hook's retire counts at its capture
/// point.
///
/// # Errors
///
/// Same error conditions as [`profile_pinfi`].
pub fn profile_pinfi_with_snapshots(
    prog: &AsmProgram,
    opts: MachOptions,
    interval: u64,
) -> Result<(PinfiProfile, Vec<MachSnapshot>), String> {
    let hook = AsmCountingHook {
        counts: vec![0; prog.insts.len()],
    };
    let mut machine = Machine::new(prog, opts, hook).map_err(|t| t.to_string())?;
    let (result, snapshots) = run_with_snapshots(&mut machine, interval, |m, prev| {
        m.snapshot(prev, m.hook().counts.clone())
    });
    if !result.finished() {
        return Err(format!(
            "golden asm run did not finish: {:?}",
            result.status
        ));
    }
    let profile = PinfiProfile {
        golden_output: result.output,
        golden_steps: result.steps,
        counts: machine.into_hook().counts,
    };
    Ok((profile, snapshots))
}

impl PinfiProfile {
    /// Total dynamic executions of the candidate set for `cat`
    /// (the paper's Table IV numbers at the assembly level).
    pub fn category_count(&self, prog: &AsmProgram, cat: Category) -> u64 {
        self.cumulative(prog, cat).last().map_or(0, |&(_, c)| c)
    }

    /// Builds the cumulative distribution for sampling a dynamic instance
    /// from category `cat`: `(inst index, cumulative_count)` pairs.
    pub fn cumulative(&self, prog: &AsmProgram, cat: Category) -> Vec<(usize, u64)> {
        let bits = pinfi_candidates(prog, cat);
        let mut cum = Vec::new();
        let mut running = 0u64;
        for (i, &b) in bits.iter().enumerate() {
            if b && self.counts[i] > 0 {
                running += self.counts[i];
                cum.push((i, running));
            }
        }
        cum
    }
}

/// Runs `exec` to its end, taking a checkpoint with `take` at the first
/// instruction boundary at or past each multiple of `interval` (clamped
/// to at least 1) — the capture schedule of both levels. `take` receives
/// the paused executor and the previous checkpoint, whose unchanged
/// memory pages the new one shares.
///
/// The run pauses with [`Executor::run_until`], the same boundary rule a
/// faulty run pauses at to compare against a checkpoint. After a capture
/// at step `s` the next one is due at the first multiple of `interval`
/// past `s`.
pub fn run_with_snapshots<E: Executor>(
    exec: &mut E,
    interval: u64,
    take: impl Fn(&E, Option<&E::Snapshot>) -> E::Snapshot,
) -> (RunResult, Vec<E::Snapshot>) {
    let interval = interval.max(1);
    let mut snapshots = Vec::new();
    let mut due = interval;
    loop {
        if let Some(result) = exec.run_until(due) {
            return (result, snapshots);
        }
        snapshots.push(take(exec, snapshots.last()));
        due = (exec.steps() / interval + 1).saturating_mul(interval);
    }
}

/// A borrowed view of one cell's golden run used for convergence
/// detection: the profiling checkpoints and the golden step count.
///
/// Passed to [`run_llfi_observed`](crate::run_llfi_observed) /
/// [`run_pinfi_observed`](crate::run_pinfi_observed), whose shared
/// driver uses it for divergence observation and early exit: whenever
/// the faulty run's step counter crosses a checkpoint's step count with
/// the fault settled, its state is compared against the checkpoint, and
/// an exact match proves the remaining execution identical to golden — so
/// the run can stop right there with
/// `steps = faulty_steps + (golden_steps − checkpoint_steps)`.
pub struct GoldenRef<'a, S> {
    /// Profiling snapshots, ordered by capture step.
    pub snapshots: &'a [S],
    /// Dynamic instruction count of the full golden run.
    pub golden_steps: u64,
}

// Manual impls: the derive would needlessly require `S: Copy`, but this
// is a borrow plus an integer whatever the snapshot type is.
impl<S> Clone for GoldenRef<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for GoldenRef<'_, S> {}

/// Samples the `k`-th (1-based) dynamic instance from a cumulative
/// distribution: returns the element and the instance number *within* that
/// element.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the distribution total.
pub fn locate<T: Copy>(cum: &[(T, u64)], k: u64) -> (T, u64) {
    assert!(k >= 1, "instance numbers are 1-based");
    let pos = cum.partition_point(|&(_, c)| c < k);
    let (elem, c) = cum[pos];
    let prev = if pos == 0 { 0 } else { cum[pos - 1].1 };
    debug_assert!(k <= c);
    (elem, k - prev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_maps_global_instance_to_local() {
        // Three sites with counts 5, 3, 2 (cumulative 5, 8, 10).
        let cum = vec![("a", 5u64), ("b", 8), ("c", 10)];
        assert_eq!(locate(&cum, 1), ("a", 1));
        assert_eq!(locate(&cum, 5), ("a", 5));
        assert_eq!(locate(&cum, 6), ("b", 1));
        assert_eq!(locate(&cum, 8), ("b", 3));
        assert_eq!(locate(&cum, 9), ("c", 1));
        assert_eq!(locate(&cum, 10), ("c", 2));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn locate_rejects_zero() {
        locate(&[("a", 1u64)], 0);
    }
}
