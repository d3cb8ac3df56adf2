//! The injection driver shared by both levels.
//!
//! LLFI and PINFI differ only in where a bit is flipped and how
//! activation is tracked (their hooks, paper §III vs §IV). The rest —
//! checkpoint pauses, divergence observation, early exit, step
//! attribution, the activation verdict and classification — is written
//! once here, generic over the executor and monomorphized per level.

use crate::divergence::Timeline;
use crate::outcome::{classify, InjectionRun};
use crate::profile::GoldenRef;
use crate::telemetry::{cell_counter, cell_hist, TaskTel};
use fiq_asm::{AsmHook, MachCapture, MachSnapshot, Machine};
use fiq_interp::{InstSite, Interp, InterpCapture, InterpHook, InterpSnapshot};
use fiq_mem::{Divergence, Memory, Quiescence, RunResult, RunStatus};

/// What the driver reads of a fault hook: whether the fault is in,
/// whether the corrupted location still holds it, and whether it was
/// read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultState {
    /// The planned instance was reached and its bit flipped.
    pub(crate) injected: bool,
    /// The corrupted location still holds the fault (not overwritten).
    pub(crate) live: bool,
    /// The corrupted value was read (monotone).
    pub(crate) activated: bool,
}

impl FaultState {
    /// True once the run's eventual `activated` verdict can no longer
    /// change: the fault is in and is either already activated (the flag
    /// is monotone) or overwritten (no future read can see it).
    /// Convergence checks are gated on this so an early exit freezes
    /// exactly the activation verdict the full run would report.
    pub(crate) fn settled(self) -> bool {
        self.injected && (self.activated || !self.live)
    }

    /// The hook's quiescence contract. Pre-injection the hook acts only
    /// when execution reaches the target `site`, so it is inert until
    /// then. Once the verdict is settled no future event can change
    /// anything the hook reports. In between, every event must be
    /// delivered for activation/overwrite tracking.
    pub(crate) fn quiescence<S>(self, site: S) -> Quiescence<S> {
        if !self.injected {
            Quiescence::UntilSite(site)
        } else if self.settled() {
            Quiescence::Forever
        } else {
            Quiescence::Active
        }
    }

    /// The telemetry counter for the final activation verdict.
    fn verdict(self) -> usize {
        if self.activated {
            cell_counter::VERDICT_ACTIVATED
        } else if !self.live {
            cell_counter::VERDICT_OVERWRITTEN
        } else {
            cell_counter::VERDICT_DORMANT
        }
    }
}

/// A profiling checkpoint of either level.
pub trait Checkpoint {
    /// The static injection site type whose executions are counted.
    type Site: Copy;
    /// Steps executed when the checkpoint was captured.
    fn steps(&self) -> u64;
    /// Executions of `site` before the checkpoint.
    fn site_count(&self, site: Self::Site) -> u64;
}

/// An execution core of either level, whatever its hook: what the
/// injection driver and the fuzzer's replay oracle need of `Interp` and
/// `Machine`. Each method is the core's inherent method of that name.
#[allow(missing_docs)]
pub trait Executor {
    /// The core's checkpoint type.
    type Snapshot: Checkpoint;
    /// The core's hook type.
    type Hook;
    /// The core's capture type, for hang proofs.
    type Capture;
    fn hook(&self) -> &Self::Hook;
    fn run(&mut self) -> RunResult;
    fn run_until(&mut self, until: u64) -> Option<RunResult>;
    fn steps(&self) -> u64;
    fn restored_steps(&self) -> u64;
    fn steps_quiescent(&self) -> u64;
    fn memory(&self) -> &Memory;
    fn state_equals_snapshot(&self, snap: &Self::Snapshot) -> bool;
    fn divergence_from(&self, snap: &Self::Snapshot) -> Divergence;
    fn capture(&self) -> Self::Capture;
    fn equals_capture(&self, capture: &Self::Capture) -> bool;
}

/// A fault hook, whose state the driver reads.
pub(crate) trait FaultHook {
    fn fault(&self) -> FaultState;
}

/// Implements [`Checkpoint`] for a core's snapshot type and [`Executor`]
/// (with the core's capture type) for the core under any hook by
/// forwarding every method to the inherent method of the same name.
macro_rules! forward_executor {
    ($exec:ident, $hook:path, $snap:ty, $capture:ty, $site:ty) => {
        impl Checkpoint for $snap {
            type Site = $site;
            fn steps(&self) -> u64 {
                <$snap>::steps(self)
            }
            fn site_count(&self, site: $site) -> u64 {
                <$snap>::site_count(self, site)
            }
        }

        impl<H: $hook> Executor for $exec<'_, H> {
            type Snapshot = $snap;
            type Hook = H;
            type Capture = $capture;
            fn hook(&self) -> &H {
                <$exec<'_, H>>::hook(self)
            }
            fn run(&mut self) -> RunResult {
                <$exec<'_, H>>::run(self)
            }
            fn run_until(&mut self, until: u64) -> Option<RunResult> {
                <$exec<'_, H>>::run_until(self, until)
            }
            fn steps(&self) -> u64 {
                <$exec<'_, H>>::steps(self)
            }
            fn restored_steps(&self) -> u64 {
                <$exec<'_, H>>::restored_steps(self)
            }
            fn steps_quiescent(&self) -> u64 {
                <$exec<'_, H>>::steps_quiescent(self)
            }
            fn memory(&self) -> &Memory {
                <$exec<'_, H>>::memory(self)
            }
            fn state_equals_snapshot(&self, snap: &$snap) -> bool {
                <$exec<'_, H>>::state_equals_snapshot(self, snap)
            }
            fn divergence_from(&self, snap: &$snap) -> Divergence {
                <$exec<'_, H>>::divergence_from(self, snap)
            }
            fn capture(&self) -> $capture {
                <$exec<'_, H>>::capture(self)
            }
            fn equals_capture(&self, capture: &$capture) -> bool {
                <$exec<'_, H>>::equals_capture(self, capture)
            }
        }
    };
}
forward_executor!(Interp, InterpHook, InterpSnapshot, InterpCapture, InstSite);
forward_executor!(Machine, AsmHook, MachSnapshot, MachCapture, usize);

/// Runs `restore` and records its wall time in the `RESTORE_NS`
/// histogram.
pub(crate) fn timed_restore<E>(tel: TaskTel<'_>, restore: impl FnOnce() -> E) -> E {
    let t0 = tel.enabled().then(std::time::Instant::now);
    let exec = restore();
    if let Some(t0) = t0 {
        tel.hist(cell_hist::RESTORE_NS, t0.elapsed().as_nanos() as u64);
    }
    exec
}

/// Steps between the pauses of a hang proof. A cycle of `p` steps is
/// seen at pauses `p / gcd(p, stride)` apart, and Brent's search proves it
/// within about twice that many pauses once the cycle has begun: for the
/// cycles of 43–335 steps the bundled workloads hang in, within 217k
/// steps of the golden length, against budgets of about ten golden runs
/// (a stride of 1024 needs up to 904k). The pauses themselves cost little
/// next to the steps between them.
pub(crate) const HANG_PROOF_STRIDE: u64 = 256;

/// The result of a run that exhausts a `max_steps` budget: a hang, whose
/// step count stops at `max_steps + 1`.
fn budget_exhausted(max_steps: u64) -> RunResult {
    RunResult {
        status: RunStatus::BudgetExceeded,
        steps: max_steps + 1,
        output: String::new(), // unused: hangs ignore output
    }
}

/// Runs an early-exit run that has passed the last golden checkpoint to
/// its end, or proves that it never ends.
///
/// From one stride past the golden length (most tasks end before it and
/// pay nothing) the run pauses every [`HANG_PROOF_STRIDE`] steps and runs
/// Brent's cycle detection over the paused states: it keeps a capture of
/// the state at the last power-of-two pause and compares each later pause
/// with it exactly. Both cores are deterministic, and a settled hook
/// changes nothing in the run, so a state seen twice recurs forever and
/// the full run would exhaust its budget. The result is then the one the
/// budget would give, which early exit also writes for a projected hang.
///
/// A hook that is not settled at a pause ends the attempt, and the run
/// goes on to its end. That needs an unread fault, whose run still
/// mirrors golden and so never gets here.
fn run_or_prove_hang<E: Executor<Hook: FaultHook>>(
    exec: &mut E,
    golden_steps: u64,
    max_steps: u64,
    tel: TaskTel<'_>,
) -> RunResult {
    let mut at = golden_steps;
    // Brent's search: the capture at the last power-of-two pause, and the
    // pauses since it.
    let mut saved = None;
    let (mut power, mut lag) = (1u64, 0u64);
    loop {
        at = at.saturating_add(HANG_PROOF_STRIDE);
        if let Some(result) = exec.run_until(at) {
            return result;
        }
        if !exec.hook().fault().settled() {
            return exec.run();
        }
        if let Some(capture) = &saved {
            if exec.equals_capture(capture) {
                tel.count(cell_counter::HANGS_PROVEN, 1);
                return budget_exhausted(max_steps);
            }
            lag += 1;
            if lag < power {
                continue;
            }
            power *= 2;
        }
        saved = Some(exec.capture());
        lag = 0;
    }
}

/// Runs a set-up injection to its end and classifies it.
///
/// When `golden` is given, the run pauses at every golden checkpoint it
/// crosses to (a) record a divergence-timeline observation when
/// `timeline` is given and (b) with `early_exit`, stop at the first
/// checkpoint whose state the faulty run has provably converged to,
/// reconstructing the outcome and step count the full run would have
/// reported, and past the last checkpoint to prove a hang whose state
/// repeats ([`run_or_prove_hang`]). Then records the step attribution
/// and activation verdict into `tel`.
pub(crate) fn drive<E: Executor<Hook: FaultHook>>(
    exec: &mut E,
    max_steps: u64,
    golden_output: &str,
    golden: Option<GoldenRef<'_, E::Snapshot>>,
    early_exit: bool,
    mut timeline: Option<&mut Timeline>,
    tel: TaskTel<'_>,
) -> InjectionRun {
    // The (possibly reconstructed) result, and whether it came from an
    // early exit.
    let (result, early_exit) = 'run: {
        let Some(g) = golden else {
            break 'run (exec.run(), false);
        };
        loop {
            // With convergence truncation off, pausing is only for timeline
            // observation; once the timeline closes (a clean entry proves
            // the suffix mirrors golden), the remaining run needs no pauses.
            if !early_exit && !timeline.as_ref().is_some_and(|t| t.open()) {
                break 'run (exec.run(), false);
            }
            // First checkpoint not yet reached. Checkpoints at or below the
            // current step count can never compare equal again (the step
            // counter only grows), so each is considered at most once.
            let next = g.snapshots.partition_point(|s| s.steps() <= exec.steps());
            let Some(snap) = g.snapshots.get(next) else {
                // Past the last checkpoint: no convergence opportunities
                // left, but a run that repeats its state can still be
                // proved to hang.
                let result = if early_exit {
                    run_or_prove_hang(exec, g.golden_steps, max_steps, tel)
                } else {
                    exec.run()
                };
                break 'run (result, false);
            };
            if let Some(result) = exec.run_until(snap.steps()) {
                break 'run (result, false); // ended before the checkpoint
            }
            // Observe before the early-exit machinery: recording is passive
            // (reads the paused state, consumes no RNG, touches none of the
            // counters below), so records and telemetry stay byte-identical
            // with the timeline on or off, but for the pages it compares.
            // Pre-injection pauses are skipped — the run still equals golden
            // there, which is also what makes timelines identical with and
            // without fast-forward.
            let fault = exec.hook().fault();
            if fault.injected {
                if let Some(tl) = timeline.as_mut().filter(|t| t.open()) {
                    tl.record(next as u64, snap.steps(), exec.divergence_from(snap));
                }
            }
            if !early_exit {
                continue;
            }
            // Paused. A diverged run may overshoot the checkpoint's step
            // count inside an atomic φ-batch; then steps differ and the
            // compare is skipped (the partition_point above advances past
            // it).
            if !fault.settled() {
                tel.count(cell_counter::PAUSES_UNSETTLED, 1);
                continue;
            }
            tel.count(cell_counter::DIGEST_COMPARES, 1);
            if !exec.state_equals_snapshot(snap) {
                continue;
            }
            tel.hist(cell_hist::EXIT_CHECKPOINT, next as u64);
            tel.hist(cell_hist::EXIT_STEP, exec.steps());
            // State identical to golden at this step ⇒ the remaining
            // execution mirrors golden exactly (deterministic guest).
            let total = exec.steps() + (g.golden_steps - snap.steps());
            let result = if total <= max_steps {
                // The mirrored suffix finishes within budget; its console
                // already matches golden at the checkpoint, so the final
                // output is exactly the golden output.
                RunResult {
                    status: RunStatus::Finished,
                    steps: total,
                    output: golden_output.to_string(),
                }
            } else {
                // The mirrored suffix is longer than the remaining budget:
                // the full run would exhaust it mid-suffix.
                budget_exhausted(max_steps)
            };
            break 'run (result, true);
        }
    };
    // Step attribution: what the record reports = steps skipped by the
    // fast-forward restore + steps actually executed + steps an early
    // exit reconstructed without executing.
    let skipped = exec.restored_steps();
    let executed = exec.steps() - skipped;
    let reconstructed = result.steps.saturating_sub(exec.steps());
    tel.count(cell_counter::STEPS_REPORTED, result.steps);
    tel.count(cell_counter::STEPS_SKIPPED_FF, skipped);
    tel.count(cell_counter::STEPS_EXECUTED, executed);
    tel.count(cell_counter::STEPS_RECONSTRUCTED_EE, reconstructed);
    tel.count(cell_counter::STEPS_QUIESCENT, exec.steps_quiescent());
    let mem = exec.memory();
    tel.count(
        cell_counter::RESTORE_PAGES_COPIED,
        mem.restore_pages_copied(),
    );
    tel.count(cell_counter::PAGES_COMPARED, mem.pages_compared());
    tel.hist(cell_hist::TASK_STEPS, result.steps);
    let fault = exec.hook().fault();
    debug_assert!(
        fault.injected,
        "planned instance must be reached (deterministic prefix)"
    );
    tel.count(fault.verdict(), 1);
    InjectionRun {
        outcome: classify(
            result.status,
            &result.output,
            golden_output,
            fault.activated,
        ),
        steps: result.steps,
        early_exit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_llfi_with_snapshots;
    use crate::CampaignConfig;
    use fiq_interp::{InterpOptions, RtVal};
    use std::cell::Cell;

    /// A loop whose exit test is an inequality: a counter flipped past
    /// the bound counts on until the budget, never repeating its state.
    const COUNT: &str = "
int main() {
  int s = 0;
  for (int i = 0; i != 50; i += 1) s += i;
  print_i64(s);
  return 0;
}";

    /// Flips `bit` of the first result of `site`, then reports the fault
    /// settled (overwritten) or, without `settle`, live and unread
    /// forever.
    struct Flip {
        site: InstSite,
        bit: u32,
        injected: bool,
        settle: bool,
    }

    impl InterpHook for Flip {
        fn on_result(&mut self, site: InstSite, _frame: u64, val: &mut RtVal) {
            if !self.injected && site == self.site {
                *val = val.with_bit_flipped(self.bit);
                self.injected = true;
            }
        }
    }

    impl FaultHook for Flip {
        fn fault(&self) -> FaultState {
            FaultState {
                injected: self.injected,
                live: !self.settle,
                activated: false,
            }
        }
    }

    /// An executor that counts its pauses past `after` steps and its
    /// captures.
    struct Counting<'c, E> {
        exec: E,
        after: u64,
        pauses: &'c Cell<u64>,
        captures: &'c Cell<u64>,
    }

    impl<E: Executor> Executor for Counting<'_, E> {
        type Snapshot = E::Snapshot;
        type Hook = E::Hook;
        type Capture = E::Capture;
        fn hook(&self) -> &E::Hook {
            self.exec.hook()
        }
        fn run(&mut self) -> RunResult {
            self.exec.run()
        }
        fn run_until(&mut self, until: u64) -> Option<RunResult> {
            let r = self.exec.run_until(until);
            if r.is_none() && until > self.after {
                self.pauses.set(self.pauses.get() + 1);
            }
            r
        }
        fn steps(&self) -> u64 {
            self.exec.steps()
        }
        fn restored_steps(&self) -> u64 {
            self.exec.restored_steps()
        }
        fn steps_quiescent(&self) -> u64 {
            self.exec.steps_quiescent()
        }
        fn memory(&self) -> &Memory {
            self.exec.memory()
        }
        fn state_equals_snapshot(&self, snap: &E::Snapshot) -> bool {
            self.exec.state_equals_snapshot(snap)
        }
        fn divergence_from(&self, snap: &E::Snapshot) -> Divergence {
            self.exec.divergence_from(snap)
        }
        fn capture(&self) -> E::Capture {
            self.captures.set(self.captures.get() + 1);
            self.exec.capture()
        }
        fn equals_capture(&self, capture: &E::Capture) -> bool {
            self.exec.equals_capture(capture)
        }
    }

    /// Runs [`COUNT`] with `bit` 40 of the first result of each
    /// arithmetic site flipped until one hangs, then drives that fault
    /// with early exit and a hook that settles or not. Returns the full
    /// run, the early-exit run, its pauses past the golden length and its
    /// captures, and the budget.
    fn counting_hang(settle: bool) -> (InjectionRun, InjectionRun, u64, u64, u64) {
        let mut m = fiq_frontend::compile("count", COUNT).unwrap();
        fiq_opt::optimize_module(&mut m);
        let (lp, snaps) = profile_llfi_with_snapshots(&m, InterpOptions::default(), 16).unwrap();
        let budget = CampaignConfig::default().hang_budget(lp.golden_steps);
        let opts = InterpOptions {
            max_steps: budget,
            ..InterpOptions::default()
        };
        let run = |site, golden: Option<GoldenRef<'_, _>>, pauses, captures| {
            let hook = Flip {
                site,
                bit: 40,
                injected: false,
                settle,
            };
            let mut exec = Counting {
                exec: Interp::new(&m, opts, hook).unwrap(),
                after: lp.golden_steps,
                pauses,
                captures,
            };
            let ee = golden.is_some();
            drive(
                &mut exec,
                budget,
                &lp.golden_output,
                golden,
                ee,
                None,
                TaskTel::off(),
            )
        };
        let (pauses, captures) = (Cell::new(0), Cell::new(0));
        for (site, _) in lp.cumulative(&m, crate::Category::Arithmetic) {
            let full = run(site, None, &pauses, &captures);
            if full.outcome != crate::Outcome::Hang {
                continue;
            }
            let golden = GoldenRef {
                snapshots: &snaps,
                golden_steps: lp.golden_steps,
            };
            let fast = run(site, Some(golden), &pauses, &captures);
            return (full, fast, pauses.get(), captures.get(), budget);
        }
        panic!("no arithmetic flip of the kernel hangs");
    }

    #[test]
    fn a_counting_hang_is_run_to_the_budget_in_bounded_pauses() {
        let (full, fast, pauses, captures, budget) = counting_hang(true);
        assert_eq!(fast.outcome, full.outcome);
        assert_eq!((full.steps, fast.steps), (budget + 1, budget + 1));
        assert!(!fast.early_exit);
        assert!(
            pauses <= budget / HANG_PROOF_STRIDE + 1,
            "{pauses} pauses for a {budget}-step budget"
        );
        // Brent's search captures at power-of-two pauses only.
        assert!(
            captures <= u64::from(pauses.ilog2()) + 2,
            "{captures} captures"
        );
    }

    #[test]
    fn an_unsettled_fault_attempts_no_proof() {
        // Real hooks settle any fault a run past golden has read; this
        // one never does, so the driver must run on without capturing.
        let (full, fast, pauses, captures, _) = counting_hang(false);
        assert_eq!((fast.outcome, fast.steps), (full.outcome, full.steps));
        assert_eq!(captures, 0);
        assert_eq!(pauses, 1, "the first pause past golden ends the attempt");
    }
}
