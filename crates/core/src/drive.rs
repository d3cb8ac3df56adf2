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
use fiq_asm::{AsmHook, MachSnapshot, Machine};
use fiq_interp::{InstSite, Interp, InterpHook, InterpSnapshot};
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
    fn hook(&self) -> &Self::Hook;
    fn run(&mut self) -> RunResult;
    fn run_until(&mut self, until: u64) -> Option<RunResult>;
    fn run_with_snapshots(&mut self, interval: u64) -> (RunResult, Vec<Self::Snapshot>);
    fn steps(&self) -> u64;
    fn restored_steps(&self) -> u64;
    fn steps_quiescent(&self) -> u64;
    fn memory(&self) -> &Memory;
    fn state_matches_digest(&self, snap: &Self::Snapshot) -> bool;
    fn state_equals_snapshot(&self, snap: &Self::Snapshot) -> bool;
    fn divergence_from(&self, snap: &Self::Snapshot) -> Divergence;
}

/// A fault hook, whose state the driver reads.
pub(crate) trait FaultHook {
    fn fault(&self) -> FaultState;
}

/// Implements [`Checkpoint`] for a core's snapshot type and [`Executor`]
/// for the core under any hook by forwarding every method to the
/// inherent method of the same name.
macro_rules! forward_executor {
    ($exec:ident, $hook:path, $snap:ty, $site:ty) => {
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
            fn hook(&self) -> &H {
                <$exec<'_, H>>::hook(self)
            }
            fn run(&mut self) -> RunResult {
                <$exec<'_, H>>::run(self)
            }
            fn run_until(&mut self, until: u64) -> Option<RunResult> {
                <$exec<'_, H>>::run_until(self, until)
            }
            fn run_with_snapshots(&mut self, interval: u64) -> (RunResult, Vec<$snap>) {
                <$exec<'_, H>>::run_with_snapshots(self, interval)
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
            fn state_matches_digest(&self, snap: &$snap) -> bool {
                <$exec<'_, H>>::state_matches_digest(self, snap)
            }
            fn state_equals_snapshot(&self, snap: &$snap) -> bool {
                <$exec<'_, H>>::state_equals_snapshot(self, snap)
            }
            fn divergence_from(&self, snap: &$snap) -> Divergence {
                <$exec<'_, H>>::divergence_from(self, snap)
            }
        }
    };
}
forward_executor!(Interp, InterpHook, InterpSnapshot, InstSite);
forward_executor!(Machine, AsmHook, MachSnapshot, usize);

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

/// Runs a set-up injection to its end and classifies it.
///
/// When `golden` is given, the run pauses at every golden checkpoint it
/// crosses to (a) record a divergence-timeline observation when
/// `timeline` is given and (b) with `early_exit`, stop at the first
/// checkpoint whose state the faulty run has provably converged to,
/// reconstructing the outcome and step count the full run would have
/// reported. Then records the step attribution and activation verdict
/// into `tel`.
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
                // Past the last checkpoint: no convergence opportunities left.
                break 'run (exec.run(), false);
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
            if !exec.state_matches_digest(snap) {
                continue;
            }
            tel.count(cell_counter::DIGEST_MATCHES, 1);
            if !exec.state_equals_snapshot(snap) {
                continue;
            }
            tel.count(cell_counter::CONVERGED, 1);
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
                // the full run would exhaust it mid-suffix and classify as
                // a hang (steps stop at max_steps + 1).
                RunResult {
                    status: RunStatus::BudgetExceeded,
                    steps: max_steps + 1,
                    output: String::new(), // unused: hangs ignore output
                }
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
