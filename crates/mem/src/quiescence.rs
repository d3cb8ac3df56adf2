//! The hook-phase contract shared by both substrates.
//!
//! Each substrate runs one pre-decoded execution core. Before every step
//! slice the core asks its hook for a [`Quiescence`] phase; an inert hook
//! lets the core run a monomorphized fast loop with hook dispatch
//! compiled out. The phase never changes what the hook observes.

/// A hook's self-reported instrumentation phase, shared by both
/// substrates (`S` is the substrate's static-site type).
///
/// The decoded cores consult this before every step slice: a hook that
/// reports itself inert lets the core enter a monomorphized *quiescent*
/// loop that skips hook dispatch and per-use events entirely. The
/// contract is that quiescence never changes what the hook observes:
///
/// * [`Quiescence::Active`] — the hook may observe or mutate anything;
///   the core must deliver the full event stream. This is the default
///   and always safe.
/// * [`Quiescence::UntilSite(s)`] — the hook promises that every event
///   *not* produced by executing the static instruction `s` itself is
///   ignored. Events produced by *consumers* of `s` (an
///   `on_use(def = s, ..)` fired while some later instruction reads the
///   slot) do **not** wake the hook either: a hook may only report
///   `UntilSite` while it ignores those too (both fault hooks qualify
///   pre-injection, since activation tracking requires an injected
///   fault). The core fast-steps until control reaches `s`, then
///   replays normal evented execution for that instruction.
/// * [`Quiescence::Forever`] — the hook ignores every event for the
///   rest of the run (golden executions, and fault runs once the
///   verdict is settled). The core fast-steps to the next boundary.
///
/// Boundaries the fast loops always honor regardless of phase:
/// `run_until` pause points, step budgets, and checkpoint bookkeeping
/// (the fast loops are only entered when checkpointing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quiescence<S> {
    /// Full instrumentation required.
    Active,
    /// Inert until execution reaches the given static site.
    UntilSite(S),
    /// Inert for the remainder of the run.
    Forever,
}
