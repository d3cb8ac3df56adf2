//! # fiq-fuzz — cross-level differential fuzzing
//!
//! The repo simulates the same workload at two levels — IR
//! interpretation (the "LLFI" level) and a lowered synthetic machine
//! (the "PINFI" level) — and the paper's whole methodology rests on
//! those two substrates agreeing bit-for-bit in the absence of injected
//! faults. This crate stress-tests that agreement: a seeded generator
//! produces random well-defined Mini-C programs ([`gen`]), a set of
//! differential oracles checks each one across every optimization
//! pipeline, across both substrates, across checkpoint restore/replay,
//! and across the accelerations of faulted runs ([`oracle`]), and a
//! structural reducer shrinks any
//! failure to a small reproducer ([`reduce`]) fit for `tests/corpus/`.
//!
//! Everything is deterministic: the same seed produces byte-identical
//! programs, findings, and reductions on every run.

#![warn(missing_docs)]

pub mod gen;
pub mod oracle;
pub mod reduce;

pub use gen::{generate, render, Gen, Program};
pub use oracle::{
    apply_opt, check_source, CheckFailure, Divergence, OracleKind, OracleSet, ALL_OPT_LEVELS,
};
pub use reduce::reduce;

/// Everything a fuzzing run needs besides the seed range.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Optimization levels to check (subset of 0..=3).
    pub levels: Vec<u8>,
    /// Which oracles to run.
    pub oracles: OracleSet,
    /// Per-run dynamic instruction budget. Generated programs are
    /// bounded far below this; reaching it is a hang finding.
    pub max_steps: u64,
    /// Reducer evaluation budget (0 disables reduction).
    pub reduce_budget: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            levels: ALL_OPT_LEVELS.to_vec(),
            oracles: OracleSet::default(),
            max_steps: 20_000_000,
            reduce_budget: 400,
        }
    }
}

/// A fuzzing finding: the failing program plus its shrunken form.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The per-program seed that produced the failure.
    pub seed: u64,
    /// What failed.
    pub failure: CheckFailure,
    /// The original generated source.
    pub source: String,
    /// The reduced source (equals `source` when reduction is disabled
    /// or nothing could be removed).
    pub reduced: String,
    /// Oracle evaluations the reducer spent.
    pub reduce_evals: usize,
}

/// Outcome of a fuzzing run: how many programs passed, and the first
/// failure if one was found.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Programs that passed every oracle.
    pub passed: u64,
    /// The first failure, if any (the run stops there).
    pub failure: Option<FuzzFailure>,
}

/// Fuzzes `count` programs derived from `base_seed` (program `i` uses
/// seed `base_seed.wrapping_add(i)`), stopping at the first failure.
/// `progress` is called after each passing program with (done, count).
pub fn run_fuzz(
    base_seed: u64,
    count: u64,
    cfg: &FuzzConfig,
    mut progress: impl FnMut(u64, u64),
) -> FuzzOutcome {
    for i in 0..count {
        let seed = base_seed.wrapping_add(i);
        let program = Gen::new(seed).program();
        let source = render(&program);
        match check_source(&source, &cfg.levels, cfg.oracles, cfg.max_steps) {
            Ok(()) => progress(i + 1, count),
            Err(failure) => {
                let (reduced, reduce_evals) = match (&failure, cfg.reduce_budget) {
                    (CheckFailure::Divergence(d), budget) if budget > 0 => {
                        let (small, evals) = reduce::reduce(
                            &program,
                            d.oracle,
                            &cfg.levels,
                            cfg.oracles,
                            cfg.max_steps,
                            budget,
                        );
                        (render(&small), evals)
                    }
                    _ => (source.clone(), 0),
                };
                return FuzzOutcome {
                    passed: i,
                    failure: Some(FuzzFailure {
                        seed,
                        failure,
                        source,
                        reduced,
                        reduce_evals,
                    }),
                };
            }
        }
    }
    FuzzOutcome {
        passed: count,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fuzz_run_is_clean_and_deterministic() {
        let cfg = FuzzConfig {
            reduce_budget: 0,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(7, 5, &cfg, |_, _| {});
        assert!(a.failure.is_none(), "seed 7: {:?}", a.failure);
        assert_eq!(a.passed, 5);
        for i in 0..5 {
            assert_eq!(generate(7 + i), generate(7 + i));
        }
    }

    #[test]
    fn reducer_shrinks_a_seeded_divergence() {
        // Force a "divergence" by running a program whose step count
        // exceeds an artificially tiny budget: the opt-agreement oracle
        // reports the unfinished run, and the reducer must shrink the
        // program while preserving that failure.
        let program = Gen::new(3).program();
        let src = render(&program);
        let levels = [0u8];
        let oracles = OracleSet::default();
        let err = check_source(&src, &levels, oracles, 50).unwrap_err();
        let CheckFailure::Divergence(d) = &err else {
            panic!("expected divergence, got {err}");
        };
        assert_eq!(d.oracle, OracleKind::OptAgreement);
        let (small, evals) = reduce::reduce(&program, d.oracle, &levels, oracles, 50, 200);
        assert!(evals > 0);
        let reduced_src = render(&small);
        assert!(reduced_src.len() <= src.len());
        // The reduced program still fails the same oracle.
        let again = check_source(&reduced_src, &levels, oracles, 50).unwrap_err();
        let CheckFailure::Divergence(d2) = again else {
            panic!("reduced program no longer diverges");
        };
        assert_eq!(d2.oracle, OracleKind::OptAgreement);
    }
}
