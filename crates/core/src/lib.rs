//! # fiq-core — the fault-injection accuracy study
//!
//! The primary contribution of the reproduced paper (Wei et al., DSN 2014):
//! two software-implemented fault injectors for transient hardware faults,
//! operating at two levels of the same program —
//!
//! * [`llfi`](crate::run_llfi) injects into IR-level instruction
//!   destinations while the program runs on the `fiq-interp` interpreter
//!   (the paper's **LLFI**),
//! * [`pinfi`](crate::run_pinfi) injects into assembly-level destination
//!   registers/FLAGS/XMM while the compiled program runs on the `fiq-asm`
//!   emulator (the paper's **PINFI**),
//!
//! plus the shared machinery: instruction categories (Table III),
//! profiling, fault-activation tracking, outcome classification
//! (crash/SDC/benign/hang), a deterministic parallel campaign runner, and
//! confidence-interval statistics.
//!
//! ## One injection, end to end
//!
//! ```
//! use fiq_core::{plan_llfi, run_llfi, profile_llfi, Category};
//! use fiq_interp::InterpOptions;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut module = fiq_frontend::compile(
//!     "demo",
//!     "int main() { int s = 0; for (int i = 0; i < 99; i += 1) s += i; print_i64(s); return 0; }",
//! ).unwrap();
//! fiq_opt::optimize_module(&mut module);
//!
//! let profile = profile_llfi(&module, InterpOptions::default())?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let inj = plan_llfi(&module, &profile, Category::Arithmetic, &mut rng).unwrap();
//! let run = run_llfi(&module, InterpOptions::default(), inj, &profile.golden_output)?;
//! println!("{}", run.outcome);
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]

mod calibration;
mod campaign;
mod category;
mod collapse;
mod divergence;
mod drive;
mod engine;
pub mod json;
mod llfi;
mod outcome;
mod pinfi;
mod profile;
pub mod report;
mod stats;
pub mod telemetry;
mod trace;

pub use calibration::{
    calibrated_candidates, calibrated_count, llfi_campaign_calibrated, Calibration,
};
pub use campaign::{cell_seed, llfi_campaign, pinfi_campaign, CampaignConfig, CellReport};
pub use category::{
    injection_dest, llfi_candidates, llfi_matches, pinfi_candidates, pinfi_matches, site_in,
    Category,
};
pub use collapse::{
    analyze_llfi, analyze_pinfi, collapse_llfi, collapse_pinfi, cross_check_llfi,
    cross_check_pinfi, enumerate_llfi, enumerate_pinfi, Collapse, CollapseCheck, CollapseStats,
    LlfiAnalysis, PinfiAnalysis, MAX_EXACT_INSTANCES,
};
pub use divergence::{Timeline, TimelineEntry, DIVERGENCE_VERSION};
pub use engine::{
    plan_campaign, run_campaign, run_campaign_shard, CampaignPlan, CampaignRun, CellSpec,
    EngineOptions, Progress, ShardSpec, SnapshotCache, Substrate, CANCELLED, EXACT_RECORD_VERSION,
    RECORD_VERSION,
};
pub use llfi::{plan_llfi, plan_llfi_from, run_llfi, run_llfi_observed, LlfiInjection};
pub use outcome::{classify, InjectionRun, Outcome, OutcomeCounts};
pub use pinfi::{
    plan_pinfi, plan_pinfi_from, run_pinfi, run_pinfi_observed, PinfiInjection, PinfiOptions,
};
pub use profile::{
    locate, profile_llfi, profile_llfi_with_snapshots, profile_pinfi, profile_pinfi_with_snapshots,
    GoldenRef, LlfiProfile, PinfiProfile,
};
pub use report::CampaignReport;
pub use stats::{normal_ci95_half_width, overlaps, wilson_ci95};
pub use telemetry::{TaskTel, HUB_SPEC, TELEMETRY_VERSION};
pub use trace::{trace_llfi, PropagationReport};
