//! Calibrated LLFI selection — the paper's §VII "future work",
//! implemented.
//!
//! The paper identifies three sources of LLFI/PINFI discrepancy and
//! sketches fixes; each is realized here as a switch over the backend's
//! [`fiq_backend::LoweringInfo`]:
//!
//! 1. **GetElementPtr** (§VII-1): treat the GEPs that lower to *explicit*
//!    address arithmetic as members of the `arithmetic` category ("we will
//!    need a heuristic to decide when to treat a getelementptr instruction
//!    as an arithmetic instruction"), while GEPs compressed into
//!    addressing modes stay excluded.
//! 2. **Cast instructions** (§VII-2): exclude pointer conversions
//!    (`ptrtoint`/`inttoptr`) from the `cast` category ("identify such
//!    cases, and not inject faults into them").
//! 3. **Mov/load instructions** (§VII-3): exclude loads that fold into a
//!    consumer's memory operand and therefore have no assembly `mov`
//!    counterpart ("inject into only those instructions that have a
//!    corresponding analogue at the assembly code level").

use crate::category::{llfi_candidates, Category};
use crate::outcome::OutcomeCounts;
use crate::profile::LlfiProfile;
use crate::{plan_llfi_from, CampaignConfig, CellReport};
use fiq_backend::LoweringInfo;
use fiq_ir::{CastOp, InstKind, Module};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which §VII heuristics to apply.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calibration {
    /// §VII-1: materialized GEPs count as arithmetic.
    pub gep_as_arithmetic: bool,
    /// §VII-2: pointer-conversion casts are excluded.
    pub exclude_pointer_casts: bool,
    /// §VII-3: folded (counterpart-less) loads are excluded.
    pub exclude_folded_loads: bool,
}

impl Calibration {
    /// All three heuristics enabled.
    pub fn full() -> Calibration {
        Calibration {
            gep_as_arithmetic: true,
            exclude_pointer_casts: true,
            exclude_folded_loads: true,
        }
    }
}

/// The calibrated candidate bitmap for `cat`.
pub fn calibrated_candidates(
    module: &Module,
    cat: Category,
    info: &LoweringInfo,
    cal: Calibration,
) -> Vec<Vec<bool>> {
    let mut bits = llfi_candidates(module, cat);
    for (fi, func) in module.funcs.iter().enumerate() {
        let uses = func.use_counts();
        for bb in func.block_ids() {
            for &id in &func.block(bb).insts {
                let inst = func.inst(id);
                let i = id.index();
                match (&inst.kind, cat) {
                    (InstKind::Gep { .. }, Category::Arithmetic)
                        if cal.gep_as_arithmetic && uses[i] > 0 && !info.folded_geps[fi][i] =>
                    {
                        bits[fi][i] = true;
                    }
                    (InstKind::Cast { op, .. }, Category::Cast)
                        if cal.exclude_pointer_casts
                            && matches!(op, CastOp::PtrToInt | CastOp::IntToPtr) =>
                    {
                        bits[fi][i] = false;
                    }
                    (InstKind::Load { .. }, Category::Load)
                        if cal.exclude_folded_loads && info.folded_loads[fi][i] =>
                    {
                        bits[fi][i] = false;
                    }
                    _ => {}
                }
            }
        }
    }
    bits
}

/// Dynamic population of a calibrated candidate set.
pub fn calibrated_count(profile: &LlfiProfile, bits: &[Vec<bool>]) -> u64 {
    profile.cumulative_over(bits).last().map_or(0, |&(_, c)| c)
}

/// Runs an LLFI campaign over a calibrated candidate set.
///
/// # Errors
///
/// Returns an error when an injection run fails (interpreter setup
/// error).
pub fn llfi_campaign_calibrated(
    module: &Module,
    profile: &LlfiProfile,
    cat: Category,
    info: &LoweringInfo,
    cal: Calibration,
    cfg: &CampaignConfig,
) -> Result<CellReport, String> {
    let bits = calibrated_candidates(module, cat, info, cal);
    let cum = profile.cumulative_over(&bits);
    if cum.is_empty() {
        return Ok(CellReport::empty());
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xCA11_B8A7_ED00_0000 ^ cat.name().len() as u64);
    let opts = fiq_interp::InterpOptions {
        max_steps: cfg.hang_budget(profile.golden_steps),
        ..fiq_interp::InterpOptions::default()
    };
    let mut counts = OutcomeCounts::default();
    let mut executed = 0;
    for inj in (0..cfg.injections).filter_map(|_| plan_llfi_from(module, &cum, &mut rng)) {
        let run = crate::run_llfi(module, opts, inj, &profile.golden_output)?;
        counts.record(run.outcome);
        executed += 1;
    }
    Ok(CellReport {
        counts,
        requested: cfg.injections,
        planned: cfg.injections,
        executed,
        dynamic_population: calibrated_count(profile, &bits),
        fault_space: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiq_backend::{lowering_info, LowerOptions};

    fn module() -> Module {
        let src = "
            int a[128];
            int main() {
              int p = 0;
              for (int i = 0; i < 128; i += 1) a[i] = i;
              int s = 0;
              for (int i = 0; i < 128; i += 1) {
                s += a[(i * 7) % 128];
                p = (int)(double)s;
              }
              print_i64(s + p);
              return 0;
            }";
        let mut m = fiq_frontend::compile("t", src).unwrap();
        fiq_opt::optimize_module(&mut m);
        m
    }

    #[test]
    fn gep_as_arithmetic_grows_the_category() {
        let m = module();
        let info = lowering_info(&m, LowerOptions::default());
        let base = calibrated_candidates(&m, Category::Arithmetic, &info, Calibration::default());
        let cal = calibrated_candidates(&m, Category::Arithmetic, &info, Calibration::full());
        let count = |b: &Vec<Vec<bool>>| -> usize {
            b.iter().flat_map(|f| f.iter()).filter(|&&x| x).count()
        };
        assert!(
            count(&cal) >= count(&base),
            "calibration can only add arithmetic candidates"
        );
    }

    #[test]
    fn folded_loads_shrink_the_load_category() {
        let m = module();
        let info = lowering_info(&m, LowerOptions::default());
        let any_folded = info.folded_loads.iter().flat_map(|f| f.iter()).any(|&b| b);
        let base = calibrated_candidates(&m, Category::Load, &info, Calibration::default());
        let cal = calibrated_candidates(&m, Category::Load, &info, Calibration::full());
        let count = |b: &Vec<Vec<bool>>| -> usize {
            b.iter().flat_map(|f| f.iter()).filter(|&&x| x).count()
        };
        if any_folded {
            assert!(count(&cal) < count(&base));
        } else {
            assert_eq!(count(&cal), count(&base));
        }
    }

    #[test]
    fn unfolded_backend_marks_no_geps_folded() {
        let m = module();
        let info = lowering_info(
            &m,
            LowerOptions {
                fold_gep: false,
                ..LowerOptions::default()
            },
        );
        assert!(
            info.folded_geps.iter().flat_map(|f| f.iter()).all(|&b| !b),
            "with folding off, every GEP materializes"
        );
    }
}
