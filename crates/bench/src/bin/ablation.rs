//! Ablation experiments (beyond the paper; DESIGN.md ✦ items): how much
//! each modelled mechanism contributes to the LLFI-vs-PINFI differences.
//!
//! * `fold_gep` off — every GEP becomes explicit arithmetic: the
//!   assembly-level arithmetic category inflates and its crash rate shifts.
//! * `use_callee_saved` off — values crossing calls spill instead:
//!   assembly gains stack traffic with no IR counterpart.
//! * `xmm_pruning` off — PINFI injects into all 128 XMM bits: activation
//!   collapses for FP destinations (paper Fig 2b's motivation).
//! * `flag_pruning` off — PINFI injects into all FLAGS bits: cmp-category
//!   activation drops (paper Fig 2a's motivation).

use fiq_asm::MachOptions;
use fiq_backend::LowerOptions;
use fiq_bench::ExperimentConfig;
use fiq_core::{
    llfi_campaign, pinfi_campaign, profile_llfi, profile_pinfi, Category, PinfiOptions,
};
use fiq_interp::InterpOptions;
use fiq_workloads::by_name;

fn main() {
    let cfg = ExperimentConfig::from_env();
    let camp = cfg.campaign();

    println!(
        "ABLATIONS ({} injections/cell, seed {})",
        cfg.injections, cfg.seed
    );

    // 1 + 2: backend lowering ablations, measured on bzip2 (address-math
    // heavy) and ocean (FP/stencil heavy).
    for bench in ["bzip2", "ocean"] {
        let w = by_name(bench).expect("workload exists");
        println!();
        println!("— {bench}: backend lowering ablations (PINFI, category=all) —");
        for (label, lower) in [
            ("baseline", LowerOptions::default()),
            (
                "fold_gep off",
                LowerOptions {
                    fold_gep: false,
                    ..LowerOptions::default()
                },
            ),
            (
                "callee_saved off",
                LowerOptions {
                    use_callee_saved: false,
                    ..LowerOptions::default()
                },
            ),
        ] {
            let c = w.compile_with(lower).expect("compiles");
            let pp = profile_pinfi(&c.program, MachOptions::default()).expect("profiles");
            let arith = pp.category_count(&c.program, Category::Arithmetic);
            let all = pp.category_count(&c.program, Category::All);
            let rep = pinfi_campaign(&c.program, &pp, Category::All, &camp).unwrap();
            println!(
                "  {label:<18} dyn(arith)={arith:<9} dyn(all)={all:<9} crash={:>5.1}% sdc={:>5.1}%",
                rep.counts.crash_pct(),
                rep.counts.sdc_pct()
            );
        }
        // LLFI reference for the same program.
        let c = w.compile_with(LowerOptions::default()).expect("compiles");
        let lp = profile_llfi(&c.module, InterpOptions::default()).expect("profiles");
        let rep = llfi_campaign(&c.module, &lp, Category::All, &camp).unwrap();
        println!(
            "  {:<18} dyn(all)={:<9} crash={:>5.1}% sdc={:>5.1}%",
            "llfi reference",
            lp.category_count(&c.module, Category::All),
            rep.counts.crash_pct(),
            rep.counts.sdc_pct()
        );
    }

    // 3 + 4: PINFI activation heuristics, measured on raytrace (XMM heavy)
    // and mcf (branch heavy).
    println!();
    println!("— PINFI activation-pruning heuristics —");
    for (bench, cat, toggle) in [
        ("raytrace", Category::Arithmetic, "xmm"),
        ("ocean", Category::Arithmetic, "xmm"),
        ("mcf", Category::Cmp, "flags"),
        ("hmmer", Category::Cmp, "flags"),
    ] {
        let w = by_name(bench).expect("workload exists");
        let c = w.compile().expect("compiles");
        let pp = profile_pinfi(&c.program, MachOptions::default()).expect("profiles");
        let on = pinfi_campaign(&c.program, &pp, cat, &camp).unwrap();
        let off_opts = if toggle == "xmm" {
            PinfiOptions {
                xmm_pruning: false,
                ..PinfiOptions::default()
            }
        } else {
            PinfiOptions {
                flag_pruning: false,
                ..PinfiOptions::default()
            }
        };
        let off = pinfi_campaign(
            &c.program,
            &pp,
            cat,
            &fiq_core::CampaignConfig {
                pinfi: off_opts,
                ..camp
            },
        )
        .unwrap();
        let act = |r: &fiq_core::CellReport| {
            100.0 * r.counts.activated() as f64 / r.counts.total().max(1) as f64
        };
        println!(
            "  {bench:<10} {cat:<11} {toggle}-pruning on: activation {:>5.1}%   off: {:>5.1}%",
            act(&on),
            act(&off)
        );
    }
    println!();
    println!("Expected: pruning heuristics raise activation substantially");
    println!("(the reason PINFI applies them — paper §IV, Fig 2).");
}
