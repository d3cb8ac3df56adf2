//! The paper's §VII future work, evaluated: do the proposed calibration
//! heuristics actually close the LLFI-vs-PINFI crash gap?
//!
//! For each benchmark and discrepancy-prone category, this compares
//!
//! * baseline LLFI (paper Table III selection),
//! * calibrated LLFI (§VII-1 GEP-as-arithmetic, §VII-2 pointer-cast
//!   exclusion, §VII-3 counterpart-less-load exclusion),
//! * PINFI (the ground truth the paper calibrates against).

use fiq_backend::lowering_info;
use fiq_bench::{prepare_all, ExperimentConfig};
use fiq_core::{llfi_campaign, llfi_campaign_calibrated, pinfi_campaign, Calibration, Category};

fn main() {
    let cfg = ExperimentConfig::from_args();
    let camp = cfg.campaign();
    let prepared = prepare_all(cfg.lower);

    println!(
        "CALIBRATION (paper §VII heuristics; {} injections/cell, seed {})",
        cfg.injections, cfg.seed
    );
    println!();
    println!(
        "{:<12} {:<11} | {:>10} {:>12} {:>10} | {:>9} {:>9}",
        "benchmark", "category", "llfi", "llfi-calib", "pinfi", "gap", "gap-calib"
    );
    println!(
        "{:<12} {:<11} | {:>10} {:>12} {:>10} | (crash-percentage points vs pinfi)",
        "", "", "crash%", "crash%", "crash%"
    );
    let mut base_gap_sum = 0.0;
    let mut cal_gap_sum = 0.0;
    let mut cells = 0;
    for p in &prepared {
        let info = lowering_info(&p.compiled.module, cfg.lower);
        for cat in [Category::Arithmetic, Category::Cast, Category::Load] {
            let base = llfi_campaign(&p.compiled.module, &p.llfi, cat, &camp).unwrap();
            let cal = llfi_campaign_calibrated(
                &p.compiled.module,
                &p.llfi,
                cat,
                &info,
                Calibration::full(),
                &camp,
            )
            .unwrap();
            let pin = pinfi_campaign(&p.compiled.program, &p.pinfi, cat, &camp).unwrap();
            if pin.counts.activated() == 0 || base.counts.activated() == 0 {
                continue;
            }
            let (b, c, r) = (
                base.counts.crash_pct(),
                cal.counts.crash_pct(),
                pin.counts.crash_pct(),
            );
            let gap_b = (b - r).abs();
            let gap_c = (c - r).abs();
            base_gap_sum += gap_b;
            cal_gap_sum += gap_c;
            cells += 1;
            println!(
                "{:<12} {:<11} | {:>9.1}% {:>11.1}% {:>9.1}% | {:>8.1}  {:>8.1}",
                p.workload.name,
                cat.name(),
                b,
                c,
                r,
                gap_b,
                gap_c
            );
        }
    }
    println!();
    println!(
        "mean |LLFI - PINFI| crash gap: baseline {:.1} points, calibrated {:.1} points \
         ({} cells)",
        base_gap_sum / cells.max(1) as f64,
        cal_gap_sum / cells.max(1) as f64,
        cells
    );
    println!();
    println!("The paper predicts the calibrated selection should narrow the crash");
    println!("gap in the gep/cast/load-driven categories (§VII, items 1–3).");
}
