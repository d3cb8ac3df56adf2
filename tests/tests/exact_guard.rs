//! Exact planning is bounded before it allocates: the ocean `all`
//! campaign, whose fault space has tens of millions of classes, is
//! refused by a counting pass while the process's peak resident set
//! stays within a fixed bound of what the golden runs needed.

use fiq_asm::MachOptions;
use fiq_core::{
    plan_campaign, profile_llfi, profile_pinfi, CampaignConfig, Category, CellSpec, Collapse,
    Substrate,
};
use fiq_interp::InterpOptions;

/// Peak resident set growth allowed while the refused plan is attempted.
/// The propagation analysis holds one flag per dynamic instance (1.4M
/// for ocean, about 1.5 MiB in all); materializing the plan it refuses
/// would take gigabytes.
const BOUND_KIB: u64 = 64 * 1024;

/// The process's peak resident set (`VmHWM`), in KiB.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn oversized_exact_plan_is_refused_within_a_memory_bound() {
    let ocean = fiq_workloads::by_name("ocean").unwrap().compile().unwrap();
    let lp = profile_llfi(&ocean.module, InterpOptions::default()).unwrap();
    let pp = profile_pinfi(&ocean.program, MachOptions::default()).unwrap();
    let cell = |substrate| CellSpec {
        label: "ocean".into(),
        category: Category::All,
        substrate,
        snapshots: None,
    };
    let cells = [
        cell(Substrate::Llfi {
            module: &ocean.module,
            profile: &lp,
        }),
        cell(Substrate::Pinfi {
            prog: &ocean.program,
            profile: &pp,
        }),
    ];
    let start = vm_hwm_kib();
    let err = plan_campaign(&cells, &CampaignConfig::default(), Collapse::Exact)
        .err()
        .expect("the ocean exact plan is over the class limit");
    let grown = vm_hwm_kib() - start;
    assert!(
        err.starts_with("cell 0 (ocean/all): exact collapse needs"),
        "{err}"
    );
    assert!(
        grown <= BOUND_KIB,
        "peak RSS grew by {grown} KiB (bound {BOUND_KIB} KiB) while planning"
    );
}
