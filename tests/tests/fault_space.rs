//! The sampled planner draws from exactly the fault space that exact
//! collapse and brute-force enumeration walk: every point
//! `plan_llfi_from` / `plan_pinfi_from` draws lies in `enumerate_*`'s
//! set, and on a small kernel every point of the set is drawn.

use fiq_asm::MachOptions;
use fiq_core::{
    enumerate_llfi, enumerate_pinfi, plan_llfi_from, plan_pinfi_from, profile_llfi, profile_pinfi,
    Category, LlfiProfile, PinfiOptions, PinfiProfile,
};
use fiq_interp::InterpOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Draws per cell.
const DRAWS: usize = 2000;

/// PINFI with both pruning heuristics on (the paper's setting) and off.
const PRUNING: [PinfiOptions; 2] = [
    PinfiOptions {
        flag_pruning: true,
        xmm_pruning: true,
    },
    PinfiOptions {
        flag_pruning: false,
        xmm_pruning: false,
    },
];

/// A profile whose every executed site ran once. Bits do not depend on
/// the instance, so a point `(site, instance, bit)` is in the full
/// enumeration exactly when `(site, 1, bit)` is in this profile's and
/// `1 <= instance <=` the site's real count; this keeps the check
/// linear in the static sites instead of the millions of dynamic points
/// of a paper workload.
fn once_each_llfi(p: &LlfiProfile) -> LlfiProfile {
    let counts = p
        .counts
        .iter()
        .map(|f| f.iter().map(|&c| c.min(1)).collect());
    LlfiProfile {
        counts: counts.collect(),
        ..p.clone()
    }
}

fn once_each_pinfi(p: &PinfiProfile) -> PinfiProfile {
    PinfiProfile {
        counts: p.counts.iter().map(|&c| c.min(1)).collect(),
        ..p.clone()
    }
}

#[test]
fn sampled_draws_lie_in_the_enumerated_space() {
    for w in fiq_workloads::CATALOG {
        let c = w.compile().unwrap();
        let lp = profile_llfi(&c.module, InterpOptions::default()).unwrap();
        let pp = profile_pinfi(&c.program, MachOptions::default()).unwrap();
        let (lp1, pp1) = (once_each_llfi(&lp), once_each_pinfi(&pp));
        for cat in Category::ALL {
            let mut rng = StdRng::seed_from_u64(11);
            let space: HashSet<_> = enumerate_llfi(&c.module, &lp1, cat)
                .into_iter()
                .map(|p| (p.site, p.bit))
                .collect();
            let cum = lp.cumulative(&c.module, cat);
            for _ in 0..DRAWS {
                let Some(p) = plan_llfi_from(&c.module, &cum, &mut rng) else {
                    break;
                };
                let count = lp.counts[p.site.func.index()][p.site.inst.index()];
                assert!(
                    (1..=count).contains(&p.instance) && space.contains(&(p.site, p.bit)),
                    "{}/llfi/{cat}: drew {p:?} outside the enumerated space",
                    w.name
                );
            }
            for opts in PRUNING {
                let space: HashSet<_> = enumerate_pinfi(&c.program, &pp1, cat, opts)
                    .into_iter()
                    .map(|p| (p.idx, p.dest, p.bit))
                    .collect();
                let cum = pp.cumulative(&c.program, cat);
                for _ in 0..DRAWS {
                    let Some(p) = plan_pinfi_from(&c.program, &cum, opts, &mut rng) else {
                        break;
                    };
                    assert!(
                        (1..=pp.counts[p.idx]).contains(&p.instance)
                            && space.contains(&(p.idx, p.dest, p.bit)),
                        "{}/pinfi/{cat} {opts:?}: drew {p:?} outside the enumerated space",
                        w.name
                    );
                }
            }
        }
    }
}

/// Compare-and-branch, float and integer work in a few dynamic
/// instances: FLAGS, XMM and GPR destinations at both pruning settings.
const SMALL: &str = "
int main() {
  double x = 1.5;
  int s = 0;
  for (int i = 0; i < 2; i += 1) {
    x = x * 1.25;
    if (s < 3) { s += i; }
  }
  print_i64(s + (int)x);
  return 0;
}";

#[test]
fn sampled_draws_cover_a_small_enumerated_space() {
    let mut module = fiq_frontend::compile("small", SMALL).unwrap();
    fiq_opt::optimize_module(&mut module);
    let prog = fiq_backend::lower_module(&module, Default::default()).unwrap();
    let lp = profile_llfi(&module, InterpOptions::default()).unwrap();
    let pp = profile_pinfi(&prog, MachOptions::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let cat = Category::All;

    let space: HashSet<_> = enumerate_llfi(&module, &lp, cat)
        .into_iter()
        .map(|p| (p.site, p.instance, p.bit))
        .collect();
    let cum = lp.cumulative(&module, cat);
    let drawn: HashSet<_> = (0..space.len() * 20)
        .map(|_| {
            let p = plan_llfi_from(&module, &cum, &mut rng).unwrap();
            (p.site, p.instance, p.bit)
        })
        .collect();
    assert_eq!(
        drawn, space,
        "llfi: drawn points differ from the enumeration"
    );

    for opts in PRUNING {
        let space: HashSet<_> = enumerate_pinfi(&prog, &pp, cat, opts)
            .into_iter()
            .map(|p| (p.idx, p.instance, p.dest, p.bit))
            .collect();
        let cum = pp.cumulative(&prog, cat);
        let drawn: HashSet<_> = (0..space.len() * 20)
            .map(|_| {
                let p = plan_pinfi_from(&prog, &cum, opts, &mut rng).unwrap();
                (p.idx, p.instance, p.dest, p.bit)
            })
            .collect();
        assert_eq!(
            drawn, space,
            "pinfi {opts:?}: drawn points differ from the enumeration"
        );
    }
}
