//! The `exact-masky` kernel family: a mask-heavy integer accumulator in
//! the shape of the `MASKY` kernel of the collapse test suite.
//!
//! The seed picks the multipliers, the additive constants, the initial
//! value and which low bit each mask clears. The loop shape, the mask
//! widths and the iteration count are fixed, so every seed yields a fault
//! space of the same size with the same share of masked bits: the
//! campaign's cost does not depend on the seed, only its outcomes do.

/// SplitMix64: a small, stable generator, so the kernel a seed names
/// never changes with a dependency's random stream.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mini-C source of the kernel for `seed`, looping `iterations` times.
pub fn masky_source(seed: u64, iterations: u32) -> String {
    let mut state = seed;
    let mut pick = |lo: u64, hi: u64| lo + splitmix64(&mut state) % (hi - lo + 1);
    let [m1, m2, m3, m4] = [(); 4].map(|()| 2 * pick(1, 7) + 1);
    let (c1, s0) = (pick(1, 31), pick(0, 15));
    let [k1, k2, k3, k4] = [8u32, 9, 10, 10].map(|w| ((1u64 << w) - 1) & !(1 << pick(0, 2)));
    format!(
        "int main() {{
    int s = {s0};
    for (int i = 0; i < {iterations}; i += 1) {{
        int t = (s * {m1} + i) & {k1};
        int u = t * t + {c1};
        int v = (u * {m2} + t) & {k2};
        int w = v * {m3} - u;
        int x = (w + v) & {k3};
        int y = x * {m4} - w;
        s = (s + x + y) & {k4};
    }}
    print_i64(s & {k4});
    return 0;
}}
"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiq_asm::MachOptions;
    use fiq_core::{analyze_llfi, analyze_pinfi, collapse_llfi, collapse_pinfi, Category};
    use fiq_interp::InterpOptions;

    #[test]
    fn same_seed_same_source_and_seeds_differ() {
        assert_eq!(masky_source(1, 200), masky_source(1, 200));
        assert_ne!(masky_source(1, 200), masky_source(2, 200));
        assert!(masky_source(1, 200).contains("i < 200"));
    }

    #[test]
    fn default_seed_kernel_compiles_and_collapses_at_least_4x() {
        let mut module =
            fiq_frontend::compile("masky", &masky_source(crate::DEFAULT_SEED, 16)).unwrap();
        fiq_opt::optimize_module(&mut module);
        let prog = fiq_backend::lower_module(&module, Default::default()).unwrap();
        let lp = fiq_core::profile_llfi(&module, InterpOptions::default()).unwrap();
        let pp = fiq_core::profile_pinfi(&prog, MachOptions::default()).unwrap();
        let la = analyze_llfi(&module, &lp).unwrap();
        let (plan, stats) = collapse_llfi(&module, &lp, Category::Arithmetic, &la);
        assert!(
            plan.len() as u64 * 4 <= stats.space(),
            "llfi {} of {}",
            plan.len(),
            stats.space()
        );
        let pa = analyze_pinfi(&prog, &pp).unwrap();
        let (plan, stats) =
            collapse_pinfi(&prog, &pp, Category::Arithmetic, Default::default(), &pa);
        assert!(
            plan.len() as u64 * 4 <= stats.space(),
            "pinfi {} of {}",
            plan.len(),
            stats.space()
        );
    }
}
