//! Quickstart: compile a tiny program, run it at both levels, and inject a
//! single fault with each injector.
//!
//! ```sh
//! cargo run --release -p fiq-examples --bin quickstart
//! ```

use fiq_asm::MachOptions;
use fiq_backend::LowerOptions;
use fiq_core::{
    plan_llfi, plan_pinfi, profile_llfi, profile_pinfi, run_llfi, run_pinfi, Category, PinfiOptions,
};
use fiq_interp::InterpOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PROGRAM: &str = "
int fib[32];
int main() {
  fib[0] = 0;
  fib[1] = 1;
  for (int i = 2; i < 32; i += 1) fib[i] = fib[i - 1] + fib[i - 2];
  int check = 0;
  for (int r = 0; r < 200; r += 1)
    for (int i = 0; i < 32; i += 1)
      check = (check + fib[i] * (r + 1)) % 1000003;
  print_i64(fib[31]);
  print_i64(check);
  return 0;
}";

fn main() -> Result<(), String> {
    // 1. Compile: Mini-C → IR → optimize → lower to assembly.
    let mut module = fiq_frontend::compile("quickstart", PROGRAM).map_err(|e| e.to_string())?;
    fiq_opt::optimize_module(&mut module);
    let program =
        fiq_backend::lower_module(&module, LowerOptions::default()).map_err(|e| e.to_string())?;

    // 2. Golden runs at both levels (they must agree byte-for-byte).
    let ir =
        fiq_interp::run_module(&module, InterpOptions::default()).map_err(|e| e.to_string())?;
    let asm = fiq_asm::run_program(&program, MachOptions::default()).map_err(|e| e.to_string())?;
    assert_eq!(ir.output, asm.output);
    println!("golden output:\n{}", ir.output);
    println!(
        "dynamic instructions: {} (IR) vs {} (assembly)\n",
        ir.steps, asm.steps
    );

    // 3. Profile both levels (golden output + per-instruction counts).
    let lp = profile_llfi(&module, InterpOptions::default())?;
    let pp = profile_pinfi(&program, MachOptions::default())?;

    // 4. One random single-bit flip with each injector.
    let mut rng = StdRng::seed_from_u64(2014);
    let linj = plan_llfi(&module, &lp, Category::All, &mut rng).expect("candidates exist");
    let lout = run_llfi(&module, InterpOptions::default(), linj, &lp.golden_output)?.outcome;
    println!(
        "LLFI : flipped bit {:2} of {}/{} (dynamic instance {:>6}) -> {}",
        linj.bit, linj.site.func, linj.site.inst, linj.instance, lout
    );

    let pinj = plan_pinfi(
        &program,
        &pp,
        Category::All,
        PinfiOptions::default(),
        &mut rng,
    )
    .expect("candidates exist");
    let pout = run_pinfi(&program, MachOptions::default(), pinj, &pp.golden_output)?.outcome;
    println!(
        "PINFI: flipped bit {:2} of {:?} after inst {:>4} (instance {:>6}) -> {}",
        pinj.bit, pinj.dest, pinj.idx, pinj.instance, pout
    );
    Ok(())
}
