//! The backend's keystone test: for every program, executing the optimized
//! IR in the interpreter and executing the lowered assembly in the machine
//! emulator must produce *identical* output and equivalent termination
//! status. The fault-injection comparison is only meaningful because the
//! two levels agree on every golden run.

use fiq_asm::{run_program, MachOptions};
use fiq_backend::{lower_module, LowerOptions};
use fiq_interp::{run_module, InterpOptions};
use fiq_mem::RunStatus;
use proptest::prelude::*;

fn check(src: &str) -> (String, u64, u64) {
    check_opts(src, LowerOptions::default())
}

fn check_opts(src: &str, lopts: LowerOptions) -> (String, u64, u64) {
    let mut module = fiq_frontend::compile("t", src).unwrap_or_else(|e| panic!("compile: {e}"));
    fiq_opt::optimize_module(&mut module);
    let prog = lower_module(&module, lopts).unwrap_or_else(|e| panic!("lower: {e}"));
    let ir = run_module(
        &module,
        InterpOptions {
            max_steps: 100_000_000,
            ..InterpOptions::default()
        },
    )
    .unwrap();
    let asm = run_program(
        &prog,
        MachOptions {
            max_steps: 400_000_000,
        },
    )
    .unwrap();
    assert!(
        ir.finished(),
        "IR run must finish, got {:?} (output: {:?})",
        ir.status,
        ir.output
    );
    assert_eq!(
        asm.status,
        RunStatus::Finished,
        "asm run must finish (output so far: {:?})\nprogram:\n{prog}",
        asm.output
    );
    assert_eq!(
        ir.output, asm.output,
        "IR and assembly outputs must be identical\nprogram:\n{prog}"
    );
    (ir.output, ir.steps, asm.steps)
}

#[test]
fn arithmetic_and_printing() {
    let (out, _, _) = check(
        "int main() {
           print_i64(6 * 7);
           print_i64(-13 / 4);
           print_i64(-13 % 4);
           print_i64(1 << 20);
           print_i64(-64 >> 3);
           print_i64(12345 ^ 54321);
           return 0;
         }",
    );
    assert_eq!(out, "42\n-3\n-1\n1048576\n-8\n58376\n");
}

#[test]
fn loops_and_branches() {
    check(
        "int main() {
           int s = 0;
           for (int i = 0; i < 1000; i += 1) {
             if (i % 3 == 0) s += i;
             else if (i % 5 == 0) s -= i;
             else s += 1;
           }
           print_i64(s);
           return 0;
         }",
    );
}

#[test]
fn function_calls_and_recursion() {
    check(
        "int fib(int n) {
           if (n < 2) return n;
           return fib(n - 1) + fib(n - 2);
         }
         int main() { print_i64(fib(18)); return 0; }",
    );
}

#[test]
fn many_arguments() {
    check(
        "int six(int a, int b, int c, int d, int e, int f) {
           return a + 2*b + 3*c + 4*d + 5*e + 6*f;
         }
         double fdot(double a, double b, double c, double d) {
           return a * 1.5 + b * 2.5 + c * 3.5 + d * 4.5;
         }
         int main() {
           print_i64(six(1, 2, 3, 4, 5, 6));
           print_f64(fdot(1.0, 2.0, 3.0, 4.0));
           return 0;
         }",
    );
}

#[test]
fn global_arrays_and_geps() {
    check(
        "int grid[32][32];
         int main() {
           for (int i = 0; i < 32; i += 1)
             for (int j = 0; j < 32; j += 1)
               grid[i][j] = i * 37 + j;
           int s = 0;
           for (int i = 0; i < 32; i += 1) s += grid[i][31 - i];
           print_i64(s);
           return 0;
         }",
    );
}

#[test]
fn byte_buffers() {
    check(
        "byte buf[256];
         int main() {
           for (int i = 0; i < 256; i += 1) buf[i] = i * 7;
           int s = 0;
           for (int i = 0; i < 256; i += 1) s += buf[i];
           print_i64(s);
           return 0;
         }",
    );
}

#[test]
fn floats_and_math() {
    check(
        "double xs[50];
         int main() {
           for (int i = 0; i < 50; i += 1) xs[i] = (double)i * 0.3 - 5.0;
           double s = 0.0;
           double m = 1.0;
           for (int i = 0; i < 50; i += 1) {
             s += fabs(xs[i]);
             if (xs[i] > 0.0) m *= 1.01;
           }
           print_f64(s);
           print_f64(m);
           print_f64(sqrt(s));
           return 0;
         }",
    );
}

#[test]
fn float_comparisons_all_predicates() {
    check(
        "int main() {
           double a = 1.5; double b = 2.5;
           print_i64(a < b);
           print_i64(a <= b);
           print_i64(a > b);
           print_i64(a >= b);
           print_i64(a == b);
           print_i64(a != b);
           print_i64(b < a);
           if (a < b) print_i64(100);
           if (a > b) print_i64(200);
           if (a == a) print_i64(300);
           if (a != a) print_i64(400);
           return 0;
         }",
    );
}

#[test]
fn structs_and_pointers() {
    check(
        "struct Node { int value; int next; };
         struct Node nodes[16];
         int main() {
           for (int i = 0; i < 16; i += 1) {
             nodes[i].value = i * i;
             nodes[i].next = (i + 5) % 16;
           }
           int cur = 0;
           int s = 0;
           for (int hop = 0; hop < 32; hop += 1) {
             s += nodes[cur].value;
             cur = nodes[cur].next;
           }
           print_i64(s);
           return 0;
         }",
    );
}

#[test]
fn pointer_arguments_and_arith() {
    check(
        "int data[64];
         int sum_range(int* p, int n) {
           int s = 0;
           for (int i = 0; i < n; i += 1) s += p[i];
           return s;
         }
         int main() {
           for (int i = 0; i < 64; i += 1) data[i] = i;
           print_i64(sum_range(data, 64));
           print_i64(sum_range(data + 32, 16));
           return 0;
         }",
    );
}

#[test]
fn casts_round_trip() {
    check(
        "int main() {
           double d = 1234.75;
           int i = (int)d;
           print_i64(i);
           double e = (double)i / 8.0;
           print_f64(e);
           byte b = (byte)300;
           print_i64(b);
           int big = 100000;
           byte c = (byte)big;
           print_i64(c);
           return 0;
         }",
    );
}

#[test]
fn short_circuit_and_bool_ops() {
    check(
        "int calls = 0;
         bool bump(bool r) { calls += 1; return r; }
         int main() {
           if (bump(true) && bump(true) && bump(false) && bump(true)) print_i64(-1);
           print_i64(calls);
           bool x = true && false;
           bool y = !x || true;
           print_i64(x);
           print_i64(y);
           return 0;
         }",
    );
}

#[test]
fn register_pressure_spills() {
    // Enough simultaneously-live values to overflow the register file.
    check(
        "int main() {
           int a0 = 1; int a1 = 2; int a2 = 3; int a3 = 4; int a4 = 5;
           int a5 = 6; int a6 = 7; int a7 = 8; int a8 = 9; int a9 = 10;
           int b0 = 11; int b1 = 12; int b2 = 13; int b3 = 14; int b4 = 15;
           int b5 = 16; int b6 = 17; int b7 = 18;
           for (int i = 0; i < 10; i += 1) {
             a0 += a1; a1 += a2; a2 += a3; a3 += a4; a4 += a5;
             a5 += a6; a6 += a7; a7 += a8; a8 += a9; a9 += b0;
             b0 += b1; b1 += b2; b2 += b3; b3 += b4; b4 += b5;
             b5 += b6; b6 += b7; b7 += a0;
           }
           print_i64(a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9);
           print_i64(b0 + b1 + b2 + b3 + b4 + b5 + b6 + b7);
           return 0;
         }",
    );
}

#[test]
fn float_register_pressure() {
    check(
        "int main() {
           double a = 1.0; double b = 2.0; double c = 3.0; double d = 4.0;
           double e = 5.0; double f = 6.0; double g = 7.0; double h = 8.0;
           double i2 = 9.0; double j = 10.0; double k = 11.0; double l = 12.0;
           double m = 13.0; double n = 14.0; double o = 15.0;
           for (int i = 0; i < 5; i += 1) {
             a += b * c; b += c * d; c += d * e; d += e * f;
             e += f * g; f += g * h; g += h * i2; h += i2 * j;
             i2 += j * k; j += k * l; k += l * m; l += m * n;
             m += n * o; n += o * a; o += a * b;
           }
           print_f64(a + c + e + g + i2 + k + m + o);
           print_f64(b + d + f + h + j + l + n);
           return 0;
         }",
    );
}

#[test]
fn float_values_survive_calls() {
    // XMM registers are caller-saved: values live across calls must spill.
    check(
        "double scale(double x) { return x * 2.0; }
         int main() {
           double acc = 1.5;
           double keep = 10.0;
           for (int i = 0; i < 4; i += 1) {
             acc = acc + scale(acc) - keep * 0.1;
             keep = keep + 1.0;
           }
           print_f64(acc);
           print_f64(keep);
           return 0;
         }",
    );
}

#[test]
fn traps_match_division() {
    let mut module = fiq_frontend::compile(
        "t",
        "int main() {
           int d = 5;
           for (int i = 0; i < 10; i += 1) d -= 1;
           print_i64(7 / (d + 5)); // /0 at runtime
           return 0;
         }",
    )
    .unwrap();
    fiq_opt::optimize_module(&mut module);
    let prog = lower_module(&module, LowerOptions::default()).unwrap();
    let ir = run_module(&module, InterpOptions::default()).unwrap();
    let asm = run_program(&prog, MachOptions::default()).unwrap();
    assert_eq!(
        ir.status,
        fiq_interp::ExecStatus::Trapped(fiq_mem::Trap::DivByZero)
    );
    assert_eq!(asm.status, RunStatus::Trapped(fiq_mem::Trap::DivByZero));
}

#[test]
fn traps_match_wild_access() {
    let mut module = fiq_frontend::compile(
        "t",
        "int small[4];
         int main() {
           int idx = 1;
           for (int i = 0; i < 30; i += 1) idx *= 2;
           print_i64(small[idx]);
           return 0;
         }",
    )
    .unwrap();
    fiq_opt::optimize_module(&mut module);
    let prog = lower_module(&module, LowerOptions::default()).unwrap();
    let ir = run_module(&module, InterpOptions::default()).unwrap();
    let asm = run_program(&prog, MachOptions::default()).unwrap();
    assert!(matches!(
        ir.status,
        fiq_interp::ExecStatus::Trapped(fiq_mem::Trap::Unmapped { .. })
    ));
    assert!(matches!(
        asm.status,
        RunStatus::Trapped(fiq_mem::Trap::Unmapped { .. })
    ));
}

#[test]
fn gep_folding_off_still_correct() {
    let src = "int grid[16][16];
         int main() {
           for (int i = 0; i < 16; i += 1)
             for (int j = 0; j < 16; j += 1)
               grid[i][j] = i + j;
           int s = 0;
           for (int i = 0; i < 16; i += 1) s += grid[i][i];
           print_i64(s);
           return 0;
         }";
    let (out_folded, _, steps_folded) = check(src);
    let (out_unfolded, _, steps_unfolded) = check_opts(
        src,
        LowerOptions {
            fold_gep: false,
            ..LowerOptions::default()
        },
    );
    assert_eq!(out_folded, out_unfolded);
    assert!(
        steps_unfolded > steps_folded,
        "explicit GEP arithmetic must execute more instructions \
         ({steps_unfolded} vs {steps_folded})"
    );
}

#[test]
fn no_callee_saved_still_correct() {
    check_opts(
        "int helper(int x) { return x * 3 + 1; }
         int main() {
           int keep = 100;
           int acc = 0;
           for (int i = 0; i < 20; i += 1) {
             acc += helper(i) + keep;
           }
           print_i64(acc);
           return 0;
         }",
        LowerOptions {
            use_callee_saved: false,
            ..LowerOptions::default()
        },
    );
}

#[test]
fn asm_is_more_packed_than_ir() {
    // The paper's Table IV: the IR level executes MORE dynamic
    // instructions than the assembly level, because GEPs and cmp/branch
    // pairs compress into addressing modes and fused compare-jumps.
    let (_, ir_steps, asm_steps) = check(
        "int data[512];
         int main() {
           for (int i = 0; i < 512; i += 1) data[i] = i * 3;
           int s = 0;
           for (int r = 0; r < 50; r += 1)
             for (int i = 0; i < 512; i += 1)
               s += data[i];
           print_i64(s);
           return 0;
         }",
    );
    assert!(
        ir_steps > asm_steps,
        "IR should execute more dynamic instructions (ir={ir_steps}, asm={asm_steps})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random arithmetic programs agree across levels.
    #[test]
    fn prop_levels_agree_on_arith(a in -1000i64..1000, b in -1000i64..1000, c in 1i64..100, shift in 0i64..20) {
        let src = format!(
            "int main() {{
               int a = {a}; int b = {b}; int c = {c};
               print_i64(a + b * c);
               print_i64((a - b) / c);
               print_i64(a % c);
               print_i64((a ^ b) & 1023);
               print_i64(a << {shift});
               print_i64(b >> 3);
               print_i64((a < b) + (a == b) * 10);
               return 0;
             }}"
        );
        check(&src);
    }

    /// Random loop/memory programs agree across levels.
    #[test]
    fn prop_levels_agree_on_memory(n in 1usize..60, stride in 1usize..8, bias in -50i64..50) {
        let src = format!(
            "int arr[64];
             int main() {{
               for (int i = 0; i < 64; i += 1) arr[i] = i * {stride} + {bias};
               int s = 0;
               for (int i = 0; i < {n}; i += 1) s += arr[i * 64 / {n} % 64];
               print_i64(s);
               return 0;
             }}"
        );
        check(&src);
    }

    /// Random floating-point pipelines agree across levels.
    #[test]
    fn prop_levels_agree_on_floats(x in -100.0f64..100.0, y in 0.5f64..50.0) {
        let src = format!(
            "int main() {{
               double x = {x:?}; double y = {y:?};
               print_f64(x * y);
               print_f64(x / y);
               print_f64(x + y * 2.0);
               print_i64(x < y);
               print_i64((int)(x * 0.5));
               print_f64(sqrt(y));
               return 0;
             }}"
        );
        check(&src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random programs mixing structs, calls, byte arrays, and nested
    /// control flow agree across levels.
    #[test]
    fn prop_levels_agree_on_rich_programs(
        seed in 1i64..100000,
        n in 4usize..24,
        thresh in -50i64..50,
        scale in 1i64..9,
    ) {
        let src = format!(
            "struct Rec {{ int key; double weight; byte tag; }};
             struct Rec recs[24];
             byte flags[24];
             int mix(int x) {{ return (x * 2654435761) & 1048575; }}
             double score(struct Rec* r) {{
               if (r->tag > 1) return r->weight * 2.0;
               return r->weight + 0.5;
             }}
             int main() {{
               int seed = {seed};
               for (int i = 0; i < {n}; i += 1) {{
                 seed = mix(seed + i);
                 recs[i].key = (seed & 255) - 128;
                 recs[i].weight = (double)(seed & 63) * 0.25;
                 recs[i].tag = seed & 3;
                 flags[i] = (seed >> 4) & 1;
               }}
               int ksum = 0;
               double wsum = 0.0;
               for (int i = 0; i < {n}; i += 1) {{
                 if (recs[i].key > {thresh} && flags[i] != 0) {{
                   ksum += recs[i].key * {scale};
                   wsum += score(&recs[i]);
                 }} else if (recs[i].key < -{thresh} || recs[i].tag == 2) {{
                   ksum -= recs[i].key;
                 }}
               }}
               print_i64(ksum);
               print_f64(wsum);
               return 0;
             }}"
        );
        check(&src);
    }
}
