//! Raw step rate (ns per dynamic instruction) of both execution
//! substrates under each core: the reference core (the per-instruction
//! `match` the lockstep tests compare against), the production core on
//! its evented loop (an always-active no-op hook keeps full hook
//! dispatch), and the production core's quiescent fast loop (entered
//! for the whole run, since the no-op hook reports itself inert
//! forever).
//!
//! Every benchmark is annotated with `Throughput::Elements(steps)`, so
//! the emitted `elems_per_s` is steps/s and `1e9 / elems_per_s` is
//! ns/step — the number the CI perf-smoke gate tracks. The bench names
//! (`legacy`, `threaded+fusion`, `quiescent+fusion`) key the committed
//! baselines in `results/BENCH_campaign.json`. Labels identify the cell:
//! `substrate=interp|asm`, `core=reference|evented|quiescent`.
//!
//! The names predate the removal of asm superinstructions and stay only
//! because they key the baseline: on `substrate=asm` the `+fusion` rows
//! measure the unfused decoded core (one table entry per instruction);
//! on `substrate=interp` they still measure the fused core.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fiq_asm::{AsmHook, MachOptions, Machine, NopAsmHook};
use fiq_interp::{Interp, InterpHook, InterpOptions, NopHook};

const KERNEL: &str = "
int data[256];
int main() {
  for (int i = 0; i < 256; i += 1) data[i] = i * 7 + 3;
  int s = 0;
  for (int r = 0; r < 40; r += 1)
    for (int i = 0; i < 256; i += 1)
      s += (data[i] ^ r) + (r & 15);
  print_i64(s);
  return 0;
}";

/// A no-op hook that reports itself always active, keeping the
/// production core on its evented loop.
struct ActiveNop;

impl InterpHook for ActiveNop {}
impl AsmHook for ActiveNop {}

/// The cores measured per substrate: bench name and `core` label.
const CORES: [(&str, &str); 3] = [
    ("legacy", "reference"),
    ("threaded+fusion", "evented"),
    ("quiescent+fusion", "quiescent"),
];

fn bench_step_rate(c: &mut Criterion) {
    let mut module = fiq_frontend::compile("step-kernel", KERNEL).unwrap();
    fiq_opt::optimize_module(&mut module);
    let program = fiq_backend::lower_module(&module, fiq_backend::LowerOptions::default()).unwrap();
    let iopts = InterpOptions::default();
    let mopts = MachOptions::default();

    // One run of the named core, returning the steps it retired.
    let interp = |core: &str| -> u64 {
        match core {
            "reference" => {
                let mut i = Interp::new(&module, iopts, NopHook).unwrap();
                i.run_reference_until(u64::MAX).unwrap().steps
            }
            "evented" => Interp::new(&module, iopts, ActiveNop).unwrap().run().steps,
            "quiescent" => Interp::new(&module, iopts, NopHook).unwrap().run().steps,
            _ => unreachable!("unknown core {core}"),
        }
    };
    let asm = |core: &str| -> u64 {
        match core {
            "reference" => {
                let mut m = Machine::new(&program, mopts, NopAsmHook).unwrap();
                m.run_reference_until(u64::MAX).unwrap().steps
            }
            "evented" => {
                Machine::new(&program, mopts, ActiveNop)
                    .unwrap()
                    .run()
                    .steps
            }
            "quiescent" => {
                Machine::new(&program, mopts, NopAsmHook)
                    .unwrap()
                    .run()
                    .steps
            }
            _ => unreachable!("unknown core {core}"),
        }
    };
    let ir_steps = interp("quiescent");
    let asm_steps = asm("quiescent");

    let mut g = c.benchmark_group("step-rate");
    for (name, core) in CORES {
        g.throughput(Throughput::Elements(ir_steps));
        g.label("substrate", "interp");
        g.label("core", core);
        g.bench_function(format!("interp/{name}"), |b| b.iter(|| interp(core)));

        g.throughput(Throughput::Elements(asm_steps));
        g.label("substrate", "asm");
        g.bench_function(format!("asm/{name}"), |b| b.iter(|| asm(core)));
    }
    g.finish();
}

criterion_group!(benches, bench_step_rate);
criterion_main!(benches);
