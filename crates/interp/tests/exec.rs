//! Behavioural tests for the IR interpreter: control flow, memory, traps,
//! intrinsics, and the instrumentation hook surface.

use fiq_interp::{
    run_module, ExecResult, ExecStatus, InstSite, Interp, InterpHook, InterpOptions,
    InterpSnapshot, NopHook, RtVal,
};
use fiq_ir::{
    BinOp, Callee, Constant, FuncBuilder, Function, Global, GlobalInit, ICmpPred, InstKind, IntTy,
    Intrinsic, Module, Type, Value,
};
use fiq_mem::{Quiescence, Trap};

fn opts() -> InterpOptions {
    InterpOptions {
        max_steps: 1_000_000,
        ..InterpOptions::default()
    }
}

/// Builds a module whose `main` prints `sum(0..n)` computed with a φ-loop.
fn loop_sum_module(n: i64) -> Module {
    let mut m = Module::new("loop_sum");
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    let entry = b.current_block();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Type::i64(), vec![(entry, Value::i64(0))]);
    let s = b.phi(Type::i64(), vec![(entry, Value::i64(0))]);
    let c = b.icmp(ICmpPred::Slt, i, Value::i64(n));
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let s2 = b.binary(BinOp::Add, s, i);
    let i2 = b.binary(BinOp::Add, i, Value::i64(1));
    b.br(header);
    // Patch back edges.
    if let InstKind::Phi { incomings } = &mut f.inst_mut(i.as_inst().unwrap()).kind {
        incomings.push((body, i2));
    }
    if let InstKind::Phi { incomings } = &mut f.inst_mut(s.as_inst().unwrap()).kind {
        incomings.push((body, s2));
    }
    let mut b = FuncBuilder::new(&mut f);
    b.switch_to(exit);
    b.call(Callee::Intrinsic(Intrinsic::PrintI64), vec![s], Type::Void);
    b.ret(None);
    m.add_func(f);
    fiq_ir::verify_module(&m).expect("valid module");
    m
}

#[test]
fn phi_loop_computes_sum() {
    let m = loop_sum_module(100);
    let r = run_module(&m, opts()).unwrap();
    assert!(r.finished());
    assert_eq!(r.output, "4950\n");
}

#[test]
fn global_array_load_store_via_gep() {
    // g[i] = i*i for i in 0..8, then print g[5].
    let mut m = Module::new("globals");
    let arr_ty = Type::Array(Box::new(Type::i64()), 8);
    let g = m.add_global(Global {
        name: "g".into(),
        ty: arr_ty,
        init: GlobalInit::Zeroed,
    });
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    for i in 0..8i64 {
        let p = b.gep(
            Type::i64(),
            Value::Const(Constant::Global(g)),
            vec![Value::i64(i)],
        );
        b.store(Value::i64(i * i), p);
    }
    let p = b.gep(
        Type::i64(),
        Value::Const(Constant::Global(g)),
        vec![Value::i64(5)],
    );
    let v = b.load(Type::i64(), p);
    b.call(Callee::Intrinsic(Intrinsic::PrintI64), vec![v], Type::Void);
    b.ret(None);
    m.add_func(f);
    fiq_ir::verify_module(&m).unwrap();
    let r = run_module(&m, opts()).unwrap();
    assert_eq!(r.output, "25\n");
}

#[test]
fn global_initializer_visible() {
    let mut m = Module::new("init");
    let g = m.add_global(Global {
        name: "g".into(),
        ty: Type::Array(Box::new(Type::i64()), 3),
        init: GlobalInit::from_i64s(&[10, 20, 30]),
    });
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    let p = b.gep(
        Type::i64(),
        Value::Const(Constant::Global(g)),
        vec![Value::i64(2)],
    );
    let v = b.load(Type::i64(), p);
    b.call(Callee::Intrinsic(Intrinsic::PrintI64), vec![v], Type::Void);
    b.ret(None);
    m.add_func(f);
    let r = run_module(&m, opts()).unwrap();
    assert_eq!(r.output, "30\n");
}

#[test]
fn recursion_and_call_args() {
    // fact(n) = n<=1 ? 1 : n*fact(n-1); main prints fact(10).
    let mut m = Module::new("fact");
    let fact_id = m.add_func(Function::new("fact", vec![Type::i64()], Type::i64()));
    {
        let f = m.func_mut(fact_id);
        let mut b = FuncBuilder::new(f);
        let base = b.new_block();
        let rec = b.new_block();
        let c = b.icmp(ICmpPred::Sle, Value::Arg(0), Value::i64(1));
        b.cond_br(c, base, rec);
        b.switch_to(base);
        b.ret(Some(Value::i64(1)));
        b.switch_to(rec);
        let n1 = b.binary(BinOp::Sub, Value::Arg(0), Value::i64(1));
        let sub = b.call(Callee::Func(fact_id), vec![n1], Type::i64());
        let out = b.binary(BinOp::Mul, Value::Arg(0), sub);
        b.ret(Some(out));
    }
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    let v = b.call(Callee::Func(fact_id), vec![Value::i64(10)], Type::i64());
    b.call(Callee::Intrinsic(Intrinsic::PrintI64), vec![v], Type::Void);
    b.ret(None);
    m.add_func(f);
    fiq_ir::verify_module(&m).unwrap();
    let r = run_module(&m, opts()).unwrap();
    assert_eq!(r.output, "3628800\n");
}

#[test]
fn null_load_traps() {
    let mut m = Module::new("null");
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    let v = b.load(Type::i64(), Value::Const(Constant::NullPtr));
    b.call(Callee::Intrinsic(Intrinsic::PrintI64), vec![v], Type::Void);
    b.ret(None);
    m.add_func(f);
    let r = run_module(&m, opts()).unwrap();
    assert_eq!(r.status, ExecStatus::Trapped(Trap::NullDeref { addr: 0 }));
}

#[test]
fn division_by_zero_traps() {
    let mut m = Module::new("div0");
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    let v = b.binary(BinOp::SDiv, Value::i64(5), Value::i64(0));
    b.call(Callee::Intrinsic(Intrinsic::PrintI64), vec![v], Type::Void);
    b.ret(None);
    m.add_func(f);
    let r = run_module(&m, opts()).unwrap();
    assert_eq!(r.status, ExecStatus::Trapped(Trap::DivByZero));
}

#[test]
fn infinite_loop_exhausts_budget() {
    let mut m = Module::new("inf");
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    let l = b.new_block();
    b.br(l);
    b.switch_to(l);
    b.br(l);
    m.add_func(f);
    let r = run_module(
        &m,
        InterpOptions {
            max_steps: 10_000,
            ..opts()
        },
    )
    .unwrap();
    assert_eq!(r.status, ExecStatus::BudgetExceeded);
    assert_eq!(r.steps, 10_001);
}

#[test]
fn unbounded_recursion_traps_on_depth() {
    let mut m = Module::new("deep");
    let fid = m.add_func(Function::new("f", vec![], Type::Void));
    {
        let f = m.func_mut(fid);
        let mut b = FuncBuilder::new(f);
        b.call(Callee::Func(fid), vec![], Type::Void);
        b.ret(None);
    }
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    b.call(Callee::Func(fid), vec![], Type::Void);
    b.ret(None);
    m.add_func(f);
    let r = run_module(
        &m,
        InterpOptions {
            max_call_depth: 64,
            ..opts()
        },
    )
    .unwrap();
    assert_eq!(r.status, ExecStatus::Trapped(Trap::CallDepthExceeded));
}

#[test]
fn abort_intrinsic_traps() {
    let mut m = Module::new("abort");
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    b.call(Callee::Intrinsic(Intrinsic::Abort), vec![], Type::Void);
    b.ret(None);
    m.add_func(f);
    let r = run_module(&m, opts()).unwrap();
    assert_eq!(r.status, ExecStatus::Trapped(Trap::Aborted));
}

#[test]
fn alloca_stack_discipline() {
    // Writing through an alloca in a callee must not disturb the caller.
    let mut m = Module::new("alloca");
    let callee = m.add_func(Function::new("callee", vec![], Type::i64()));
    {
        let f = m.func_mut(callee);
        let mut b = FuncBuilder::new(f);
        let p = b.alloca(Type::i64());
        b.store(Value::i64(77), p);
        let v = b.load(Type::i64(), p);
        b.ret(Some(v));
    }
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    let p = b.alloca(Type::i64());
    b.store(Value::i64(5), p);
    let c = b.call(Callee::Func(callee), vec![], Type::i64());
    let v = b.load(Type::i64(), p);
    let s = b.binary(BinOp::Add, c, v);
    b.call(Callee::Intrinsic(Intrinsic::PrintI64), vec![s], Type::Void);
    b.ret(None);
    m.add_func(f);
    fiq_ir::verify_module(&m).unwrap();
    let r = run_module(&m, opts()).unwrap();
    assert_eq!(r.output, "82\n");
}

#[test]
fn float_intrinsics() {
    let mut m = Module::new("math");
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    let v = b.call(
        Callee::Intrinsic(Intrinsic::Sqrt),
        vec![Value::f64(2.25)],
        Type::f64(),
    );
    b.call(Callee::Intrinsic(Intrinsic::PrintF64), vec![v], Type::Void);
    b.ret(None);
    m.add_func(f);
    let r = run_module(&m, opts()).unwrap();
    assert_eq!(r.output, "1.500000e0\n");
}

/// A hook that flips bit 0 of the `k`-th dynamic result of a target
/// instruction and records whether it was subsequently used.
struct FlipHook {
    target: InstSite,
    instance: u64,
    seen: u64,
    injected_frame: Option<u64>,
    activated: bool,
}

impl InterpHook for FlipHook {
    fn on_result(&mut self, site: InstSite, frame: u64, val: &mut RtVal) {
        if site == self.target {
            self.seen += 1;
            if self.seen == self.instance {
                *val = val.with_bit_flipped(0);
                self.injected_frame = Some(frame);
            } else if self.injected_frame == Some(frame) {
                // Same static inst re-executed in the same frame: the old
                // (corrupted) value is overwritten.
                self.injected_frame = None;
            }
        }
    }

    fn on_use(&mut self, def: InstSite, _consumer: InstSite, frame: u64) {
        if def == self.target && self.injected_frame == Some(frame) {
            self.activated = true;
        }
    }
}

#[test]
fn hook_injection_changes_output_and_tracks_activation() {
    let m = loop_sum_module(10); // golden output 45
                                 // Find the add that computes s2 (first Binary in the module).
    let fid = m.main_func().unwrap();
    let func = m.func(fid);
    let target_inst = func
        .insts
        .iter()
        .position(|i| matches!(i.kind, InstKind::Binary { op: BinOp::Add, .. }))
        .unwrap();
    let hook = FlipHook {
        target: InstSite {
            func: fid,
            inst: fiq_ir::InstId(target_inst as u32),
        },
        instance: 3,
        seen: 0,
        injected_frame: None,
        activated: true,
    };
    let mut interp = Interp::new(&m, opts(), hook).unwrap();
    let r = interp.run();
    assert!(r.finished());
    assert_ne!(r.output, "45\n", "bit flip must perturb the sum");
    let hook = interp.into_hook();
    assert!(hook.activated, "the flipped sum is read by later adds");
}

#[test]
fn nop_hook_runs_clean() {
    let m = loop_sum_module(10);
    let mut interp = Interp::new(&m, opts(), NopHook).unwrap();
    let r = interp.run();
    assert_eq!(r.output, "45\n");
    assert!(r.steps > 50);
}

/// Runs `interp` to its end with `run_until`, snapshotting at the first
/// boundary at or past each multiple of `interval`, the schedule golden
/// checkpoints are taken on. No site counts are passed: these tests read
/// none.
fn checkpoint_every<H: InterpHook>(
    interp: &mut Interp<'_, H>,
    interval: u64,
) -> (ExecResult, Vec<InterpSnapshot>) {
    let mut snaps: Vec<InterpSnapshot> = Vec::new();
    let mut due = interval;
    loop {
        if let Some(r) = interp.run_until(due) {
            return (r, snaps);
        }
        snaps.push(interp.snapshot(snaps.last(), Vec::new()));
        due = (interp.steps() / interval + 1) * interval;
    }
}

#[test]
fn every_snapshot_restores_to_the_same_result() {
    let m = loop_sum_module(100);
    let mut golden = Interp::new(&m, opts(), NopHook).unwrap();
    let (gr, snaps) = checkpoint_every(&mut golden, 50);
    assert!(gr.finished());
    assert_eq!(gr.output, "4950\n");
    assert!(
        snaps.len() > 3,
        "expected several snapshots, got {}",
        snaps.len()
    );
    let mut last_steps = 0;
    for snap in &snaps {
        assert!(snap.steps() > last_steps, "snapshots strictly ordered");
        last_steps = snap.steps();
        let mut tail = Interp::restore(&m, opts(), NopHook, snap);
        let r = tail.run();
        assert_eq!(r.status, gr.status);
        assert_eq!(r.steps, gr.steps, "step counter continues from snapshot");
        assert_eq!(r.output, gr.output);
    }
}

#[test]
fn snapshots_restore_mid_call_stack() {
    // fact(12) recursion: snapshots taken while nested frames are live
    // must restore (frames, sp) and still produce the golden answer.
    let mut m = Module::new("fact");
    let fact_id = m.add_func(Function::new("fact", vec![Type::i64()], Type::i64()));
    {
        let f = m.func_mut(fact_id);
        let mut b = FuncBuilder::new(f);
        let base = b.new_block();
        let rec = b.new_block();
        let p = b.alloca(Type::i64());
        b.store(Value::Arg(0), p);
        let c = b.icmp(ICmpPred::Sle, Value::Arg(0), Value::i64(1));
        b.cond_br(c, base, rec);
        b.switch_to(base);
        b.ret(Some(Value::i64(1)));
        b.switch_to(rec);
        let n = b.load(Type::i64(), p);
        let n1 = b.binary(BinOp::Sub, n, Value::i64(1));
        let sub = b.call(Callee::Func(fact_id), vec![n1], Type::i64());
        let out = b.binary(BinOp::Mul, n, sub);
        b.ret(Some(out));
    }
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    let v = b.call(Callee::Func(fact_id), vec![Value::i64(12)], Type::i64());
    b.call(Callee::Intrinsic(Intrinsic::PrintI64), vec![v], Type::Void);
    b.ret(None);
    m.add_func(f);
    fiq_ir::verify_module(&m).unwrap();

    let mut golden = Interp::new(&m, opts(), NopHook).unwrap();
    let (gr, snaps) = checkpoint_every(&mut golden, 7);
    assert!(gr.finished());
    assert!(!snaps.is_empty());
    for snap in &snaps {
        let mut tail = Interp::restore(&m, opts(), NopHook, snap);
        let r = tail.run();
        assert_eq!(r.output, gr.output);
        assert_eq!(r.steps, gr.steps);
    }
}

#[test]
fn narrow_int_memory_roundtrip() {
    // Store i8 0x1ff-truncated and load back: exercises canonicalization.
    let mut m = Module::new("narrow");
    let g = m.add_global(Global {
        name: "b".into(),
        ty: Type::Array(Box::new(Type::i8()), 4),
        init: GlobalInit::Zeroed,
    });
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    let p = b.gep(
        Type::i8(),
        Value::Const(Constant::Global(g)),
        vec![Value::i64(1)],
    );
    b.store(Value::int(IntTy::I8, -1), p);
    let v = b.load(Type::i8(), p);
    let w = b.cast(fiq_ir::CastOp::SExt, v, Type::i64());
    b.call(Callee::Intrinsic(Intrinsic::PrintI64), vec![w], Type::Void);
    b.ret(None);
    m.add_func(f);
    fiq_ir::verify_module(&m).unwrap();
    let r = run_module(&m, opts()).unwrap();
    assert_eq!(r.output, "-1\n");
}

/// Fully active for its first `left` results, then inert for good — the
/// phase shape of a fault hook whose outcome settles right after
/// injection.
struct SettlesAfter {
    left: u32,
}

impl InterpHook for SettlesAfter {
    fn on_result(&mut self, _site: InstSite, _frame: u64, _val: &mut RtVal) {
        self.left = self.left.saturating_sub(1);
    }

    fn quiescence(&self) -> Quiescence<InstSite> {
        if self.left == 0 {
            Quiescence::Forever
        } else {
            Quiescence::Active
        }
    }
}

/// `main` adds 1.0 to an `f64` `n` times in one block, then prints it:
/// no φ and no fusable idiom, so every decoded unit is one step.
fn float_chain_module(n: usize) -> Module {
    let mut m = Module::new("float_chain");
    let mut f = Function::new("main", vec![], Type::Void);
    let mut b = FuncBuilder::new(&mut f);
    let mut x = Value::f64(0.0);
    for _ in 0..n {
        x = b.binary(BinOp::FAdd, x, Value::f64(1.0));
    }
    b.call(Callee::Intrinsic(Intrinsic::PrintF64), vec![x], Type::Void);
    b.ret(None);
    m.add_func(f);
    fiq_ir::verify_module(&m).expect("valid module");
    m
}

#[test]
fn quiescent_slice_leaves_the_last_steps_before_a_pause_evented() {
    // The quiescent slice yields once fewer than three steps (the widest
    // fused unit) remain before the pause, and the evented slice walks
    // the rest on the plain table. With one-step units that is exactly
    // the last two steps before every pause at three steps or more.
    let m = float_chain_module(40);
    for k in 1..=40 {
        let mut interp = Interp::new(&m, opts(), NopHook).unwrap();
        assert!(interp.run_until(k).is_none());
        assert_eq!(interp.steps(), k);
        let evented = k - interp.steps_quiescent();
        assert_eq!(evented, k.min(2), "evented steps before the pause at {k}");
    }
}

#[test]
fn settled_hook_hands_a_call_free_loop_back_to_the_fast_loop() {
    let m = loop_sum_module(10_000);
    let mut interp = Interp::new(&m, opts(), SettlesAfter { left: 50 }).unwrap();
    let r = interp.run();
    assert!(r.finished());
    assert_eq!(r.output, "49995000\n");
    // Fifty results take about ten loop iterations; from the next block
    // entry on, the loop runs on the quiescent core.
    let evented = r.steps - interp.steps_quiescent();
    assert!(evented < 200, "{evented} of {} steps ran evented", r.steps);
}
