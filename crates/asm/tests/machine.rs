//! Behavioural tests for the machine emulator: hand-assembled programs
//! exercising control flow, the stack, SSE, traps, and the hook surface.

use fiq_asm::{
    run_program, AluOp, AsmFunc, AsmHook, AsmProgram, Cond, ExtFn, GlobalImage, Inst, MachOptions,
    MachSnapshot, MachState, Machine, MemRef, NopAsmHook, Operand, Reg, RunResult, SseOp, Width,
    XOperand, Xmm,
};
use fiq_mem::{RunStatus, Trap};

fn prog(insts: Vec<Inst>) -> AsmProgram {
    let end = insts.len() as u32;
    AsmProgram {
        insts,
        funcs: vec![AsmFunc {
            name: "main".into(),
            entry: 0,
            end,
        }],
        globals: vec![],
        main: 0,
    }
}

fn opts() -> MachOptions {
    MachOptions {
        max_steps: 1_000_000,
    }
}

use Operand::{Imm, Reg as R};

#[test]
fn print_a_constant() {
    let p = prog(vec![
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rdi),
            src: Imm(42),
        },
        Inst::CallExt {
            ext: ExtFn::PrintI64,
        },
        Inst::Ret,
    ]);
    let r = run_program(&p, opts()).unwrap();
    assert_eq!(r.status, RunStatus::Finished);
    assert_eq!(r.output, "42\n");
    assert_eq!(r.steps, 3);
}

#[test]
fn loop_with_jcc_computes_sum() {
    // rax = sum(1..=10), via rcx counter.
    let p = prog(vec![
        /* 0 */
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rax),
            src: Imm(0),
        },
        /* 1 */
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rcx),
            src: Imm(1),
        },
        /* 2 */
        Inst::Alu {
            op: AluOp::Add,
            dst: Reg::Rax,
            src: R(Reg::Rcx),
        },
        /* 3 */
        Inst::Alu {
            op: AluOp::Add,
            dst: Reg::Rcx,
            src: Imm(1),
        },
        /* 4 */
        Inst::Cmp {
            lhs: R(Reg::Rcx),
            rhs: Imm(10),
        },
        /* 5 */
        Inst::Jcc {
            cond: Cond::Le,
            target: 2,
        },
        /* 6 */
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rdi),
            src: R(Reg::Rax),
        },
        /* 7 */
        Inst::CallExt {
            ext: ExtFn::PrintI64,
        },
        /* 8 */ Inst::Ret,
    ]);
    let r = run_program(&p, opts()).unwrap();
    assert_eq!(r.output, "55\n");
}

#[test]
fn call_and_ret_with_push_pop() {
    // main: rdi=5; call f; print rax; ret.  f: rax = rdi*3; ret.
    let insts = vec![
        /* 0 */
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rdi),
            src: Imm(5),
        },
        /* 1 */ Inst::Call { func: 1 },
        /* 2 */
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rdi),
            src: R(Reg::Rax),
        },
        /* 3 */
        Inst::CallExt {
            ext: ExtFn::PrintI64,
        },
        /* 4 */ Inst::Ret,
        // f:
        /* 5 */ Inst::Push { src: R(Reg::Rbx) },
        /* 6 */
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rbx),
            src: Imm(3),
        },
        /* 7 */
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rax),
            src: R(Reg::Rdi),
        },
        /* 8 */
        Inst::Alu {
            op: AluOp::Imul,
            dst: Reg::Rax,
            src: R(Reg::Rbx),
        },
        /* 9 */ Inst::Pop { dst: Reg::Rbx },
        /* 10 */ Inst::Ret,
    ];
    let p = AsmProgram {
        insts,
        funcs: vec![
            AsmFunc {
                name: "main".into(),
                entry: 0,
                end: 5,
            },
            AsmFunc {
                name: "f".into(),
                entry: 5,
                end: 11,
            },
        ],
        globals: vec![],
        main: 0,
    };
    let r = run_program(&p, opts()).unwrap();
    assert_eq!(r.output, "15\n");
}

#[test]
fn globals_load_store() {
    let g = GlobalImage {
        name: "g".into(),
        size: 8,
        align: 8,
        init: 7i64.to_le_bytes().to_vec(),
    };
    let addr = AsmProgram::global_addresses(std::slice::from_ref(&g))[0];
    let p = AsmProgram {
        insts: vec![
            Inst::Mov {
                width: Width::B8,
                dst: R(Reg::Rax),
                src: Operand::Mem(MemRef::absolute(addr)),
            },
            Inst::Alu {
                op: AluOp::Add,
                dst: Reg::Rax,
                src: Imm(1),
            },
            Inst::Mov {
                width: Width::B8,
                dst: Operand::Mem(MemRef::absolute(addr)),
                src: R(Reg::Rax),
            },
            Inst::Mov {
                width: Width::B8,
                dst: R(Reg::Rdi),
                src: Operand::Mem(MemRef::absolute(addr)),
            },
            Inst::CallExt {
                ext: ExtFn::PrintI64,
            },
            Inst::Ret,
        ],
        funcs: vec![AsmFunc {
            name: "main".into(),
            entry: 0,
            end: 6,
        }],
        globals: vec![g],
        main: 0,
    };
    let r = run_program(&p, opts()).unwrap();
    assert_eq!(r.output, "8\n");
}

#[test]
fn indexed_addressing() {
    // Store 3 values through base+index*8, read the middle one back.
    let g = GlobalImage {
        name: "arr".into(),
        size: 24,
        align: 8,
        init: vec![],
    };
    let addr = AsmProgram::global_addresses(std::slice::from_ref(&g))[0];
    let mut insts = vec![Inst::Mov {
        width: Width::B8,
        dst: R(Reg::Rbx),
        src: Imm(addr as i64),
    }];
    for i in 0..3i64 {
        insts.push(Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rcx),
            src: Imm(i),
        });
        insts.push(Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rax),
            src: Imm(i * 100),
        });
        insts.push(Inst::Mov {
            width: Width::B8,
            dst: Operand::Mem(MemRef {
                base: Some(Reg::Rbx),
                index: Some(Reg::Rcx),
                scale: 8,
                disp: 0,
            }),
            src: R(Reg::Rax),
        });
    }
    insts.extend([
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rdi),
            src: Operand::Mem(MemRef {
                base: Some(Reg::Rbx),
                index: None,
                scale: 1,
                disp: 8,
            }),
        },
        Inst::CallExt {
            ext: ExtFn::PrintI64,
        },
        Inst::Ret,
    ]);
    let end = insts.len() as u32;
    let p = AsmProgram {
        insts,
        funcs: vec![AsmFunc {
            name: "main".into(),
            entry: 0,
            end,
        }],
        globals: vec![g],
        main: 0,
    };
    let r = run_program(&p, opts()).unwrap();
    assert_eq!(r.output, "100\n");
}

#[test]
fn sse_double_pipeline() {
    // xmm0 = (2.0 + 1.5) * 4.0; sqrt; print.
    let p = prog(vec![
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rax),
            src: Imm(2),
        },
        Inst::Cvtsi2sd {
            dst: Xmm(0),
            src: R(Reg::Rax),
        },
        Inst::MovqRX {
            dst: Xmm(1),
            src: Reg::Rcx,
        },
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rcx),
            src: Imm(1.5f64.to_bits() as i64),
        },
        Inst::MovqRX {
            dst: Xmm(1),
            src: Reg::Rcx,
        },
        Inst::Sse {
            op: SseOp::Addsd,
            dst: Xmm(0),
            src: XOperand::Xmm(Xmm(1)),
        },
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rcx),
            src: Imm(4.0f64.to_bits() as i64),
        },
        Inst::MovqRX {
            dst: Xmm(2),
            src: Reg::Rcx,
        },
        Inst::Sse {
            op: SseOp::Mulsd,
            dst: Xmm(0),
            src: XOperand::Xmm(Xmm(2)),
        },
        Inst::Sse {
            op: SseOp::Sqrtsd,
            dst: Xmm(0),
            src: XOperand::Xmm(Xmm(0)),
        },
        Inst::CallExt {
            ext: ExtFn::PrintF64,
        },
        Inst::Ret,
    ]);
    let r = run_program(&p, opts()).unwrap();
    // sqrt(3.5 * 4) = sqrt(14) ≈ 3.741657
    assert_eq!(r.output, "3.741657e0\n");
}

#[test]
fn ucomisd_with_jcc() {
    // if (1.0 < 2.0) print 1 else print 0 — via ucomisd 2.0, 1.0; ja.
    let p = prog(vec![
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rax),
            src: Imm(1.0f64.to_bits() as i64),
        },
        Inst::MovqRX {
            dst: Xmm(0),
            src: Reg::Rax,
        },
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rax),
            src: Imm(2.0f64.to_bits() as i64),
        },
        Inst::MovqRX {
            dst: Xmm(1),
            src: Reg::Rax,
        },
        Inst::Ucomisd {
            lhs: Xmm(1),
            rhs: XOperand::Xmm(Xmm(0)),
        },
        Inst::Jcc {
            cond: Cond::A,
            target: 8,
        },
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rdi),
            src: Imm(0),
        },
        Inst::Jmp { target: 9 },
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rdi),
            src: Imm(1),
        },
        Inst::CallExt {
            ext: ExtFn::PrintI64,
        },
        Inst::Ret,
    ]);
    let r = run_program(&p, opts()).unwrap();
    assert_eq!(r.output, "1\n");
}

#[test]
fn idiv_semantics_and_trap() {
    let p = prog(vec![
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rax),
            src: Imm(-7),
        },
        Inst::Cqo,
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rcx),
            src: Imm(2),
        },
        Inst::Idiv { src: R(Reg::Rcx) },
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rdi),
            src: R(Reg::Rax),
        },
        Inst::CallExt {
            ext: ExtFn::PrintI64,
        },
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rdi),
            src: R(Reg::Rdx),
        },
        Inst::CallExt {
            ext: ExtFn::PrintI64,
        },
        Inst::Ret,
    ]);
    let r = run_program(&p, opts()).unwrap();
    assert_eq!(r.output, "-3\n-1\n");

    let p = prog(vec![
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rax),
            src: Imm(1),
        },
        Inst::Cqo,
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rcx),
            src: Imm(0),
        },
        Inst::Idiv { src: R(Reg::Rcx) },
        Inst::Ret,
    ]);
    let r = run_program(&p, opts()).unwrap();
    assert_eq!(r.status, RunStatus::Trapped(Trap::DivByZero));
}

#[test]
fn unmapped_access_traps() {
    let p = prog(vec![
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rax),
            src: Operand::Mem(MemRef::absolute(0xdead_beef_0000)),
        },
        Inst::Ret,
    ]);
    let r = run_program(&p, opts()).unwrap();
    assert!(matches!(
        r.status,
        RunStatus::Trapped(Trap::Unmapped { .. })
    ));
}

#[test]
fn null_access_traps() {
    let p = prog(vec![
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rax),
            src: Operand::Mem(MemRef::absolute(8)),
        },
        Inst::Ret,
    ]);
    let r = run_program(&p, opts()).unwrap();
    assert!(matches!(
        r.status,
        RunStatus::Trapped(Trap::NullDeref { .. })
    ));
}

#[test]
fn corrupted_return_address_is_bad_jump() {
    // Overwrite the sentinel slot with a garbage index, then ret.
    let p = prog(vec![
        Inst::Mov {
            width: Width::B8,
            dst: Operand::Mem(MemRef::base_disp(Reg::Rsp, 0)),
            src: Imm(1 << 40),
        },
        Inst::Ret,
    ]);
    let r = run_program(&p, opts()).unwrap();
    assert_eq!(
        r.status,
        RunStatus::Trapped(Trap::BadJump { target: 1 << 40 })
    );
}

#[test]
fn runaway_push_loop_hits_stack_guard() {
    let p = prog(vec![Inst::Push { src: Imm(1) }, Inst::Jmp { target: 0 }]);
    let r = run_program(&p, opts()).unwrap();
    assert_eq!(r.status, RunStatus::Trapped(Trap::StackOverflow));
}

#[test]
fn infinite_loop_exceeds_budget() {
    let p = prog(vec![Inst::Jmp { target: 0 }]);
    let r = run_program(&p, MachOptions { max_steps: 5000 }).unwrap();
    assert_eq!(r.status, RunStatus::BudgetExceeded);
}

#[test]
fn narrow_loads_zero_extend_and_movsx_sign_extends() {
    let g = GlobalImage {
        name: "b".into(),
        size: 1,
        align: 1,
        init: vec![0xfe],
    };
    let addr = AsmProgram::global_addresses(std::slice::from_ref(&g))[0];
    let insts = vec![
        Inst::Mov {
            width: Width::B1,
            dst: R(Reg::Rdi),
            src: Operand::Mem(MemRef::absolute(addr)),
        },
        Inst::CallExt {
            ext: ExtFn::PrintI64,
        },
        Inst::Movsx {
            width: Width::B1,
            dst: Reg::Rdi,
            src: Operand::Mem(MemRef::absolute(addr)),
        },
        Inst::CallExt {
            ext: ExtFn::PrintI64,
        },
        Inst::Ret,
    ];
    let end = insts.len() as u32;
    let p = AsmProgram {
        insts,
        funcs: vec![AsmFunc {
            name: "main".into(),
            entry: 0,
            end,
        }],
        globals: vec![g],
        main: 0,
    };
    let r = run_program(&p, opts()).unwrap();
    assert_eq!(r.output, "254\n-2\n");
}

#[test]
fn setcc_materializes_flags() {
    let p = prog(vec![
        Inst::Cmp {
            lhs: Imm(3),
            rhs: Imm(5),
        },
        Inst::Setcc {
            cond: Cond::L,
            dst: Reg::Rdi,
        },
        Inst::CallExt {
            ext: ExtFn::PrintI64,
        },
        Inst::Ret,
    ]);
    let r = run_program(&p, opts()).unwrap();
    assert_eq!(r.output, "1\n");
}

/// A hook that flips a bit in `rax` after the `n`-th retired instruction.
struct FlipRax {
    after: u64,
    retired: u64,
}

impl AsmHook for FlipRax {
    fn on_retire(&mut self, _idx: usize, st: &mut MachState) {
        self.retired += 1;
        if self.retired == self.after {
            let v = st.reg(Reg::Rax);
            st.set_reg(Reg::Rax, v ^ (1 << 4));
        }
    }
}

#[test]
fn hook_can_inject_faults() {
    let p = prog(vec![
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rax),
            src: Imm(100),
        },
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rdi),
            src: R(Reg::Rax),
        },
        Inst::CallExt {
            ext: ExtFn::PrintI64,
        },
        Inst::Ret,
    ]);
    let mut m = Machine::new(
        &p,
        opts(),
        FlipRax {
            after: 1,
            retired: 0,
        },
    )
    .unwrap();
    let r = m.run();
    assert_eq!(r.status, RunStatus::Finished);
    assert_eq!(r.output, "116\n"); // 100 ^ 16
}

#[test]
fn shifts_behave() {
    let p = prog(vec![
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rax),
            src: Imm(-16),
        },
        Inst::Shift {
            op: fiq_asm::ShiftOp::Sar,
            dst: Reg::Rax,
            src: Imm(2),
        },
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rdi),
            src: R(Reg::Rax),
        },
        Inst::CallExt {
            ext: ExtFn::PrintI64,
        },
        Inst::Ret,
    ]);
    let r = run_program(&p, opts()).unwrap();
    assert_eq!(r.output, "-4\n");
}

fn sum_loop_prog() -> AsmProgram {
    // rax = sum(1..=10); the Add at index 2 retires exactly 10 times.
    prog(vec![
        /* 0 */
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rax),
            src: Imm(0),
        },
        /* 1 */
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rcx),
            src: Imm(1),
        },
        /* 2 */
        Inst::Alu {
            op: AluOp::Add,
            dst: Reg::Rax,
            src: R(Reg::Rcx),
        },
        /* 3 */
        Inst::Alu {
            op: AluOp::Add,
            dst: Reg::Rcx,
            src: Imm(1),
        },
        /* 4 */
        Inst::Cmp {
            lhs: R(Reg::Rcx),
            rhs: Imm(10),
        },
        /* 5 */
        Inst::Jcc {
            cond: Cond::Le,
            target: 2,
        },
        /* 6 */
        Inst::Mov {
            width: Width::B8,
            dst: R(Reg::Rdi),
            src: R(Reg::Rax),
        },
        /* 7 */
        Inst::CallExt {
            ext: ExtFn::PrintI64,
        },
        /* 8 */ Inst::Ret,
    ])
}

/// Runs `m` to its end with `run_until`, snapshotting at the first
/// boundary at or past each multiple of `interval`, the schedule golden
/// checkpoints are taken on. No retire counts are passed: these tests
/// read none.
fn checkpoint_every<H: AsmHook>(
    m: &mut Machine<'_, H>,
    interval: u64,
) -> (RunResult, Vec<MachSnapshot>) {
    let mut snaps: Vec<MachSnapshot> = Vec::new();
    let mut due = interval;
    loop {
        if let Some(r) = m.run_until(due) {
            return (r, snaps);
        }
        snaps.push(m.snapshot(snaps.last(), Vec::new()));
        due = (m.steps() / interval + 1) * interval;
    }
}

#[test]
fn every_snapshot_restores_to_the_same_result() {
    let p = sum_loop_prog();
    let mut golden = Machine::new(&p, opts(), NopAsmHook).unwrap();
    let (gr, snaps) = checkpoint_every(&mut golden, 5);
    assert_eq!(gr.output, "55\n");
    assert!(
        snaps.len() > 3,
        "expected several snapshots, got {}",
        snaps.len()
    );
    let mut last_steps = 0;
    for snap in &snaps {
        assert!(snap.steps() > last_steps, "snapshots strictly ordered");
        last_steps = snap.steps();
        let mut tail = Machine::restore(&p, opts(), NopAsmHook, snap);
        let r = tail.run();
        assert_eq!(r.status, gr.status);
        assert_eq!(r.steps, gr.steps, "step counter continues from snapshot");
        assert_eq!(r.output, gr.output);
    }
}

#[test]
fn quiescent_loop_runs_all_the_way_to_the_pause() {
    // The loop retires 45 instructions, so every `run_until(k)` below
    // pauses; an inert hook must let the fast loop take every one of the
    // k steps, the last step before the pause included.
    let p = sum_loop_prog();
    for k in 1..=40 {
        let mut m = Machine::new(&p, opts(), NopAsmHook).unwrap();
        assert!(m.run_until(k).is_none(), "run must pause at {k}");
        assert_eq!(m.steps(), k);
        assert_eq!(m.steps_quiescent(), k, "quiescent steps at pause {k}");
    }
}
