//! # fiq-asm — the assembly-level execution substrate
//!
//! A synthetic x86-64-like instruction set (16 GPRs, 16 XMM registers, an
//! x86-positioned FLAGS register, `base+index*scale+disp` addressing,
//! push/pop call frames) plus a machine emulator running on the shared
//! [`fiq_mem`] memory model. This is the "low level" of the fault-injection
//! accuracy study: PINFI-style injection (`fiq-core::pinfi`) instruments
//! execution through the [`AsmHook`] trait, exactly as Intel PIN
//! instruments retired instructions.
//!
//! The machine models the details the paper's heuristics rely on:
//!
//! * condition codes know which FLAGS bits they read
//!   ([`Cond::depends_mask`] — flag-bit pruning, Fig 2a),
//! * XMM registers are 128-bit but scalar-double ops use the low 64 bits
//!   (XMM pruning, Fig 2b),
//! * callee-save `push`/`pop`, return addresses on the stack, and explicit
//!   stack-pointer arithmetic all exist — machine state with *no IR
//!   counterpart* (Table I rows 3–4).

#![warn(missing_docs)]

mod decoded;
mod flags;
mod inst;
mod machine;
mod program;
mod regs;

pub use decoded::DecodedProgram;
pub use flags::{
    add_flags, logic_flags, sub_flags, ucomisd_flags, Cond, ALL_FLAGS, CF, OF, PF, SF, ZF,
};
pub use inst::{AluOp, ExtFn, Inst, MemRef, Operand, ShiftOp, SseOp, Target, Width, XOperand};
pub use machine::{
    run_program, AsmHook, MachCapture, MachOptions, MachSnapshot, MachState, Machine, NopAsmHook,
    RunResult, RET_SENTINEL,
};
pub use program::{display_inst, AsmFunc, AsmProgram, GlobalImage};
pub use regs::{Reg, RegId, Xmm};
