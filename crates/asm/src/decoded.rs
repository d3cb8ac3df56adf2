//! The machine emulator's execution core: a pre-decoded opcode table.
//!
//! [`DecodedProgram::decode`] flattens each [`Inst`] into a `Copy`
//! [`DecInst`] with operand addressing pre-resolved: the register and
//! immediate forms of mov/alu/cmp/test/branch get dedicated variants
//! (immediates pre-masked to their destination width), and so does every
//! other shape that retires at least 1% of the catalog golden runs' steps
//! — `movsd` x←x, x←m and m←x, `Sse` x,x and x,m, `cmp r,m` and `alu r,m`
//! (DESIGN §4g, "The decoded-form census"). Memory forms keep their
//! [`MemRef`]. Everything else falls back to [`DecInst::Generic`], which
//! re-executes the original instruction at the same index through the
//! shared reference semantics (`Machine::exec_inst`); forms that share an
//! operation with it share its helper (`alu_exec`, `sse_exec`). The table
//! is indexed by rip, one entry per instruction. There are no
//! superinstructions: a census of the benchmark workloads showed that
//! fusing adjacent pairs did not pay for the boundary handling it forced
//! (DESIGN §4g).
//!
//! Observable semantics are identical to the reference core
//! (`Machine::step`): the same retire counts at the same instruction
//! indices, the same `on_retire` event sequence, the same traps and
//! console bytes. FLAGS are always fully materialized — they are
//! architectural state (compared at checkpoints and a PINFI injection
//! target), so no flags computation is ever pruned; what is precomputed
//! is only the operand *addressing*. Every decoded step retires exactly one
//! instruction, so pauses, and the golden checkpoints taken at them, land
//! where the reference core's do with no special handling.

use crate::flags::Cond;
use crate::inst::{AluOp, Inst, MemRef, Operand, SseOp, Width, XOperand};
use crate::program::AsmProgram;
use crate::regs::{Reg, Xmm};

/// One pre-decoded instruction. `Copy`, so the dispatch loop lifts it out
/// of the shared table without holding a borrow across execution.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DecInst {
    /// 64-bit `mov dst, src` between registers.
    MovRR { dst: Reg, src: Reg },
    /// `mov dst, imm` with the immediate pre-masked to the write width.
    MovRI { dst: Reg, imm: u64 },
    /// `mov dst, [m]` (zero-extending load of `width` bytes).
    MovLoad { width: Width, dst: Reg, m: MemRef },
    /// `mov [m], src` (store of `width` bytes).
    MovStoreR { width: Width, m: MemRef, src: Reg },
    /// `mov [m], imm` (store of `width` bytes; raw immediate, the write
    /// truncates exactly like the reference operand path).
    MovStoreI { width: Width, m: MemRef, imm: u64 },
    /// `lea dst, [m]`.
    Lea { dst: Reg, m: MemRef },
    /// ALU op with a register source.
    AluRR { op: AluOp, dst: Reg, src: Reg },
    /// ALU op with an immediate source.
    AluRI { op: AluOp, dst: Reg, imm: u64 },
    /// ALU op with an 8-byte memory source.
    AluRM { op: AluOp, dst: Reg, m: MemRef },
    /// `cmp lhs, rhs` between registers.
    CmpRR { lhs: Reg, rhs: Reg },
    /// `cmp lhs, imm`.
    CmpRI { lhs: Reg, imm: u64 },
    /// `cmp lhs, [m]` (8-byte load).
    CmpRM { lhs: Reg, m: MemRef },
    /// `test lhs, rhs` between registers.
    TestRR { lhs: Reg, rhs: Reg },
    /// `movsd dst, src` between XMM low halves.
    MovsdXX { dst: Xmm, src: Xmm },
    /// `movsd dst, [m]` (8-byte load into the low half).
    MovsdXM { dst: Xmm, m: MemRef },
    /// `movsd [m], src` (8-byte store of the low half).
    MovsdMX { m: MemRef, src: Xmm },
    /// Scalar-double op with an XMM source.
    SseXX { op: SseOp, dst: Xmm, src: Xmm },
    /// Scalar-double op with an 8-byte memory source.
    SseXM { op: SseOp, dst: Xmm, m: MemRef },
    /// Unconditional jump.
    Jmp { target: u32 },
    /// Conditional jump.
    Jcc { cond: Cond, target: u32 },
    /// Everything else: execute `prog.insts[idx]` through the reference
    /// semantics (the index is the current rip, so no payload is needed).
    Generic,
}

/// A program pre-decoded for the machine's execution core: one entry per
/// instruction, indexed by rip in lockstep with `prog.insts`. Decode once,
/// share via `Arc` across every machine running the same program.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    pub(crate) code: Box<[DecInst]>,
}

impl DecodedProgram {
    /// Decodes `prog` into its opcode table.
    pub fn decode(prog: &AsmProgram) -> DecodedProgram {
        DecodedProgram {
            code: prog.insts.iter().map(decode_inst).collect(),
        }
    }

    /// True when instruction `idx` has no decoded form and runs through
    /// the reference semantics (the `Generic` fallback); the census of
    /// retired steps that reach the fallback is built on this.
    pub fn is_generic(&self, idx: usize) -> bool {
        matches!(self.code[idx], DecInst::Generic)
    }
}

/// Masks `v` to `width` the way a narrow register write does.
fn mask_to_width(width: Width, v: u64) -> u64 {
    match width {
        Width::B8 => v,
        w => v & ((1u64 << (w.bytes() * 8)) - 1),
    }
}

fn decode_inst(inst: &Inst) -> DecInst {
    match *inst {
        Inst::Mov { width, dst, src } => match (dst, src) {
            (Operand::Reg(d), Operand::Reg(s)) if width == Width::B8 => {
                DecInst::MovRR { dst: d, src: s }
            }
            (Operand::Reg(d), Operand::Imm(v)) => DecInst::MovRI {
                dst: d,
                imm: mask_to_width(width, v as u64),
            },
            (Operand::Reg(d), Operand::Mem(m)) => DecInst::MovLoad { width, dst: d, m },
            (Operand::Mem(m), Operand::Reg(s)) => DecInst::MovStoreR { width, m, src: s },
            (Operand::Mem(m), Operand::Imm(v)) => DecInst::MovStoreI {
                width,
                m,
                imm: v as u64,
            },
            _ => DecInst::Generic,
        },
        Inst::Lea { dst, addr } => DecInst::Lea { dst, m: addr },
        Inst::Alu { op, dst, src } => match src {
            Operand::Reg(s) => DecInst::AluRR { op, dst, src: s },
            Operand::Imm(v) => DecInst::AluRI {
                op,
                dst,
                imm: v as u64,
            },
            Operand::Mem(m) => DecInst::AluRM { op, dst, m },
        },
        Inst::Cmp { lhs, rhs } => match (lhs, rhs) {
            (Operand::Reg(a), Operand::Reg(b)) => DecInst::CmpRR { lhs: a, rhs: b },
            (Operand::Reg(a), Operand::Imm(v)) => DecInst::CmpRI {
                lhs: a,
                imm: v as u64,
            },
            (Operand::Reg(a), Operand::Mem(m)) => DecInst::CmpRM { lhs: a, m },
            _ => DecInst::Generic,
        },
        Inst::Test { lhs, rhs } => match (lhs, rhs) {
            (Operand::Reg(a), Operand::Reg(b)) => DecInst::TestRR { lhs: a, rhs: b },
            _ => DecInst::Generic,
        },
        Inst::Movsd { dst, src } => match (dst, src) {
            (XOperand::Xmm(d), XOperand::Xmm(s)) => DecInst::MovsdXX { dst: d, src: s },
            (XOperand::Xmm(d), XOperand::Mem(m)) => DecInst::MovsdXM { dst: d, m },
            (XOperand::Mem(m), XOperand::Xmm(s)) => DecInst::MovsdMX { m, src: s },
            (XOperand::Mem(_), XOperand::Mem(_)) => DecInst::Generic,
        },
        Inst::Sse { op, dst, src } => match src {
            XOperand::Xmm(s) => DecInst::SseXX { op, dst, src: s },
            XOperand::Mem(m) => DecInst::SseXM { op, dst, m },
        },
        Inst::Jmp { target } => DecInst::Jmp { target },
        Inst::Jcc { cond, target } => DecInst::Jcc { cond, target },
        _ => DecInst::Generic,
    }
}
