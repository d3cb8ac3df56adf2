//! The machine emulator's execution core: a pre-decoded opcode table.
//!
//! [`DecodedProgram::decode`] flattens each [`Inst`] into a `Copy`
//! [`DecInst`] with operand addressing pre-resolved: the hot register and
//! immediate forms of mov/alu/cmp/test/branch get dedicated variants
//! (immediates pre-masked to their destination width), memory forms keep
//! their [`MemRef`], and everything else falls back to [`DecInst::Generic`],
//! which re-executes the original instruction at the same index through
//! the shared reference semantics (`Machine::exec_inst`). The program is
//! decoded into two tables indexed by rip: `plain`, one entry per
//! instruction, and `code`, where a fusion pass has rewritten adjacent
//! FLAGS-producer + conditional-branch pairs (cmp/test/ALU heads) and
//! 64-bit register mov ↔ register ALU pairs into superinstructions.
//!
//! Observable semantics are identical to the reference core
//! (`Machine::step`): the same retire counts at the same instruction
//! indices, the same `on_retire` event sequence, the same traps and
//! console bytes. FLAGS are always fully materialized — they are
//! architectural state (digest input and a PINFI injection target), so no
//! flags computation is ever pruned; what is precomputed is only the
//! operand *addressing*. A fused pair is atomic: it charges two steps and
//! fires both retire events, so the step leading into a pause or
//! snapshot boundary is taken from the `plain` table, and every boundary
//! lands where the reference core's would.

use crate::flags::Cond;
use crate::inst::{AluOp, Inst, MemRef, Operand, Width};
use crate::program::AsmProgram;
use crate::regs::Reg;

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
    /// `cmp lhs, rhs` between registers.
    CmpRR { lhs: Reg, rhs: Reg },
    /// `cmp lhs, imm`.
    CmpRI { lhs: Reg, imm: u64 },
    /// `test lhs, rhs` between registers.
    TestRR { lhs: Reg, rhs: Reg },
    /// Unconditional jump.
    Jmp { target: u32 },
    /// Conditional jump.
    Jcc { cond: Cond, target: u32 },
    /// Superinstruction: `cmp lhs, rhs` + adjacent `jcc`.
    FusedCmpJccRR {
        lhs: Reg,
        rhs: Reg,
        cond: Cond,
        target: u32,
    },
    /// Superinstruction: `cmp lhs, imm` + adjacent `jcc`.
    FusedCmpJccRI {
        lhs: Reg,
        imm: u64,
        cond: Cond,
        target: u32,
    },
    /// Superinstruction: `test lhs, rhs` + adjacent `jcc`.
    FusedTestJccRR {
        lhs: Reg,
        rhs: Reg,
        cond: Cond,
        target: u32,
    },
    /// Superinstruction: register ALU op + adjacent `jcc` reading the
    /// FLAGS the ALU op just set (the `sub`/`and`-as-compare idiom).
    FusedAluJccRR {
        op: AluOp,
        dst: Reg,
        src: Reg,
        cond: Cond,
        target: u32,
    },
    /// Superinstruction: immediate ALU op + adjacent `jcc`.
    FusedAluJccRI {
        op: AluOp,
        dst: Reg,
        imm: u64,
        cond: Cond,
        target: u32,
    },
    /// Superinstruction: 64-bit register `mov` + adjacent register ALU op
    /// (the copy-then-accumulate idiom).
    FusedMovAluRR {
        mov_dst: Reg,
        mov_src: Reg,
        op: AluOp,
        dst: Reg,
        src: Reg,
    },
    /// Superinstruction: register ALU op + adjacent 64-bit register `mov`
    /// (the compute-then-copy idiom; the mov preserves FLAGS).
    FusedAluMovRR {
        op: AluOp,
        dst: Reg,
        src: Reg,
        mov_dst: Reg,
        mov_src: Reg,
    },
    /// Everything else: execute `prog.insts[idx]` through the reference
    /// semantics (the index is the current rip, so no payload is needed).
    Generic,
}

/// A program pre-decoded for the machine's execution core: two tables
/// indexed by rip in lockstep with `prog.insts`. Decode once, share via
/// `Arc` across every machine running the same program.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    /// Superinstructions at fused heads; every other entry (fused tails
    /// included) is the plain decode.
    pub(crate) code: Box<[DecInst]>,
    /// One plain decode per instruction: what the step leading into a
    /// pause or snapshot boundary executes.
    pub(crate) plain: Box<[DecInst]>,
}

impl DecodedProgram {
    /// Decodes `prog` into its fused and plain tables.
    pub fn decode(prog: &AsmProgram) -> DecodedProgram {
        let plain: Box<[DecInst]> = prog.insts.iter().map(decode_inst).collect();
        // Heads (cmp/test/ALU/mov) and tails (jcc/ALU/mov) are matched by
        // a greedy left-to-right scan. The tail keeps its plain decode: a
        // jump landing on it, or a pause between the halves, executes it
        // standalone.
        let mut code = plain.clone();
        let mut i = 0;
        while i + 1 < plain.len() {
            if let Some(f) = fuse_pair(plain[i], plain[i + 1]) {
                code[i] = f;
                i += 2;
            } else {
                i += 1;
            }
        }
        DecodedProgram { code, plain }
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
            Operand::Mem(_) => DecInst::Generic,
        },
        Inst::Cmp { lhs, rhs } => match (lhs, rhs) {
            (Operand::Reg(a), Operand::Reg(b)) => DecInst::CmpRR { lhs: a, rhs: b },
            (Operand::Reg(a), Operand::Imm(v)) => DecInst::CmpRI {
                lhs: a,
                imm: v as u64,
            },
            _ => DecInst::Generic,
        },
        Inst::Test { lhs, rhs } => match (lhs, rhs) {
            (Operand::Reg(a), Operand::Reg(b)) => DecInst::TestRR { lhs: a, rhs: b },
            _ => DecInst::Generic,
        },
        Inst::Jmp { target } => DecInst::Jmp { target },
        Inst::Jcc { cond, target } => DecInst::Jcc { cond, target },
        _ => DecInst::Generic,
    }
}

/// Builds the superinstruction for an adjacent (head, tail) pair, or
/// `None` if they don't form a fusable idiom: a FLAGS producer
/// (cmp/test/ALU) feeding an adjacent `jcc`, or a 64-bit register mov
/// adjacent to a register ALU op in either order. Every fused pair
/// executes both halves through the same state transitions as two
/// standalone steps, with the tail re-reading architectural state after
/// the head's retire event.
fn fuse_pair(head: DecInst, tail: DecInst) -> Option<DecInst> {
    match (head, tail) {
        (DecInst::CmpRR { lhs, rhs }, DecInst::Jcc { cond, target }) => {
            Some(DecInst::FusedCmpJccRR {
                lhs,
                rhs,
                cond,
                target,
            })
        }
        (DecInst::CmpRI { lhs, imm }, DecInst::Jcc { cond, target }) => {
            Some(DecInst::FusedCmpJccRI {
                lhs,
                imm,
                cond,
                target,
            })
        }
        (DecInst::TestRR { lhs, rhs }, DecInst::Jcc { cond, target }) => {
            Some(DecInst::FusedTestJccRR {
                lhs,
                rhs,
                cond,
                target,
            })
        }
        (DecInst::AluRR { op, dst, src }, DecInst::Jcc { cond, target }) => {
            Some(DecInst::FusedAluJccRR {
                op,
                dst,
                src,
                cond,
                target,
            })
        }
        (DecInst::AluRI { op, dst, imm }, DecInst::Jcc { cond, target }) => {
            Some(DecInst::FusedAluJccRI {
                op,
                dst,
                imm,
                cond,
                target,
            })
        }
        (
            DecInst::MovRR {
                dst: mov_dst,
                src: mov_src,
            },
            DecInst::AluRR { op, dst, src },
        ) => Some(DecInst::FusedMovAluRR {
            mov_dst,
            mov_src,
            op,
            dst,
            src,
        }),
        (
            DecInst::AluRR { op, dst, src },
            DecInst::MovRR {
                dst: mov_dst,
                src: mov_src,
            },
        ) => Some(DecInst::FusedAluMovRR {
            op,
            dst,
            src,
            mov_dst,
            mov_src,
        }),
        _ => None,
    }
}
