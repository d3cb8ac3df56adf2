//! Final emission: spill rewriting, frame construction, prologue/epilogue,
//! and branch resolution.

use crate::regalloc::{Alloc, Assignment};
use crate::vcode::{VFunc, VInst, VMem, VOperand, VXOperand, VR, XV};
use fiq_asm::{AluOp, Inst, MemRef, Operand, Reg, Width, XOperand, Xmm};
use fiq_ir::round_up;
use std::collections::HashMap;

/// Spill-scratch registers (reserved; never allocated).
const INT_SCRATCH: [Reg; 3] = [Reg::R9, Reg::R10, Reg::R11];
// No instruction reads more than two float virtual registers, so two
// scratch XMMs suffice (xmm0-13 stay allocatable).
const XMM_SCRATCH: [Xmm; 2] = [Xmm(14), Xmm(15)];

/// Emits one function to machine instructions with function-local branch
/// targets resolved.
pub(crate) fn emit_function(vfunc: &VFunc, assign: &Assignment) -> Vec<Inst> {
    let n_saved = assign.used_callee_saved.len() as u64;
    // Frame slot offsets (distance below rbp).
    let base = 8 * n_saved;
    let mut cur = base;
    let mut slot_off: Vec<u64> = Vec::with_capacity(vfunc.slots.len());
    for s in &vfunc.slots {
        cur = round_up(cur + s.size, s.align.max(1));
        slot_off.push(cur);
    }
    let frame_size = round_up(cur - base, 16);

    let mut out: Vec<Inst> = Vec::new();
    // Prologue.
    out.push(Inst::Push {
        src: Operand::Reg(Reg::Rbp),
    });
    out.push(Inst::Mov {
        width: Width::B8,
        dst: Operand::Reg(Reg::Rbp),
        src: Operand::Reg(Reg::Rsp),
    });
    for &r in &assign.used_callee_saved {
        out.push(Inst::Push {
            src: Operand::Reg(r),
        });
    }
    if frame_size > 0 {
        out.push(Inst::Alu {
            op: AluOp::Sub,
            dst: Reg::Rsp,
            src: Operand::Imm(frame_size as i64),
        });
    }

    let mut block_offset: Vec<u32> = vec![0; vfunc.block_ranges.len()];
    let mut patches: Vec<(usize, u32)> = Vec::new(); // (inst pos, block id)

    for (pos, &b) in vfunc.layout.iter().enumerate() {
        let b = b as usize;
        let (s, e) = vfunc.block_ranges[b];
        block_offset[b] = out.len() as u32;
        let next_block = vfunc.layout.get(pos + 1).copied().unwrap_or(u32::MAX);
        let mut i = s;
        while i < e {
            let vinst = &vfunc.insts[i];
            let is_last = i == e - 1;
            // Fallthrough layout: an unconditional jump to the next block
            // is dropped; a conditional branch whose fallthrough follows is
            // inverted so only one jump remains (standard block layout —
            // without this the assembly would be *less* packed than the
            // IR, inverting the paper's Table IV relationship).
            if is_last {
                if let VInst::JmpBlock { target } = vinst {
                    if *target == next_block {
                        break; // falls through
                    }
                }
            }
            if i + 1 == e - 1 {
                if let (VInst::JccBlock { cond, target: t1 }, VInst::JmpBlock { target: t2 }) =
                    (&vfunc.insts[i], &vfunc.insts[i + 1])
                {
                    if *t1 == next_block {
                        patches.push((out.len(), *t2));
                        out.push(Inst::Jcc {
                            cond: cond.negated(),
                            target: 0,
                        });
                        break;
                    }
                    if *t2 == next_block {
                        patches.push((out.len(), *t1));
                        out.push(Inst::Jcc {
                            cond: *cond,
                            target: 0,
                        });
                        break;
                    }
                }
            }
            emit_inst(
                vinst,
                vfunc,
                assign,
                &slot_off,
                frame_size,
                &mut out,
                &mut patches,
            );
            i += 1;
        }
    }
    for (pos, b) in patches {
        match &mut out[pos] {
            Inst::Jmp { target } | Inst::Jcc { target, .. } => *target = block_offset[b as usize],
            _ => unreachable!("patch target is a branch"),
        }
    }
    out
}

struct Scratches {
    int: HashMap<u32, Reg>,
    xmm: HashMap<u32, Xmm>,
}

#[allow(clippy::too_many_arguments)]
fn emit_inst(
    vinst: &VInst,
    vfunc: &VFunc,
    assign: &Assignment,
    slot_off: &[u64],
    frame_size: u64,
    out: &mut Vec<Inst>,
    patches: &mut Vec<(usize, u32)>,
) {
    // Ret expands to the epilogue and has no virtual operands.
    if matches!(vinst, VInst::Ret) {
        if frame_size > 0 {
            out.push(Inst::Alu {
                op: AluOp::Add,
                dst: Reg::Rsp,
                src: Operand::Imm(frame_size as i64),
            });
        }
        for &r in assign.used_callee_saved.iter().rev() {
            out.push(Inst::Pop { dst: r });
        }
        out.push(Inst::Pop { dst: Reg::Rbp });
        out.push(Inst::Ret);
        return;
    }

    let slot_of =
        |slot: u32| -> MemRef { MemRef::base_disp(Reg::Rbp, -(slot_off[slot as usize] as i64)) };
    // Direct spill store: `mov v_spilled, reg/imm` writes the slot without
    // a scratch register. Besides saving an instruction, this keeps the
    // argument-copy prelude scratch-free (incoming `r9` would otherwise be
    // clobbered before the sixth argument is copied out).
    if let VInst::Mov {
        width: Width::B8,
        dst: VOperand::Reg(VR::V(d)),
        src,
    } = vinst
    {
        if let Alloc::Spill(slot) = assign.int_alloc[*d as usize] {
            let direct = match src {
                VOperand::Imm(i) => Some(Operand::Imm(*i)),
                VOperand::Reg(VR::P(r)) => Some(Operand::Reg(*r)),
                VOperand::Reg(VR::V(s)) => match assign.int_alloc[*s as usize] {
                    Alloc::Reg(r) => Some(Operand::Reg(r)),
                    Alloc::Spill(_) => None,
                },
                VOperand::Mem(_) => None,
            };
            if let Some(src) = direct {
                out.push(Inst::Mov {
                    width: Width::B8,
                    dst: Operand::Mem(slot_of(slot)),
                    src,
                });
                return;
            }
        }
    }

    // Fold spilled operands into memory operands where the instruction
    // accepts them (`add r, [rbp-N]`, `cmp r, [rbp-N]`, `addsd x,
    // [rbp-N]`, …) — how real compilers consume spill slots. Whatever
    // cannot fold (address registers, RMW destinations) goes through the
    // scratch registers below.
    let folded;
    let vinst = {
        folded = fold_spilled_operands(vinst, assign, &slot_of);
        &folded
    };

    let ud = vinst.use_def();
    let mut sc = Scratches {
        int: HashMap::new(),
        xmm: HashMap::new(),
    };
    // Assign scratch registers to every spilled vreg this inst touches.
    let mut int_spilled: Vec<u32> = Vec::new();
    for &v in ud.int_uses.iter().chain(&ud.int_defs) {
        if matches!(assign.int_alloc[v as usize], Alloc::Spill(_)) && !int_spilled.contains(&v) {
            int_spilled.push(v);
        }
    }
    assert!(
        int_spilled.len() <= INT_SCRATCH.len(),
        "more spilled int operands than scratch registers in one instruction"
    );
    for (i, &v) in int_spilled.iter().enumerate() {
        sc.int.insert(v, INT_SCRATCH[i]);
    }
    let mut xmm_spilled: Vec<u32> = Vec::new();
    for &v in ud.xmm_uses.iter().chain(&ud.xmm_defs) {
        if matches!(assign.xmm_alloc[v as usize], Alloc::Spill(_)) && !xmm_spilled.contains(&v) {
            xmm_spilled.push(v);
        }
    }
    assert!(xmm_spilled.len() <= XMM_SCRATCH.len());
    for (i, &v) in xmm_spilled.iter().enumerate() {
        sc.xmm.insert(v, XMM_SCRATCH[i]);
    }

    let slot_mem =
        |slot: u32| -> MemRef { MemRef::base_disp(Reg::Rbp, -(slot_off[slot as usize] as i64)) };

    // Reloads for spilled *uses*.
    for &v in &ud.int_uses {
        if let Alloc::Spill(slot) = assign.int_alloc[v as usize] {
            out.push(Inst::Mov {
                width: Width::B8,
                dst: Operand::Reg(sc.int[&v]),
                src: Operand::Mem(slot_mem(slot)),
            });
        }
    }
    for &v in &ud.xmm_uses {
        if let Alloc::Spill(slot) = assign.xmm_alloc[v as usize] {
            out.push(Inst::Movsd {
                dst: XOperand::Xmm(sc.xmm[&v]),
                src: XOperand::Mem(slot_mem(slot)),
            });
        }
    }

    // The instruction itself, with registers substituted.
    let r = |vr: VR| -> Reg {
        match vr {
            VR::P(r) => r,
            VR::V(v) => match assign.int_alloc[v as usize] {
                Alloc::Reg(r) => r,
                Alloc::Spill(_) => sc.int[&v],
            },
        }
    };
    let x = |xv: XV| -> Xmm {
        match xv {
            XV::P(p) => p,
            XV::V(v) => match assign.xmm_alloc[v as usize] {
                Alloc::Reg(p) => p,
                Alloc::Spill(_) => sc.xmm[&v],
            },
        }
    };
    let mem = |m: &VMem| -> MemRef {
        MemRef {
            base: m.base.map(r),
            index: m.index.map(r),
            scale: m.scale,
            disp: m.disp,
        }
    };
    let op = |o: &VOperand| -> Operand {
        match o {
            VOperand::Reg(v) => Operand::Reg(r(*v)),
            VOperand::Imm(i) => Operand::Imm(*i),
            VOperand::Mem(m) => Operand::Mem(mem(m)),
        }
    };
    let xop = |o: &VXOperand| -> XOperand {
        match o {
            VXOperand::Xmm(v) => XOperand::Xmm(x(*v)),
            VXOperand::Mem(m) => XOperand::Mem(mem(m)),
        }
    };

    match vinst {
        VInst::Mov { width, dst, src } => {
            let (d, s) = (op(dst), op(src));
            // Coalesced copies become self-moves; delete them (only at
            // full width — narrow register moves zero-extend).
            let self_move = *width == Width::B8
                && matches!((&d, &s), (Operand::Reg(a), Operand::Reg(b)) if a == b);
            if !self_move {
                out.push(Inst::Mov {
                    width: *width,
                    dst: d,
                    src: s,
                });
            }
        }
        VInst::Movsx { width, dst, src } => out.push(Inst::Movsx {
            width: *width,
            dst: r(*dst),
            src: op(src),
        }),
        VInst::LeaFrame { dst, slot } => out.push(Inst::Lea {
            dst: r(*dst),
            addr: slot_mem(*slot),
        }),
        VInst::Alu { op: o, dst, src } => out.push(Inst::Alu {
            op: *o,
            dst: r(*dst),
            src: op(src),
        }),
        VInst::Shift { op: o, dst, src } => out.push(Inst::Shift {
            op: *o,
            dst: r(*dst),
            src: op(src),
        }),
        VInst::Neg { dst } => out.push(Inst::Neg { dst: r(*dst) }),
        VInst::Cqo => out.push(Inst::Cqo),
        VInst::Idiv { src } => out.push(Inst::Idiv {
            src: Operand::Reg(r(*src)),
        }),
        VInst::Cmp { lhs, rhs } => out.push(Inst::Cmp {
            lhs: op(lhs),
            rhs: op(rhs),
        }),
        VInst::Test { lhs, rhs } => out.push(Inst::Test {
            lhs: op(lhs),
            rhs: op(rhs),
        }),
        VInst::Setcc { cond, dst } => out.push(Inst::Setcc {
            cond: *cond,
            dst: r(*dst),
        }),
        VInst::JmpBlock { target } => {
            patches.push((out.len(), *target));
            out.push(Inst::Jmp { target: 0 });
        }
        VInst::JccBlock { cond, target } => {
            patches.push((out.len(), *target));
            out.push(Inst::Jcc {
                cond: *cond,
                target: 0,
            });
        }
        VInst::TrapJmp => out.push(Inst::Jmp { target: u32::MAX }),
        VInst::Call { func } => out.push(Inst::Call { func: *func }),
        VInst::CallExt { ext } => out.push(Inst::CallExt { ext: *ext }),
        VInst::Ret => unreachable!("handled above"),
        VInst::Movsd { dst, src } => {
            let (d, s) = (xop(dst), xop(src));
            let self_move = matches!((&d, &s), (XOperand::Xmm(a), XOperand::Xmm(b)) if a == b);
            if !self_move {
                out.push(Inst::Movsd { dst: d, src: s });
            }
        }
        VInst::Sse { op: o, dst, src } => out.push(Inst::Sse {
            op: *o,
            dst: x(*dst),
            src: xop(src),
        }),
        VInst::Ucomisd { lhs, rhs } => out.push(Inst::Ucomisd {
            lhs: x(*lhs),
            rhs: xop(rhs),
        }),
        VInst::Cvtsi2sd { dst, src } => out.push(Inst::Cvtsi2sd {
            dst: x(*dst),
            src: op(src),
        }),
        VInst::Cvttsd2si { dst, src } => out.push(Inst::Cvttsd2si {
            dst: r(*dst),
            src: xop(src),
        }),
        VInst::MovqRX { dst, src } => out.push(Inst::MovqRX {
            dst: x(*dst),
            src: r(*src),
        }),
        VInst::MovqXR { dst, src } => out.push(Inst::MovqXR {
            dst: r(*dst),
            src: x(*src),
        }),
    }

    // Writebacks for spilled *defs*.
    for &v in &ud.int_defs {
        if let Alloc::Spill(slot) = assign.int_alloc[v as usize] {
            out.push(Inst::Mov {
                width: Width::B8,
                dst: Operand::Mem(slot_mem(slot)),
                src: Operand::Reg(sc.int[&v]),
            });
        }
    }
    for &v in &ud.xmm_defs {
        if let Alloc::Spill(slot) = assign.xmm_alloc[v as usize] {
            out.push(Inst::Movsd {
                dst: XOperand::Mem(slot_mem(slot)),
                src: XOperand::Xmm(sc.xmm[&v]),
            });
        }
    }
    let _ = vfunc;
}

/// Rewrites spilled register operands into frame-slot memory operands in
/// the positions the ISA allows. At most one operand per instruction is
/// folded (x86-style: no mem-to-mem forms).
fn fold_spilled_operands(
    vinst: &VInst,
    assign: &Assignment,
    slot_of: &impl Fn(u32) -> MemRef,
) -> VInst {
    let int_slot = |vr: &VR| -> Option<MemRef> {
        if let VR::V(v) = vr {
            if let Alloc::Spill(slot) = assign.int_alloc[*v as usize] {
                return Some(slot_of(slot));
            }
        }
        None
    };
    let xmm_slot = |xv: &XV| -> Option<MemRef> {
        if let XV::V(v) = xv {
            if let Alloc::Spill(slot) = assign.xmm_alloc[*v as usize] {
                return Some(slot_of(slot));
            }
        }
        None
    };
    let fold_op = |o: &VOperand| -> Option<VOperand> {
        if let VOperand::Reg(r) = o {
            if let Some(m) = int_slot(r) {
                return Some(VOperand::Mem(VMem {
                    base: m.base.map(VR::P),
                    index: None,
                    scale: 1,
                    disp: m.disp,
                }));
            }
        }
        None
    };
    let fold_xop = |o: &VXOperand| -> Option<VXOperand> {
        if let VXOperand::Xmm(x) = o {
            if let Some(m) = xmm_slot(x) {
                return Some(VXOperand::Mem(VMem {
                    base: m.base.map(VR::P),
                    index: None,
                    scale: 1,
                    disp: m.disp,
                }));
            }
        }
        None
    };
    let is_mem = |o: &VOperand| matches!(o, VOperand::Mem(_));
    let is_xmem = |o: &VXOperand| matches!(o, VXOperand::Mem(_));

    match vinst {
        VInst::Mov { width, dst, src } => {
            // Prefer folding the source; fold the (register) destination
            // only when the source stays register/immediate.
            if !is_mem(dst) {
                if let Some(src2) = fold_op(src) {
                    return VInst::Mov {
                        width: *width,
                        dst: *dst,
                        src: src2,
                    };
                }
            }
            if *width == Width::B8 && !is_mem(src) && fold_op(src).is_none() {
                if let VOperand::Reg(r) = dst {
                    if let Some(m) = int_slot(r) {
                        return VInst::Mov {
                            width: Width::B8,
                            dst: VOperand::Mem(VMem {
                                base: m.base.map(VR::P),
                                index: None,
                                scale: 1,
                                disp: m.disp,
                            }),
                            src: *src,
                        };
                    }
                }
            }
            vinst.clone()
        }
        VInst::Movsx { width, dst, src } => match fold_op(src) {
            Some(src2) => VInst::Movsx {
                width: *width,
                dst: *dst,
                src: src2,
            },
            None => vinst.clone(),
        },
        VInst::Alu { op, dst, src } => {
            // dst is read-modify-write and must stay a register.
            if int_slot(dst).is_none() {
                if let Some(src2) = fold_op(src) {
                    return VInst::Alu {
                        op: *op,
                        dst: *dst,
                        src: src2,
                    };
                }
            }
            vinst.clone()
        }
        VInst::Cmp { lhs, rhs } => {
            if let Some(rhs2) = fold_op(rhs) {
                if !is_mem(lhs) {
                    return VInst::Cmp {
                        lhs: *lhs,
                        rhs: rhs2,
                    };
                }
            }
            if let Some(lhs2) = fold_op(lhs) {
                if !is_mem(rhs) {
                    return VInst::Cmp {
                        lhs: lhs2,
                        rhs: *rhs,
                    };
                }
            }
            vinst.clone()
        }
        VInst::Test { lhs, rhs } => {
            if lhs == rhs {
                return vinst.clone(); // both operands change together
            }
            if let Some(rhs2) = fold_op(rhs) {
                if !is_mem(lhs) {
                    return VInst::Test {
                        lhs: *lhs,
                        rhs: rhs2,
                    };
                }
            }
            vinst.clone()
        }
        VInst::Idiv { src } => {
            let _ = src;
            vinst.clone() // divisor stays in a register (idiv r/m is fine
                          // but keep the register form for simplicity)
        }
        VInst::Movsd { dst, src } => {
            if !is_xmem(dst) {
                if let Some(src2) = fold_xop(src) {
                    return VInst::Movsd {
                        dst: *dst,
                        src: src2,
                    };
                }
            }
            if !is_xmem(src) && fold_xop(src).is_none() {
                if let VXOperand::Xmm(x) = dst {
                    if let Some(m) = xmm_slot(x) {
                        return VInst::Movsd {
                            dst: VXOperand::Mem(VMem {
                                base: m.base.map(VR::P),
                                index: None,
                                scale: 1,
                                disp: m.disp,
                            }),
                            src: *src,
                        };
                    }
                }
            }
            vinst.clone()
        }
        VInst::Sse { op, dst, src } => {
            if *op != fiq_asm::SseOp::Sqrtsd && xmm_slot(dst).is_some() {
                return vinst.clone(); // RMW dst must be a register
            }
            if xmm_slot(dst).is_none() {
                if let Some(src2) = fold_xop(src) {
                    return VInst::Sse {
                        op: *op,
                        dst: *dst,
                        src: src2,
                    };
                }
            }
            vinst.clone()
        }
        VInst::Ucomisd { lhs, rhs } => {
            if xmm_slot(lhs).is_none() {
                if let Some(rhs2) = fold_xop(rhs) {
                    return VInst::Ucomisd {
                        lhs: *lhs,
                        rhs: rhs2,
                    };
                }
            }
            vinst.clone()
        }
        VInst::Cvtsi2sd { dst, src } => match fold_op(src) {
            Some(src2) => VInst::Cvtsi2sd {
                dst: *dst,
                src: src2,
            },
            None => vinst.clone(),
        },
        VInst::Cvttsd2si { dst, src } => match fold_xop(src) {
            Some(src2) => VInst::Cvttsd2si {
                dst: *dst,
                src: src2,
            },
            None => vinst.clone(),
        },
        _ => vinst.clone(),
    }
}
