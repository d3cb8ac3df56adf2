//! Virtual-register code: the backend's intermediate form between
//! instruction selection and register allocation.
//!
//! `VInst` mirrors the machine instruction set ([`fiq_asm::Inst`]) but
//! operands may name *virtual* registers, branch targets are IR block
//! indices, and two pseudo-instructions exist: `LeaFrame` (address of a
//! frame slot, resolved once the frame layout is final) and `Ret` (expands
//! to the full epilogue).

use fiq_asm::{AluOp, Cond, ExtFn, Reg, ShiftOp, SseOp, Width, Xmm};

/// An integer-world register: virtual or physical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VR {
    /// Virtual register, numbered per function.
    V(u32),
    /// Physical register (pinned by ABI/ISA constraints).
    P(Reg),
}

/// A float-world register: virtual or physical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XV {
    /// Virtual register.
    V(u32),
    /// Physical XMM register.
    P(Xmm),
}

/// A memory reference over virtual registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VMem {
    /// Base register.
    pub base: Option<VR>,
    /// Index register.
    pub index: Option<VR>,
    /// Scale for the index (1/2/4/8).
    pub scale: u8,
    /// Displacement or absolute address.
    pub disp: i64,
}

impl VMem {
    /// `[base]`.
    pub fn base_only(base: VR) -> VMem {
        VMem {
            base: Some(base),
            index: None,
            scale: 1,
            disp: 0,
        }
    }

    /// `[disp]` — absolute.
    pub fn absolute(addr: u64) -> VMem {
        VMem {
            base: None,
            index: None,
            scale: 1,
            disp: addr as i64,
        }
    }
}

/// An integer-world operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VOperand {
    /// Register.
    Reg(VR),
    /// Immediate.
    Imm(i64),
    /// Memory.
    Mem(VMem),
}

/// A float-world operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VXOperand {
    /// XMM register.
    Xmm(XV),
    /// Memory (8 bytes).
    Mem(VMem),
}

/// A virtual-register instruction. Field meanings mirror
/// [`fiq_asm::Inst`].
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum VInst {
    Mov {
        width: Width,
        dst: VOperand,
        src: VOperand,
    },
    Movsx {
        width: Width,
        dst: VR,
        src: VOperand,
    },
    /// Pseudo: `dst = rbp - offset(slot)`; resolved by the frame pass.
    LeaFrame {
        dst: VR,
        slot: u32,
    },
    Alu {
        op: AluOp,
        dst: VR,
        src: VOperand,
    },
    Shift {
        op: ShiftOp,
        dst: VR,
        src: VOperand,
    },
    Neg {
        dst: VR,
    },
    Cqo,
    Idiv {
        src: VR,
    },
    Cmp {
        lhs: VOperand,
        rhs: VOperand,
    },
    Test {
        lhs: VOperand,
        rhs: VOperand,
    },
    Setcc {
        cond: Cond,
        dst: VR,
    },
    /// Unconditional branch to an IR block (resolved to an absolute index).
    JmpBlock {
        target: u32,
    },
    /// Conditional branch to an IR block.
    JccBlock {
        cond: Cond,
        target: u32,
    },
    Call {
        func: u32,
    },
    CallExt {
        ext: ExtFn,
    },
    /// Pseudo: function return; the frame pass expands the epilogue.
    Ret,
    Movsd {
        dst: VXOperand,
        src: VXOperand,
    },
    Sse {
        op: SseOp,
        dst: XV,
        src: VXOperand,
    },
    Ucomisd {
        lhs: XV,
        rhs: VXOperand,
    },
    Cvtsi2sd {
        dst: XV,
        src: VOperand,
    },
    Cvttsd2si {
        dst: VR,
        src: VXOperand,
    },
    MovqRX {
        dst: XV,
        src: VR,
    },
    MovqXR {
        dst: VR,
        src: XV,
    },
    /// Lower `unreachable`: jump to an invalid target (traps if executed).
    TrapJmp,
}

/// Which virtual registers an instruction reads and writes (physical
/// registers are handled by clobber regions instead).
#[derive(Debug, Default, Clone)]
pub struct UseDef {
    /// Virtual int registers read.
    pub int_uses: Vec<u32>,
    /// Virtual int registers written.
    pub int_defs: Vec<u32>,
    /// Virtual float registers read.
    pub xmm_uses: Vec<u32>,
    /// Virtual float registers written.
    pub xmm_defs: Vec<u32>,
}

impl UseDef {
    fn use_vr(&mut self, r: VR) {
        if let VR::V(v) = r {
            self.int_uses.push(v);
        }
    }

    fn def_vr(&mut self, r: VR) {
        if let VR::V(v) = r {
            self.int_defs.push(v);
        }
    }

    fn use_xv(&mut self, r: XV) {
        if let XV::V(v) = r {
            self.xmm_uses.push(v);
        }
    }

    fn def_xv(&mut self, r: XV) {
        if let XV::V(v) = r {
            self.xmm_defs.push(v);
        }
    }

    fn use_mem(&mut self, m: &VMem) {
        if let Some(b) = m.base {
            self.use_vr(b);
        }
        if let Some(i) = m.index {
            self.use_vr(i);
        }
    }

    fn use_op(&mut self, o: &VOperand) {
        match o {
            VOperand::Reg(r) => self.use_vr(*r),
            VOperand::Mem(m) => self.use_mem(m),
            VOperand::Imm(_) => {}
        }
    }

    fn use_xop(&mut self, o: &VXOperand) {
        match o {
            VXOperand::Xmm(x) => self.use_xv(*x),
            VXOperand::Mem(m) => self.use_mem(m),
        }
    }
}

impl VInst {
    /// Computes the use/def sets of this instruction (virtual regs only).
    pub fn use_def(&self) -> UseDef {
        let mut ud = UseDef::default();
        match self {
            VInst::Mov { dst, src, .. } => {
                ud.use_op(src);
                match dst {
                    VOperand::Reg(r) => ud.def_vr(*r),
                    VOperand::Mem(m) => ud.use_mem(m),
                    VOperand::Imm(_) => {}
                }
            }
            VInst::Movsx { dst, src, .. } => {
                ud.use_op(src);
                ud.def_vr(*dst);
            }
            VInst::LeaFrame { dst, .. } => ud.def_vr(*dst),
            VInst::Alu { dst, src, .. } | VInst::Shift { dst, src, .. } => {
                ud.use_vr(*dst); // read-modify-write
                ud.use_op(src);
                ud.def_vr(*dst);
            }
            VInst::Neg { dst } => {
                ud.use_vr(*dst);
                ud.def_vr(*dst);
            }
            VInst::Cqo | VInst::Call { .. } | VInst::CallExt { .. } | VInst::Ret => {}
            VInst::Idiv { src } => ud.use_vr(*src),
            VInst::Cmp { lhs, rhs } | VInst::Test { lhs, rhs } => {
                ud.use_op(lhs);
                ud.use_op(rhs);
            }
            VInst::Setcc { dst, .. } => ud.def_vr(*dst),
            VInst::JmpBlock { .. } | VInst::JccBlock { .. } | VInst::TrapJmp => {}
            VInst::Movsd { dst, src } => {
                ud.use_xop(src);
                match dst {
                    VXOperand::Xmm(x) => ud.def_xv(*x),
                    VXOperand::Mem(m) => ud.use_mem(m),
                }
            }
            VInst::Sse { op, dst, src } => {
                if *op != SseOp::Sqrtsd {
                    ud.use_xv(*dst);
                }
                ud.use_xop(src);
                ud.def_xv(*dst);
            }
            VInst::Ucomisd { lhs, rhs } => {
                ud.use_xv(*lhs);
                ud.use_xop(rhs);
            }
            VInst::Cvtsi2sd { dst, src } => {
                ud.use_op(src);
                ud.def_xv(*dst);
            }
            VInst::Cvttsd2si { dst, src } => {
                ud.use_xop(src);
                ud.def_vr(*dst);
            }
            VInst::MovqRX { dst, src } => {
                ud.use_vr(*src);
                ud.def_xv(*dst);
            }
            VInst::MovqXR { dst, src } => {
                ud.use_xv(*src);
                ud.def_vr(*dst);
            }
        }
        ud
    }

    /// Block targets of a branch, if any.
    pub fn block_targets(&self) -> Vec<u32> {
        match self {
            VInst::JmpBlock { target } => vec![*target],
            VInst::JccBlock { target, .. } => vec![*target],
            _ => Vec::new(),
        }
    }
}

/// A frame slot request (alloca storage or spill), in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSlot {
    /// Size in bytes.
    pub size: u64,
    /// Alignment in bytes (≤ 16).
    pub align: u64,
}

/// One function's worth of vcode.
#[derive(Debug, Clone)]
pub struct VFunc {
    /// All instructions, in block-layout order.
    pub insts: Vec<VInst>,
    /// Per-block instruction ranges into `insts`, indexed by block id.
    /// Ids beyond the IR block count are synthetic edge-split blocks.
    pub block_ranges: Vec<(usize, usize)>,
    /// Block emission (layout) order; fallthrough follows this order.
    pub layout: Vec<u32>,
    /// Number of int virtual registers.
    pub int_vregs: u32,
    /// Number of float virtual registers.
    pub xmm_vregs: u32,
    /// Frame slots requested by isel (allocas), indexed by slot id.
    pub slots: Vec<FrameSlot>,
    /// Clobber regions: `(start, end, int_clobber_mask, xmm_clobber_mask)`
    /// over instruction positions (inclusive). An interval overlapping a
    /// region must not be allocated to a clobbered register.
    pub clobbers: Vec<(usize, usize, u16, u16)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn use_def_of_rmw() {
        let i = VInst::Alu {
            op: AluOp::Add,
            dst: VR::V(3),
            src: VOperand::Reg(VR::V(4)),
        };
        let ud = i.use_def();
        assert_eq!(ud.int_uses, vec![3, 4]);
        assert_eq!(ud.int_defs, vec![3]);
    }

    #[test]
    fn use_def_of_store() {
        let i = VInst::Mov {
            width: Width::B8,
            dst: VOperand::Mem(VMem {
                base: Some(VR::V(1)),
                index: Some(VR::V(2)),
                scale: 8,
                disp: 0,
            }),
            src: VOperand::Reg(VR::V(0)),
        };
        let ud = i.use_def();
        assert_eq!(ud.int_uses, vec![0, 1, 2]);
        assert!(ud.int_defs.is_empty());
    }

    #[test]
    fn phys_regs_ignored() {
        let i = VInst::Mov {
            width: Width::B8,
            dst: VOperand::Reg(VR::P(Reg::Rdi)),
            src: VOperand::Reg(VR::V(7)),
        };
        let ud = i.use_def();
        assert_eq!(ud.int_uses, vec![7]);
        assert!(ud.int_defs.is_empty());
    }

    #[test]
    fn sqrt_does_not_read_dst() {
        let i = VInst::Sse {
            op: SseOp::Sqrtsd,
            dst: XV::V(1),
            src: VXOperand::Xmm(XV::V(2)),
        };
        let ud = i.use_def();
        assert_eq!(ud.xmm_uses, vec![2]);
        assert_eq!(ud.xmm_defs, vec![1]);
    }
}
