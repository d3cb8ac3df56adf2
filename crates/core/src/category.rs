//! Fault-injection instruction categories (paper Table III) and candidate
//! selection for both injection levels.

use fiq_asm::{AsmProgram, Inst as AInst, Operand, RegId, XOperand};
use fiq_interp::InstSite;
use fiq_ir::{InstKind, Module, Type};
use std::fmt;

/// The five injection categories of the study (paper Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Arithmetic and logic operations.
    Arithmetic,
    /// Type-cast operations (value conversions).
    Cast,
    /// Branch-condition instructions.
    Cmp,
    /// Memory load operations.
    Load,
    /// All instructions with a destination register.
    All,
}

impl Category {
    /// All five categories, in the paper's order.
    pub const ALL: [Category; 5] = [
        Category::Arithmetic,
        Category::Cast,
        Category::Cmp,
        Category::Load,
        Category::All,
    ];

    /// Lower-case name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Category::Arithmetic => "arithmetic",
            Category::Cast => "cast",
            Category::Cmp => "cmp",
            Category::Load => "load",
            Category::All => "all",
        }
    }
}

impl fmt::Display for Category {
    /// Writes the name, honouring width and alignment (`{cat:<11}`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// LLFI selection criteria (paper Table III, "LLFI selection criteria"):
/// does IR instruction `kind` (with result type `ty`) belong to `cat`?
///
/// Mirrors the paper §III mitigation: only *value-conversion* casts are
/// candidates (`bitcast` has no machine counterpart). `getelementptr` is
/// **not** arithmetic at the IR level — the source of the paper's bzip2
/// arithmetic-category discrepancy — but is a destination-producing
/// instruction, so it belongs to `all`.
pub fn llfi_matches(kind: &InstKind, ty: &Type, cat: Category) -> bool {
    if !ty.is_first_class() {
        return false; // no destination register to corrupt
    }
    match cat {
        Category::Arithmetic => matches!(kind, InstKind::Binary { .. }),
        Category::Cast => matches!(
            kind,
            InstKind::Cast { op, .. } if op.is_value_conversion()
        ),
        Category::Cmp => matches!(kind, InstKind::ICmp { .. } | InstKind::FCmp { .. }),
        Category::Load => matches!(kind, InstKind::Load { .. }),
        Category::All => true,
    }
}

/// The static LLFI candidate set of a module for `cat`, as a per-function
/// bitmap over instruction ids.
///
/// Only instructions whose value is *used* are candidates — LLFI's def-use
/// filter ("we can avoid injecting faults into instructions whose value is
/// not used", paper §IV).
pub fn llfi_candidates(module: &Module, cat: Category) -> Vec<Vec<bool>> {
    module
        .funcs
        .iter()
        .map(|f| {
            let uses = f.use_counts();
            let mut bits = vec![false; f.insts.len()];
            for bb in f.block_ids() {
                for &id in &f.block(bb).insts {
                    let inst = f.inst(id);
                    bits[id.index()] =
                        uses[id.index()] > 0 && llfi_matches(&inst.kind, &inst.ty, cat);
                }
            }
            bits
        })
        .collect()
}

/// True if `site` is in the candidate bitmap.
pub fn site_in(bits: &[Vec<bool>], site: InstSite) -> bool {
    bits.get(site.func.index())
        .and_then(|f| f.get(site.inst.index()))
        .copied()
        .unwrap_or(false)
}

/// PINFI selection criteria (paper Table III, "PINFI selection criteria"):
/// does machine instruction `inst` (at index `idx` of `prog`) belong to
/// `cat`?
pub fn pinfi_matches(prog: &AsmProgram, idx: usize, cat: Category) -> bool {
    let inst = &prog.insts[idx];
    match cat {
        Category::Arithmetic => matches!(
            inst,
            AInst::Alu { .. }
                | AInst::Shift { .. }
                | AInst::Neg { .. }
                | AInst::Idiv { .. }
                | AInst::Lea { .. }
                | AInst::Sse { .. }
        ),
        // x86's "convert" category: cvt* plus the widening cqo.
        Category::Cast => matches!(
            inst,
            AInst::Cvtsi2sd { .. } | AInst::Cvttsd2si { .. } | AInst::Cqo
        ),
        // "Instructions whose next instruction is a conditional branch".
        Category::Cmp => {
            matches!(
                inst,
                AInst::Cmp { .. } | AInst::Test { .. } | AInst::Ucomisd { .. }
            ) && matches!(prog.insts.get(idx + 1), Some(AInst::Jcc { .. }))
        }
        // "mov instructions with memory as the source and a register as
        // the destination" (including the sign/zero-extending and SSE
        // forms).
        Category::Load => matches!(
            inst,
            AInst::Mov {
                dst: Operand::Reg(_),
                src: Operand::Mem(_),
                ..
            } | AInst::Movsx {
                src: Operand::Mem(_),
                ..
            } | AInst::Movsd {
                dst: XOperand::Xmm(_),
                src: XOperand::Mem(_),
            }
        ),
        Category::All => injection_dest(prog, idx).is_some(),
    }
}

/// The injectable destination of instruction `idx`, with PINFI's
/// activation heuristics applied:
///
/// * flag-setting instructions are only injectable when the *next*
///   instruction is a conditional jump or `setcc`, and then only into the
///   FLAGS bits that instruction reads (paper Fig 2a),
/// * everything else uses [`fiq_asm::Inst::dest`].
///
/// Returns `None` for instructions with no (activatable) destination.
pub fn injection_dest(prog: &AsmProgram, idx: usize) -> Option<RegId> {
    let inst = &prog.insts[idx];
    match inst.dest()? {
        RegId::Flags(_) => {
            let mask = match prog.insts.get(idx + 1) {
                Some(AInst::Jcc { cond, .. } | AInst::Setcc { cond, .. }) => cond.depends_mask(),
                _ => return None, // flags result never read: skip
            };
            Some(RegId::Flags(mask))
        }
        d => Some(d),
    }
}

/// The static PINFI candidate set of a program for `cat` (bitmap over
/// instruction indices).
pub fn pinfi_candidates(prog: &AsmProgram, cat: Category) -> Vec<bool> {
    (0..prog.insts.len())
        .map(|i| pinfi_matches(prog, i, cat) && injection_dest(prog, i).is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiq_asm::{AluOp, AsmFunc, Cond, MemRef, Reg, Width};
    use fiq_ir::{BinOp, CastOp, FuncBuilder, Function, Value};

    #[test]
    fn display_honours_width() {
        assert_eq!(format!("{:<11}|", Category::Cast), "cast       |");
        assert_eq!(format!("{:>6}", Category::Cmp), "   cmp");
        assert_eq!(Category::Arithmetic.to_string(), "arithmetic");
    }

    #[test]
    fn llfi_category_membership() {
        let mut f = Function::new("f", vec![Type::i64(), Type::f64()], Type::i64());
        let mut b = FuncBuilder::new(&mut f);
        let add = b.binary(BinOp::Add, Value::Arg(0), Value::i64(1));
        let cast = b.cast(CastOp::SiToFp, add, Type::f64());
        let bc = b.cast(CastOp::Bitcast, cast, Type::i64());
        let cmp = b.icmp(fiq_ir::ICmpPred::Slt, bc, Value::i64(0));
        let sel = b.select(cmp, add, bc);
        b.ret(Some(sel));
        let get = |v: Value| {
            let id = v.as_inst().unwrap();
            f.inst(id).clone()
        };
        let (add_i, cast_i, bc_i, cmp_i) = (get(add), get(cast), get(bc), get(cmp));
        assert!(llfi_matches(&add_i.kind, &add_i.ty, Category::Arithmetic));
        assert!(!llfi_matches(&add_i.kind, &add_i.ty, Category::Cast));
        assert!(llfi_matches(&cast_i.kind, &cast_i.ty, Category::Cast));
        assert!(
            !llfi_matches(&bc_i.kind, &bc_i.ty, Category::Cast),
            "bitcast excluded per Table I row 5"
        );
        assert!(llfi_matches(&cmp_i.kind, &cmp_i.ty, Category::Cmp));
        assert!(llfi_matches(&cmp_i.kind, &cmp_i.ty, Category::All));
    }

    #[test]
    fn llfi_def_use_filter() {
        // An unused add must not be a candidate.
        let mut m = Module::new("t");
        let mut f = Function::new("main", vec![], Type::i64());
        let mut b = FuncBuilder::new(&mut f);
        let used = b.binary(BinOp::Add, Value::i64(1), Value::i64(2));
        let _unused = b.binary(BinOp::Add, Value::i64(3), Value::i64(4));
        b.ret(Some(used));
        m.add_func(f);
        let bits = llfi_candidates(&m, Category::Arithmetic);
        assert!(bits[0][used.as_inst().unwrap().index()]);
        assert!(!bits[0][1], "unused result filtered out");
    }

    fn tiny_prog(insts: Vec<AInst>) -> AsmProgram {
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

    #[test]
    fn pinfi_cmp_requires_following_jcc() {
        let p = tiny_prog(vec![
            AInst::Cmp {
                lhs: Operand::Reg(Reg::Rax),
                rhs: Operand::Imm(0),
            },
            AInst::Jcc {
                cond: Cond::L,
                target: 0,
            },
            AInst::Cmp {
                lhs: Operand::Reg(Reg::Rax),
                rhs: Operand::Imm(0),
            },
            AInst::Ret,
        ]);
        assert!(pinfi_matches(&p, 0, Category::Cmp));
        assert!(!pinfi_matches(&p, 2, Category::Cmp), "no jcc follows");
        // The injectable flag bits are exactly what jl reads.
        assert_eq!(
            injection_dest(&p, 0),
            Some(RegId::Flags(Cond::L.depends_mask()))
        );
        assert_eq!(injection_dest(&p, 2), None);
    }

    #[test]
    fn pinfi_load_is_mem_to_reg_mov() {
        let load = AInst::Mov {
            width: Width::B8,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Mem(MemRef::absolute(0x10000)),
        };
        let store = AInst::Mov {
            width: Width::B8,
            dst: Operand::Mem(MemRef::absolute(0x10000)),
            src: Operand::Reg(Reg::Rax),
        };
        let regmov = AInst::Mov {
            width: Width::B8,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Reg(Reg::Rcx),
        };
        let p = tiny_prog(vec![load, store, regmov, AInst::Ret]);
        assert!(pinfi_matches(&p, 0, Category::Load));
        assert!(!pinfi_matches(&p, 1, Category::Load), "store is not a load");
        assert!(
            !pinfi_matches(&p, 2, Category::Load),
            "reg-to-reg mov is not a load (the libquantum discrepancy)"
        );
        // But all three with register destinations are in 'all'.
        assert!(pinfi_matches(&p, 0, Category::All));
        assert!(!pinfi_matches(&p, 1, Category::All), "no register dest");
        assert!(pinfi_matches(&p, 2, Category::All));
    }

    #[test]
    fn pinfi_arithmetic_includes_address_math() {
        let p = tiny_prog(vec![
            AInst::Alu {
                op: AluOp::Add,
                dst: Reg::Rax,
                src: Operand::Imm(8),
            },
            AInst::Lea {
                dst: Reg::Rcx,
                addr: MemRef::base_disp(Reg::Rax, 16),
            },
            AInst::Ret,
        ]);
        assert!(pinfi_matches(&p, 0, Category::Arithmetic));
        assert!(
            pinfi_matches(&p, 1, Category::Arithmetic),
            "address computation counts as arithmetic at the asm level"
        );
    }

    #[test]
    fn pinfi_cast_is_convert_family() {
        let p = tiny_prog(vec![
            AInst::Cvtsi2sd {
                dst: fiq_asm::Xmm(0),
                src: Operand::Reg(Reg::Rax),
            },
            AInst::Cqo,
            AInst::Ret,
        ]);
        assert!(pinfi_matches(&p, 0, Category::Cast));
        assert!(pinfi_matches(&p, 1, Category::Cast));
        assert!(!pinfi_matches(&p, 2, Category::Cast));
    }
}
