//! Instruction selection: IR → virtual-register code.
//!
//! The selector reproduces the lowering behaviours the paper's accuracy
//! study hinges on:
//!
//! * **GEP folding** (`LowerOptions::fold_gep`): a `getelementptr` whose
//!   only uses are load/store addresses is folded into
//!   `base+index*scale+disp` addressing modes and *emits no arithmetic
//!   instructions* — "some address computations are compressed in the
//!   memory offset computation part of the assembly instruction"
//!   (paper §VII-1). Unfoldable GEPs become explicit `add`/`imul`
//!   sequences.
//! * **compare/branch fusion**: an `icmp`/`fcmp` whose only use is the
//!   block terminator emits `cmp`+`jcc`, so the "branch condition
//!   instruction followed by a conditional jump" pattern PINFI keys on
//!   (Table III, `cmp` row) appears exactly as on x86.
//! * **φ lowering to copies**: φ-nodes become register copies on the
//!   incoming edges; under register pressure those copies spill, turning
//!   IR value-merges into stack traffic (Table I row 2).

use crate::vcode::{FrameSlot, VFunc, VInst, VMem, VOperand, VXOperand, VR, XV};
use crate::LowerError;
use fiq_asm::{AluOp, Cond, ExtFn, Reg, ShiftOp, SseOp, Width, Xmm};
use fiq_ir::{
    BinOp, Callee, CastOp, Constant, FCmpPred, FloatTy, Function, ICmpPred, InstId, InstKind,
    IntTy, Intrinsic, Module, Type, Value,
};
use std::collections::{HashMap, HashSet};

/// Backend configuration (the ✦ ablation switches of DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct LowerOptions {
    /// Fold simple GEPs into addressing modes (paper-faithful when true).
    pub fold_gep: bool,
    /// Allow callee-saved registers (with push/pop save/restore). When
    /// false, long-lived values spill instead.
    pub use_callee_saved: bool,
}

impl Default for LowerOptions {
    fn default() -> LowerOptions {
        LowerOptions {
            fold_gep: true,
            use_callee_saved: true,
        }
    }
}

/// Caller-saved GPR mask (bit = `Reg::index`).
pub fn caller_saved_mask() -> u16 {
    let mut m = 0u16;
    for r in [
        Reg::Rax,
        Reg::Rcx,
        Reg::Rdx,
        Reg::Rsi,
        Reg::Rdi,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
    ] {
        m |= 1 << r.index();
    }
    m
}

/// A GEP reduced to addressing-mode form during folding analysis.
#[derive(Debug, Clone)]
struct FoldedGep {
    /// Base pointer (never a folded GEP; may be a global constant).
    base: Value,
    /// At most one scaled variable index.
    var: Option<(Value, u8)>,
    /// Constant displacement.
    disp: i64,
}

pub(crate) struct Isel<'a> {
    module: &'a Module,
    func: &'a Function,
    global_addrs: &'a [u64],
    opts: LowerOptions,
    out: Vec<VInst>,
    block_ranges: Vec<(usize, usize)>,
    int_map: HashMap<InstId, u32>,
    xmm_map: HashMap<InstId, u32>,
    arg_int: HashMap<u32, u32>,
    arg_xmm: HashMap<u32, u32>,
    next_int: u32,
    next_xmm: u32,
    slots: Vec<FrameSlot>,
    alloca_slot: HashMap<InstId, u32>,
    clobbers: Vec<(usize, usize, u16, u16)>,
    fused: HashSet<InstId>,
    folded: HashMap<InstId, FoldedGep>,
    folded_loads: HashSet<InstId>,
    /// Synthetic blocks splitting conditional edges into φ-blocks:
    /// `(pred, succ) → edge block id`. Splitting makes every φ-copy edge
    /// unconditional, so copies write φ registers directly (one move per
    /// φ per edge, no temporaries).
    edge_blocks: HashMap<(u32, u32), u32>,
    /// Addresses of pooled f64 constants (by IEEE bits).
    fconst: HashMap<u64, u64>,
}

impl<'a> Isel<'a> {
    pub(crate) fn new(
        module: &'a Module,
        func: &'a Function,
        global_addrs: &'a [u64],
        opts: LowerOptions,
    ) -> Isel<'a> {
        Isel {
            module,
            func,
            global_addrs,
            opts,
            out: Vec::new(),
            block_ranges: Vec::new(),
            int_map: HashMap::new(),
            xmm_map: HashMap::new(),
            arg_int: HashMap::new(),
            arg_xmm: HashMap::new(),
            next_int: 0,
            next_xmm: 0,
            slots: Vec::new(),
            alloca_slot: HashMap::new(),
            clobbers: Vec::new(),
            fused: HashSet::new(),
            folded: HashMap::new(),
            folded_loads: HashSet::new(),
            edge_blocks: HashMap::new(),
            fconst: HashMap::new(),
        }
    }

    /// Provides the module's f64 constant-pool addresses.
    pub(crate) fn with_fconsts(mut self, fconst: &HashMap<u64, u64>) -> Self {
        self.fconst = fconst.clone();
        self
    }

    fn err(&self, msg: impl std::fmt::Display) -> LowerError {
        LowerError {
            message: format!("{}: {}", self.func.name, msg),
        }
    }

    fn fresh_int(&mut self) -> u32 {
        self.next_int += 1;
        self.next_int - 1
    }

    fn fresh_xmm(&mut self) -> u32 {
        self.next_xmm += 1;
        self.next_xmm - 1
    }

    fn emit(&mut self, i: VInst) {
        self.out.push(i);
    }

    /// Runs only the lowering analyses and reports which instructions
    /// disappear into other instructions' operands (for the §VII
    /// calibration heuristics in `fiq-core`).
    pub(crate) fn analysis_only(mut self) -> (Vec<bool>, Vec<bool>) {
        self.analyze_fusion();
        self.analyze_gep_folding();
        self.analyze_load_folding();
        let n = self.func.insts.len();
        let mut folded_geps = vec![false; n];
        for id in self.folded.keys() {
            folded_geps[id.index()] = true;
        }
        let mut folded_loads = vec![false; n];
        for id in &self.folded_loads {
            folded_loads[id.index()] = true;
        }
        (folded_geps, folded_loads)
    }

    /// Runs selection, producing a [`VFunc`].
    pub(crate) fn run(mut self) -> Result<VFunc, LowerError> {
        self.analyze_fusion();
        self.analyze_gep_folding();
        self.analyze_load_folding();
        self.analyze_edge_splits();
        self.assign_vregs()?;

        let nblocks = self.func.blocks.len();
        let total = nblocks + self.edge_blocks.len();
        self.block_ranges = vec![(0, 0); total];
        let mut layout: Vec<u32> = Vec::with_capacity(total);
        for bb in 0..nblocks {
            let start = self.out.len();
            if bb == 0 {
                self.emit_arg_copies()?;
            }
            self.lower_block(bb as u32)?;
            self.block_ranges[bb] = (start, self.out.len());
            layout.push(bb as u32);
            // Lay each of this block's edge-split blocks out right after
            // it, keeping φ live ranges tight around the loop.
            let mut edges: Vec<(u32, u32)> = self
                .edge_blocks
                .iter()
                .filter(|((p, _), _)| *p == bb as u32)
                .map(|((_, s), id)| (*s, *id))
                .collect();
            edges.sort_by_key(|&(_, id)| id);
            for (succ, id) in edges {
                let s0 = self.out.len();
                let copies = self.collect_phi_copies(bb as u32, succ);
                self.emit_parallel_copies(copies)?;
                self.emit(VInst::JmpBlock { target: succ });
                self.block_ranges[id as usize] = (s0, self.out.len());
                layout.push(id);
            }
        }
        Ok(VFunc {
            insts: self.out,
            block_ranges: self.block_ranges,
            layout,
            int_vregs: self.next_int,
            xmm_vregs: self.next_xmm,
            slots: self.slots,
            clobbers: self.clobbers,
        })
    }

    /// Allocates a synthetic block for every conditional edge into a block
    /// with φ-nodes (classic critical-edge splitting).
    fn analyze_edge_splits(&mut self) {
        let nblocks = self.func.blocks.len() as u32;
        let mut next = nblocks;
        for bb in self.func.block_ids() {
            let Some(term) = self.func.block(bb).terminator() else {
                continue;
            };
            let InstKind::CondBr {
                then_bb, else_bb, ..
            } = self.func.inst(term).kind
            else {
                continue;
            };
            for succ in [then_bb.0, else_bb.0] {
                if self.edge_blocks.contains_key(&(bb.0, succ)) {
                    continue;
                }
                let has_phi = self
                    .func
                    .block(fiq_ir::BlockId(succ))
                    .insts
                    .first()
                    .is_some_and(|&i| matches!(self.func.inst(i).kind, InstKind::Phi { .. }));
                if has_phi {
                    self.edge_blocks.insert((bb.0, succ), next);
                    next += 1;
                }
            }
        }
    }

    /// The φ copies required on edge `pred → succ` (self-copies skipped).
    fn collect_phi_copies(&self, pred: u32, succ: u32) -> Vec<(InstId, Value)> {
        let mut out = Vec::new();
        for &pid in &self.func.block(fiq_ir::BlockId(succ)).insts {
            let InstKind::Phi { incomings } = &self.func.inst(pid).kind else {
                break;
            };
            if let Some((_, v)) = incomings.iter().find(|(pb, _)| pb.0 == pred) {
                if *v != Value::Inst(pid) {
                    out.push((pid, *v));
                }
            }
        }
        out
    }

    /// Finds `icmp`/`fcmp` instructions fusable into their block's
    /// conditional branch.
    fn analyze_fusion(&mut self) {
        let uses = self.func.use_counts();
        for bb in self.func.block_ids() {
            let insts = &self.func.block(bb).insts;
            let Some(&term) = insts.last() else { continue };
            let InstKind::CondBr { cond, .. } = &self.func.inst(term).kind else {
                continue;
            };
            let Value::Inst(cid) = cond else { continue };
            if !insts.contains(cid) {
                continue; // defined in another block
            }
            if uses[cid.index()] != 1 {
                continue;
            }
            if matches!(
                self.func.inst(*cid).kind,
                InstKind::ICmp { .. } | InstKind::FCmp { .. }
            ) {
                self.fused.insert(*cid);
            }
        }
    }

    /// Decides which GEPs fold into addressing modes.
    fn analyze_gep_folding(&mut self) {
        if !self.opts.fold_gep {
            return;
        }
        // Which instructions use each GEP, and how.
        let mut address_only: HashMap<InstId, bool> = HashMap::new();
        for bb in self.func.block_ids() {
            for &id in &self.func.block(bb).insts {
                let inst = self.func.inst(id);
                inst.for_each_operand(|v| {
                    if let Value::Inst(d) = v {
                        if matches!(self.func.inst(d).kind, InstKind::Gep { .. }) {
                            let ok = match &inst.kind {
                                InstKind::Load { ptr } => *ptr == v,
                                InstKind::Store { val, ptr } => *ptr == v && *val != v,
                                _ => false,
                            };
                            let e = address_only.entry(d).or_insert(true);
                            *e = *e && ok;
                        }
                    }
                });
            }
        }
        // Fold in definition order so chained GEPs can compose.
        for bb in self.func.block_ids() {
            for &id in &self.func.block(bb).insts {
                let InstKind::Gep {
                    elem_ty,
                    base,
                    indices,
                } = &self.func.inst(id).kind
                else {
                    continue;
                };
                if address_only.get(&id) != Some(&true) {
                    continue;
                }
                let base_form = match base {
                    Value::Inst(b) if self.folded.contains_key(b) => self.folded[b].clone(),
                    _ => FoldedGep {
                        base: *base,
                        var: None,
                        disp: 0,
                    },
                };
                if let Some(form) = try_fold(elem_ty, base_form, indices) {
                    self.folded.insert(id, form);
                }
            }
        }
    }

    /// Decides which loads fold into a consumer's memory operand
    /// (`add r, [mem]`, `addsd x, [mem]`, `cmp r, [mem]`, …) — x86's
    /// load-op compression, the reason IR-level `load` counts exceed
    /// assembly-level ones (paper §VI-C, libquantum).
    fn analyze_load_folding(&mut self) {
        let uses = self.func.use_counts();
        for bb in self.func.block_ids() {
            let insts = self.func.block(bb).insts.clone();
            for (upos, &uid) in insts.iter().enumerate() {
                let user = self.func.inst(uid);
                // The operand position that accepts a memory operand.
                let cand = match &user.kind {
                    InstKind::Binary { op, lhs, rhs } => {
                        // Only operations lowered as two-operand ALU/SSE
                        // forms take memory operands (division needs its
                        // operand in a register, shifts take rcx/imm);
                        // 64-bit loads only, since narrow ALU mem operands
                        // would need zero-extension done in registers.
                        let mem_capable = matches!(
                            op,
                            BinOp::Add
                                | BinOp::Sub
                                | BinOp::Mul
                                | BinOp::And
                                | BinOp::Or
                                | BinOp::Xor
                                | BinOp::FAdd
                                | BinOp::FSub
                                | BinOp::FMul
                                | BinOp::FDiv
                        );
                        if *lhs == *rhs || !mem_capable {
                            None
                        } else if op.is_float() || user.ty == Type::i64() {
                            Some(*rhs)
                        } else {
                            None
                        }
                    }
                    InstKind::ICmp { lhs, rhs, .. } if lhs != rhs => Some(*rhs),
                    InstKind::FCmp { pred, lhs, rhs } if lhs != rhs => match pred {
                        FCmpPred::Olt | FCmpPred::Ole => Some(*lhs), // swapped at emit
                        _ => Some(*rhs),
                    },
                    _ => None,
                };
                let Some(Value::Inst(lid)) = cand else {
                    continue;
                };
                let Some(lpos) = insts[..upos].iter().position(|&i| i == lid) else {
                    continue; // not in this block before the user
                };
                if !matches!(self.func.inst(lid).kind, InstKind::Load { .. }) {
                    continue;
                }
                // Loaded type must be 8 bytes (i64/f64/ptr) to match the
                // operand width of the consuming instruction.
                if self.func.inst(lid).ty.size() != 8 {
                    continue;
                }
                if uses[lid.index()] != 1 {
                    continue;
                }
                // Memory must not change between the load and its use.
                let clobbered = insts[lpos + 1..upos].iter().any(|&mid| {
                    matches!(
                        self.func.inst(mid).kind,
                        InstKind::Store { .. } | InstKind::Call { .. }
                    )
                });
                if !clobbered {
                    self.folded_loads.insert(lid);
                }
            }
        }
    }

    fn assign_vregs(&mut self) -> Result<(), LowerError> {
        for (i, p) in self.func.params.iter().enumerate() {
            match p {
                Type::Float(FloatTy::F64) => {
                    let v = self.fresh_xmm();
                    self.arg_xmm.insert(i as u32, v);
                }
                Type::Float(FloatTy::F32) => {
                    return Err(self.err("f32 parameters unsupported by backend"));
                }
                _ => {
                    let v = self.fresh_int();
                    self.arg_int.insert(i as u32, v);
                }
            }
        }
        for bb in self.func.block_ids() {
            for &id in &self.func.block(bb).insts {
                let inst = self.func.inst(id);
                if !inst.has_result()
                    || self.fused.contains(&id)
                    || self.folded.contains_key(&id)
                    || self.folded_loads.contains(&id)
                {
                    continue;
                }
                match &inst.ty {
                    Type::Float(FloatTy::F64) => {
                        let v = self.fresh_xmm();
                        self.xmm_map.insert(id, v);
                    }
                    Type::Float(FloatTy::F32) => {
                        return Err(self.err("f32 values unsupported by backend"));
                    }
                    _ => {
                        let v = self.fresh_int();
                        self.int_map.insert(id, v);
                    }
                }
            }
        }
        Ok(())
    }

    fn emit_arg_copies(&mut self) -> Result<(), LowerError> {
        let mut int_idx = 0usize;
        let mut xmm_idx = 0usize;
        let mut int_mask = 0u16;
        let mut xmm_mask = 0u16;
        let start = self.out.len();
        for (i, p) in self.func.params.clone().iter().enumerate() {
            if matches!(p, Type::Float(_)) {
                let Some(&src) = Xmm::ARGS.get(xmm_idx) else {
                    return Err(self.err("too many float parameters (max 8)"));
                };
                xmm_idx += 1;
                xmm_mask |= 1 << src.index();
                let dst = self.arg_xmm[&(i as u32)];
                self.emit(VInst::Movsd {
                    dst: VXOperand::Xmm(XV::V(dst)),
                    src: VXOperand::Xmm(XV::P(src)),
                });
            } else {
                let Some(&src) = Reg::ARGS.get(int_idx) else {
                    return Err(self.err("too many integer parameters (max 6)"));
                };
                int_idx += 1;
                int_mask |= 1 << src.index();
                let dst = self.arg_int[&(i as u32)];
                self.emit(VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(VR::V(dst)),
                    src: VOperand::Reg(VR::P(src)),
                });
            }
        }
        // Incoming argument registers are live from entry until copied out;
        // protect them from allocation over that range.
        if self.out.len() > start {
            self.clobbers
                .push((start, self.out.len() - 1, int_mask, xmm_mask));
        }
        Ok(())
    }

    // ---- value access -------------------------------------------------

    /// The int vreg holding `v`, materializing constants as needed.
    fn int_value(&mut self, v: Value) -> Result<VR, LowerError> {
        match self.int_operand(v)? {
            VOperand::Reg(r) => Ok(r),
            op => {
                let t = self.fresh_int();
                self.emit(VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(VR::V(t)),
                    src: op,
                });
                Ok(VR::V(t))
            }
        }
    }

    /// `v` as an int operand (constants stay immediates).
    fn int_operand(&mut self, v: Value) -> Result<VOperand, LowerError> {
        Ok(match v {
            Value::Inst(id) => {
                let Some(&vr) = self.int_map.get(&id) else {
                    return Err(self.err(format!("no int vreg for {id}")));
                };
                VOperand::Reg(VR::V(vr))
            }
            Value::Arg(n) => VOperand::Reg(VR::V(self.arg_int[&n])),
            Value::Const(c) => match c {
                // Narrow values are held zero-extended in registers (the
                // same canonical form `mask_narrow` maintains), so narrow
                // constants must materialize zero-extended too. Sign
                // extension here turned `true` into `-1`: stores of it
                // wrote 0xff, and `(int)true` printed -1 on the machine
                // while the interpreter printed 1.
                Constant::Int(t, raw) => VOperand::Imm(t.truncate(raw) as i64),
                Constant::Undef(_) => VOperand::Imm(0),
                Constant::NullPtr => VOperand::Imm(0),
                Constant::Global(g) => VOperand::Imm(self.global_addrs[g.index()] as i64),
                Constant::Func(_) => {
                    return Err(self.err("function pointers unsupported by backend"))
                }
                Constant::Float(..) => return Err(self.err("float constant in int context")),
            },
        })
    }

    /// `v` as the memory-capable right operand of an integer instruction:
    /// a folded load becomes its addressing mode.
    fn int_rhs(&mut self, v: Value) -> Result<VOperand, LowerError> {
        if let Value::Inst(id) = v {
            if self.folded_loads.contains(&id) {
                let InstKind::Load { ptr } = self.func.inst(id).kind else {
                    unreachable!("folded_loads only holds loads");
                };
                return Ok(VOperand::Mem(self.mem_for_ptr(ptr)?));
            }
        }
        self.int_operand(v)
    }

    /// `v` as the memory-capable right operand of an SSE instruction.
    fn xmm_rhs(&mut self, v: Value) -> Result<VXOperand, LowerError> {
        if let Value::Inst(id) = v {
            if self.folded_loads.contains(&id) {
                let InstKind::Load { ptr } = self.func.inst(id).kind else {
                    unreachable!("folded_loads only holds loads");
                };
                return Ok(VXOperand::Mem(self.mem_for_ptr(ptr)?));
            }
        }
        Ok(VXOperand::Xmm(self.xmm_value(v)?))
    }

    /// The xmm vreg holding `v`, materializing constants via `movq`.
    fn xmm_value(&mut self, v: Value) -> Result<XV, LowerError> {
        Ok(match v {
            Value::Inst(id) => {
                let Some(&vr) = self.xmm_map.get(&id) else {
                    return Err(self.err(format!("no xmm vreg for {id}")));
                };
                XV::V(vr)
            }
            Value::Arg(n) => XV::V(self.arg_xmm[&n]),
            Value::Const(Constant::Float(FloatTy::F64, bits)) => {
                let addr = self.fconst[&bits];
                let x = self.fresh_xmm();
                self.emit(VInst::Movsd {
                    dst: VXOperand::Xmm(XV::V(x)),
                    src: VXOperand::Mem(VMem::absolute(addr)),
                });
                XV::V(x)
            }
            other => return Err(self.err(format!("bad float value {other}"))),
        })
    }

    /// Builds the addressing mode for a pointer value used by a
    /// load/store: a folded GEP, a global, or a plain register base.
    fn mem_for_ptr(&mut self, ptr: Value) -> Result<VMem, LowerError> {
        if let Value::Inst(id) = ptr {
            if let Some(form) = self.folded.get(&id).cloned() {
                let (base, base_disp) = match form.base {
                    Value::Const(Constant::Global(g)) => {
                        (None, self.global_addrs[g.index()] as i64)
                    }
                    Value::Const(Constant::NullPtr) => (None, 0),
                    other => (Some(self.int_value(other)?), 0),
                };
                let index = match form.var {
                    Some((v, scale)) => Some((self.int_value(v)?, scale)),
                    None => None,
                };
                return Ok(VMem {
                    base,
                    index: index.map(|(r, _)| r),
                    scale: index.map_or(1, |(_, s)| s),
                    disp: base_disp.wrapping_add(form.disp),
                });
            }
        }
        if let Value::Const(Constant::Global(g)) = ptr {
            return Ok(VMem::absolute(self.global_addrs[g.index()]));
        }
        if let Value::Const(Constant::NullPtr) = ptr {
            return Ok(VMem::absolute(0));
        }
        Ok(VMem::base_only(self.int_value(ptr)?))
    }

    // ---- block lowering -------------------------------------------------

    fn lower_block(&mut self, bb: u32) -> Result<(), LowerError> {
        let insts = self.func.block(fiq_ir::BlockId(bb)).insts.clone();
        for &id in &insts {
            if self.fused.contains(&id) {
                continue; // emitted as cmp+jcc at the terminator
            }
            if self.folded_loads.contains(&id) {
                continue; // compressed into the consumer's memory operand
            }
            let inst = self.func.inst(id).clone();
            match &inst.kind {
                InstKind::Phi { .. } => {}
                InstKind::Br { .. } | InstKind::CondBr { .. } => {
                    self.lower_terminator(bb, &inst.kind)?;
                }
                InstKind::Ret { val } => {
                    if let Some(v) = val {
                        match self.func.ret {
                            Type::Float(FloatTy::F64) => {
                                let x = self.xmm_value(*v)?;
                                self.emit(VInst::Movsd {
                                    dst: VXOperand::Xmm(XV::P(Xmm(0))),
                                    src: VXOperand::Xmm(x),
                                });
                            }
                            _ => {
                                let op = self.int_operand(*v)?;
                                self.emit(VInst::Mov {
                                    width: Width::B8,
                                    dst: VOperand::Reg(VR::P(Reg::Rax)),
                                    src: op,
                                });
                            }
                        }
                    }
                    self.emit(VInst::Ret);
                }
                InstKind::Unreachable => self.emit(VInst::TrapJmp),
                _ => self.lower_inst(id, &inst)?,
            }
        }
        Ok(())
    }

    /// Emits a parallel-copy batch `φ_i ← v_i` where some `v_i` may be
    /// other φs of the same batch. Copies are ordered so a destination is
    /// written only after every batch member that reads it; cycles (swap
    /// patterns) are broken by saving one value to a fresh temporary.
    fn emit_parallel_copies(&mut self, pending: Vec<(InstId, Value)>) -> Result<(), LowerError> {
        /// A copy source: an ordinary IR value, or a saved temporary.
        #[derive(Clone, Copy, PartialEq)]
        enum Src {
            Val(Value),
            IntTmp(u32),
            XmmTmp(u32),
        }
        let mut pending: Vec<(InstId, Src)> =
            pending.into_iter().map(|(d, v)| (d, Src::Val(v))).collect();
        while !pending.is_empty() {
            // A copy is safe when no *other* pending copy reads its dst.
            let safe = pending.iter().position(|&(dst, _)| {
                !pending
                    .iter()
                    .any(|&(other, src)| other != dst && src == Src::Val(Value::Inst(dst)))
            });
            let idx = match safe {
                Some(i) => i,
                None => {
                    // Cycle: save the first dst's current value to a fresh
                    // temporary and redirect its readers there.
                    let (dst, _) = pending[0];
                    let tmp_src = if let Some(&vr) = self.int_map.get(&dst) {
                        let t = self.fresh_int();
                        self.emit(VInst::Mov {
                            width: Width::B8,
                            dst: VOperand::Reg(VR::V(t)),
                            src: VOperand::Reg(VR::V(vr)),
                        });
                        Src::IntTmp(t)
                    } else {
                        let t = self.fresh_xmm();
                        self.emit(VInst::Movsd {
                            dst: VXOperand::Xmm(XV::V(t)),
                            src: VXOperand::Xmm(XV::V(self.xmm_map[&dst])),
                        });
                        Src::XmmTmp(t)
                    };
                    for (_, src) in &mut pending {
                        if *src == Src::Val(Value::Inst(dst)) {
                            *src = tmp_src;
                        }
                    }
                    continue;
                }
            };
            let (dst, src) = pending.remove(idx);
            if let Some(&vr) = self.int_map.get(&dst) {
                let op = match src {
                    Src::Val(v) => self.int_operand(v)?,
                    Src::IntTmp(t) => VOperand::Reg(VR::V(t)),
                    Src::XmmTmp(_) => unreachable!("int phi with xmm source"),
                };
                self.emit(VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(VR::V(vr)),
                    src: op,
                });
            } else {
                let x = match src {
                    Src::Val(v) => VXOperand::Xmm(self.xmm_value(v)?),
                    Src::XmmTmp(t) => VXOperand::Xmm(XV::V(t)),
                    Src::IntTmp(_) => unreachable!("xmm phi with int source"),
                };
                self.emit(VInst::Movsd {
                    dst: VXOperand::Xmm(XV::V(self.xmm_map[&dst])),
                    src: x,
                });
            }
        }
        Ok(())
    }

    fn lower_terminator(&mut self, bb: u32, term: &InstKind) -> Result<(), LowerError> {
        match term {
            InstKind::Br { target } => {
                // Unconditional edges carry their φ copies inline.
                let copies = self.collect_phi_copies(bb, target.0);
                self.emit_parallel_copies(copies)?;
                self.emit(VInst::JmpBlock { target: target.0 });
                Ok(())
            }
            InstKind::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                // Conditional edges into φ-blocks are routed through their
                // split blocks, which hold the copies.
                let then_b = self
                    .edge_blocks
                    .get(&(bb, then_bb.0))
                    .copied()
                    .unwrap_or(then_bb.0);
                let else_b = self
                    .edge_blocks
                    .get(&(bb, else_bb.0))
                    .copied()
                    .unwrap_or(else_bb.0);
                if let Value::Inst(cid) = cond {
                    if self.fused.contains(cid) {
                        let ck = self.func.inst(*cid).kind.clone();
                        return self.emit_fused_branch(&ck, then_b, else_b);
                    }
                }
                let c = self.int_value(*cond)?;
                self.emit(VInst::Test {
                    lhs: VOperand::Reg(c),
                    rhs: VOperand::Reg(c),
                });
                self.emit(VInst::JccBlock {
                    cond: Cond::Ne,
                    target: then_b,
                });
                self.emit(VInst::JmpBlock { target: else_b });
                Ok(())
            }
            _ => unreachable!(),
        }
    }

    fn emit_fused_branch(
        &mut self,
        cmp: &InstKind,
        then_b: u32,
        else_b: u32,
    ) -> Result<(), LowerError> {
        match cmp {
            InstKind::ICmp { pred, lhs, rhs } => {
                let l = self.int_operand(*lhs)?;
                let r = self.int_rhs(*rhs)?;
                // `cmp` needs at least one register operand to be
                // realistic; constants were folded earlier anyway.
                let l = match (l, r) {
                    (VOperand::Imm(_), VOperand::Imm(_)) => {
                        let t = self.fresh_int();
                        self.emit(VInst::Mov {
                            width: Width::B8,
                            dst: VOperand::Reg(VR::V(t)),
                            src: l,
                        });
                        VOperand::Reg(VR::V(t))
                    }
                    _ => l,
                };
                self.emit(VInst::Cmp { lhs: l, rhs: r });
                self.emit(VInst::JccBlock {
                    cond: icmp_cond(*pred),
                    target: then_b,
                });
                self.emit(VInst::JmpBlock { target: else_b });
            }
            InstKind::FCmp { pred, lhs, rhs } => {
                match pred {
                    FCmpPred::Ogt | FCmpPred::Oge => {
                        let a = self.xmm_value(*lhs)?;
                        let b = self.xmm_rhs(*rhs)?;
                        self.emit(VInst::Ucomisd { lhs: a, rhs: b });
                        let c = if *pred == FCmpPred::Ogt {
                            Cond::A
                        } else {
                            Cond::Ae
                        };
                        self.emit(VInst::JccBlock {
                            cond: c,
                            target: then_b,
                        });
                        self.emit(VInst::JmpBlock { target: else_b });
                    }
                    FCmpPred::Olt | FCmpPred::Ole => {
                        // Swap operands so "above" answers the question and
                        // NaN (which sets CF) falls through to else.
                        let b = self.xmm_value(*rhs)?;
                        let a = self.xmm_rhs(*lhs)?;
                        self.emit(VInst::Ucomisd { lhs: b, rhs: a });
                        let c = if *pred == FCmpPred::Olt {
                            Cond::A
                        } else {
                            Cond::Ae
                        };
                        self.emit(VInst::JccBlock {
                            cond: c,
                            target: then_b,
                        });
                        self.emit(VInst::JmpBlock { target: else_b });
                    }
                    FCmpPred::Oeq => {
                        // Equal and ordered: jp else; je then; jmp else.
                        let a = self.xmm_value(*lhs)?;
                        let b = self.xmm_rhs(*rhs)?;
                        self.emit(VInst::Ucomisd { lhs: a, rhs: b });
                        self.emit(VInst::JccBlock {
                            cond: Cond::P,
                            target: else_b,
                        });
                        self.emit(VInst::JccBlock {
                            cond: Cond::E,
                            target: then_b,
                        });
                        self.emit(VInst::JmpBlock { target: else_b });
                    }
                    FCmpPred::One => {
                        // NaN counts as "not equal" (C `!=` semantics).
                        let a = self.xmm_value(*lhs)?;
                        let b = self.xmm_rhs(*rhs)?;
                        self.emit(VInst::Ucomisd { lhs: a, rhs: b });
                        self.emit(VInst::JccBlock {
                            cond: Cond::P,
                            target: then_b,
                        });
                        self.emit(VInst::JccBlock {
                            cond: Cond::Ne,
                            target: then_b,
                        });
                        self.emit(VInst::JmpBlock { target: else_b });
                    }
                }
            }
            _ => unreachable!("fused set only holds comparisons"),
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn lower_inst(&mut self, id: InstId, inst: &fiq_ir::Inst) -> Result<(), LowerError> {
        match &inst.kind {
            InstKind::Binary { op, lhs, rhs } => {
                if op.is_float() {
                    let dst = XV::V(self.xmm_map[&id]);
                    let a = self.xmm_value(*lhs)?;
                    self.emit(VInst::Movsd {
                        dst: VXOperand::Xmm(dst),
                        src: VXOperand::Xmm(a),
                    });
                    let b = self.xmm_rhs(*rhs)?;
                    let sse = match op {
                        BinOp::FAdd => SseOp::Addsd,
                        BinOp::FSub => SseOp::Subsd,
                        BinOp::FMul => SseOp::Mulsd,
                        BinOp::FDiv => SseOp::Divsd,
                        _ => unreachable!(),
                    };
                    self.emit(VInst::Sse {
                        op: sse,
                        dst,
                        src: b,
                    });
                    return Ok(());
                }
                let dst = VR::V(self.int_map[&id]);
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor => {
                        let a = self.int_operand(*lhs)?;
                        let b = self.int_rhs(*rhs)?;
                        self.emit(VInst::Mov {
                            width: Width::B8,
                            dst: VOperand::Reg(dst),
                            src: a,
                        });
                        let alu = match op {
                            BinOp::Add => AluOp::Add,
                            BinOp::Sub => AluOp::Sub,
                            BinOp::Mul => AluOp::Imul,
                            BinOp::And => AluOp::And,
                            BinOp::Or => AluOp::Or,
                            BinOp::Xor => AluOp::Xor,
                            _ => unreachable!(),
                        };
                        self.emit(VInst::Alu {
                            op: alu,
                            dst,
                            src: b,
                        });
                        self.mask_narrow(dst, &inst.ty);
                    }
                    BinOp::SDiv | BinOp::SRem => {
                        // rhs first (may materialize a constant).
                        let divisor = self.int_value(*rhs)?;
                        let a = self.int_operand(*lhs)?;
                        let start = self.out.len();
                        self.emit(VInst::Mov {
                            width: Width::B8,
                            dst: VOperand::Reg(VR::P(Reg::Rax)),
                            src: a,
                        });
                        self.emit(VInst::Cqo);
                        self.emit(VInst::Idiv { src: divisor });
                        let res = if *op == BinOp::SDiv {
                            Reg::Rax
                        } else {
                            Reg::Rdx
                        };
                        self.emit(VInst::Mov {
                            width: Width::B8,
                            dst: VOperand::Reg(dst),
                            src: VOperand::Reg(VR::P(res)),
                        });
                        let mask = (1u16 << Reg::Rax.index()) | (1u16 << Reg::Rdx.index());
                        self.clobbers.push((start, self.out.len() - 1, mask, 0));
                    }
                    BinOp::UDiv | BinOp::URem => {
                        return Err(self.err("unsigned division unsupported by backend"));
                    }
                    BinOp::Shl | BinOp::LShr | BinOp::AShr => {
                        let a = self.int_operand(*lhs)?;
                        self.emit(VInst::Mov {
                            width: Width::B8,
                            dst: VOperand::Reg(dst),
                            src: a,
                        });
                        let sh = match op {
                            BinOp::Shl => ShiftOp::Shl,
                            BinOp::LShr => ShiftOp::Shr,
                            BinOp::AShr => ShiftOp::Sar,
                            _ => unreachable!(),
                        };
                        match self.int_operand(*rhs)? {
                            VOperand::Imm(c) => {
                                self.emit(VInst::Shift {
                                    op: sh,
                                    dst,
                                    src: VOperand::Imm(c),
                                });
                            }
                            count => {
                                let start = self.out.len();
                                self.emit(VInst::Mov {
                                    width: Width::B8,
                                    dst: VOperand::Reg(VR::P(Reg::Rcx)),
                                    src: count,
                                });
                                self.emit(VInst::Shift {
                                    op: sh,
                                    dst,
                                    src: VOperand::Reg(VR::P(Reg::Rcx)),
                                });
                                let mask = 1u16 << Reg::Rcx.index();
                                self.clobbers.push((start, self.out.len() - 1, mask, 0));
                            }
                        }
                        self.mask_narrow(dst, &inst.ty);
                    }
                    _ => unreachable!(),
                }
            }
            InstKind::ICmp { pred, lhs, rhs } => {
                let dst = VR::V(self.int_map[&id]);
                let l = self.int_operand(*lhs)?;
                let r = self.int_rhs(*rhs)?;
                self.emit(VInst::Cmp { lhs: l, rhs: r });
                self.emit(VInst::Setcc {
                    cond: icmp_cond(*pred),
                    dst,
                });
            }
            InstKind::FCmp { pred, lhs, rhs } => {
                let dst = VR::V(self.int_map[&id]);
                match pred {
                    FCmpPred::Ogt | FCmpPred::Oge => {
                        let a = self.xmm_value(*lhs)?;
                        let b = self.xmm_rhs(*rhs)?;
                        self.emit(VInst::Ucomisd { lhs: a, rhs: b });
                        let c = if *pred == FCmpPred::Ogt {
                            Cond::A
                        } else {
                            Cond::Ae
                        };
                        self.emit(VInst::Setcc { cond: c, dst });
                    }
                    FCmpPred::Olt | FCmpPred::Ole => {
                        let b = self.xmm_value(*rhs)?;
                        let a = self.xmm_rhs(*lhs)?;
                        self.emit(VInst::Ucomisd { lhs: b, rhs: a });
                        let c = if *pred == FCmpPred::Olt {
                            Cond::A
                        } else {
                            Cond::Ae
                        };
                        self.emit(VInst::Setcc { cond: c, dst });
                    }
                    FCmpPred::Oeq => {
                        let a = self.xmm_value(*lhs)?;
                        let b = self.xmm_rhs(*rhs)?;
                        self.emit(VInst::Ucomisd { lhs: a, rhs: b });
                        let t = self.fresh_int();
                        self.emit(VInst::Setcc {
                            cond: Cond::Np,
                            dst: VR::V(t),
                        });
                        self.emit(VInst::Setcc { cond: Cond::E, dst });
                        self.emit(VInst::Alu {
                            op: AluOp::And,
                            dst,
                            src: VOperand::Reg(VR::V(t)),
                        });
                    }
                    FCmpPred::One => {
                        let a = self.xmm_value(*lhs)?;
                        let b = self.xmm_rhs(*rhs)?;
                        self.emit(VInst::Ucomisd { lhs: a, rhs: b });
                        let t = self.fresh_int();
                        self.emit(VInst::Setcc {
                            cond: Cond::P,
                            dst: VR::V(t),
                        });
                        self.emit(VInst::Setcc {
                            cond: Cond::Ne,
                            dst,
                        });
                        self.emit(VInst::Alu {
                            op: AluOp::Or,
                            dst,
                            src: VOperand::Reg(VR::V(t)),
                        });
                    }
                }
            }
            InstKind::Cast { op, val } => self.lower_cast(id, *op, *val, &inst.ty)?,
            InstKind::Alloca { ty } => {
                let slot = self.slots.len() as u32;
                self.slots.push(FrameSlot {
                    size: ty.size().max(1),
                    align: ty.align().clamp(1, 16),
                });
                self.alloca_slot.insert(id, slot);
                let dst = VR::V(self.int_map[&id]);
                self.emit(VInst::LeaFrame { dst, slot });
            }
            InstKind::Load { ptr } => {
                let mem = self.mem_for_ptr(*ptr)?;
                match &inst.ty {
                    Type::Float(FloatTy::F64) => {
                        let dst = XV::V(self.xmm_map[&id]);
                        self.emit(VInst::Movsd {
                            dst: VXOperand::Xmm(dst),
                            src: VXOperand::Mem(mem),
                        });
                    }
                    Type::Float(FloatTy::F32) => {
                        return Err(self.err("f32 loads unsupported by backend"));
                    }
                    ty => {
                        let dst = VR::V(self.int_map[&id]);
                        self.emit(VInst::Mov {
                            width: type_width(ty),
                            dst: VOperand::Reg(dst),
                            src: VOperand::Mem(mem),
                        });
                    }
                }
            }
            InstKind::Store { val, ptr } => {
                let mem = self.mem_for_ptr(*ptr)?;
                match value_type(self.func, *val) {
                    Type::Float(FloatTy::F64) => {
                        let x = self.xmm_value(*val)?;
                        self.emit(VInst::Movsd {
                            dst: VXOperand::Mem(mem),
                            src: VXOperand::Xmm(x),
                        });
                    }
                    Type::Float(FloatTy::F32) => {
                        return Err(self.err("f32 stores unsupported by backend"));
                    }
                    ty => {
                        let src = self.int_operand(*val)?;
                        self.emit(VInst::Mov {
                            width: type_width(&ty),
                            dst: VOperand::Mem(mem),
                            src,
                        });
                    }
                }
            }
            InstKind::Gep {
                elem_ty,
                base,
                indices,
            } => {
                if self.folded.contains_key(&id) {
                    return Ok(()); // compressed into the consumers' addressing modes
                }
                self.lower_gep_arithmetic(id, elem_ty, *base, indices)?;
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => {
                // Branch-free integer select: dst = else + c*(then-else).
                if matches!(inst.ty, Type::Float(_)) {
                    return Err(self.err("float select unsupported by backend"));
                }
                let dst = VR::V(self.int_map[&id]);
                let c = self.int_value(*cond)?;
                let t_op = self.int_operand(*then_val)?;
                let e_op = self.int_operand(*else_val)?;
                let tmp = VR::V(self.fresh_int());
                self.emit(VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(tmp),
                    src: t_op,
                });
                self.emit(VInst::Alu {
                    op: AluOp::Sub,
                    dst: tmp,
                    src: e_op,
                });
                self.emit(VInst::Alu {
                    op: AluOp::Imul,
                    dst: tmp,
                    src: VOperand::Reg(c),
                });
                self.emit(VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(dst),
                    src: e_op,
                });
                self.emit(VInst::Alu {
                    op: AluOp::Add,
                    dst,
                    src: VOperand::Reg(tmp),
                });
            }
            InstKind::Call { callee, args } => self.lower_call(id, inst, *callee, args)?,
            _ => unreachable!("terminators handled by caller"),
        }
        Ok(())
    }

    /// Explicit GEP arithmetic: the paper's "set of add and multiply
    /// instructions that computes the address".
    fn lower_gep_arithmetic(
        &mut self,
        id: InstId,
        elem_ty: &Type,
        base: Value,
        indices: &[Value],
    ) -> Result<(), LowerError> {
        let dst = VR::V(self.int_map[&id]);
        let base_op = self.int_operand(base)?;
        self.emit(VInst::Mov {
            width: Width::B8,
            dst: VOperand::Reg(dst),
            src: base_op,
        });
        let mut const_disp: i64 = 0;
        let mut cur = elem_ty.clone();
        for (i, idx) in indices.iter().enumerate() {
            let stride = if i == 0 {
                cur.size()
            } else {
                match cur.clone() {
                    Type::Array(elem, _) => {
                        let s = elem.size();
                        cur = *elem;
                        s
                    }
                    Type::Struct(fields) => {
                        // Struct steps are constant (verified).
                        let Some(Constant::Int(_, raw)) = idx.as_const() else {
                            return Err(self.err("non-constant struct gep index"));
                        };
                        let off = cur.struct_field_offset(raw as usize);
                        const_disp = const_disp.wrapping_add(off as i64);
                        cur = fields[raw as usize].clone();
                        continue;
                    }
                    other => return Err(self.err(format!("gep into {other}"))),
                }
            };
            // Constant indices fold into the displacement. Indices are
            // *signed*, so narrow constants sign-extend here even though
            // `int_operand` hands them out zero-extended.
            if let Some(Constant::Int(t, raw)) = idx.as_const() {
                const_disp = const_disp.wrapping_add(t.sext(raw).wrapping_mul(stride as i64));
                continue;
            }
            match self.int_operand(*idx)? {
                VOperand::Imm(c) => {
                    const_disp = const_disp.wrapping_add(c.wrapping_mul(stride as i64));
                }
                idx_op => {
                    let t = VR::V(self.fresh_int());
                    self.emit(VInst::Mov {
                        width: Width::B8,
                        dst: VOperand::Reg(t),
                        src: idx_op,
                    });
                    if stride != 1 {
                        self.emit(VInst::Alu {
                            op: AluOp::Imul,
                            dst: t,
                            src: VOperand::Imm(stride as i64),
                        });
                    }
                    self.emit(VInst::Alu {
                        op: AluOp::Add,
                        dst,
                        src: VOperand::Reg(t),
                    });
                }
            }
        }
        if const_disp != 0 {
            self.emit(VInst::Alu {
                op: AluOp::Add,
                dst,
                src: VOperand::Imm(const_disp),
            });
        }
        Ok(())
    }

    fn lower_cast(
        &mut self,
        id: InstId,
        op: CastOp,
        val: Value,
        to: &Type,
    ) -> Result<(), LowerError> {
        match op {
            CastOp::ZExt | CastOp::PtrToInt | CastOp::IntToPtr => {
                // Narrow values are held zero-extended, so these are moves.
                let dst = VR::V(self.int_map[&id]);
                let src = self.int_operand(val)?;
                self.emit(VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(dst),
                    src,
                });
            }
            CastOp::SExt => {
                let dst = VR::V(self.int_map[&id]);
                let from = value_type(self.func, val);
                let w = type_width(&from);
                let src = self.int_operand(val)?;
                if from.as_int() == Some(IntTy::I1) {
                    // movsx has no 1-bit form: sign extend via neg trick
                    // (0 → 0, 1 → -1).
                    self.emit(VInst::Mov {
                        width: Width::B8,
                        dst: VOperand::Reg(dst),
                        src,
                    });
                    self.emit(VInst::Neg { dst });
                } else {
                    self.emit(VInst::Movsx { width: w, dst, src });
                }
            }
            CastOp::Trunc => {
                let dst = VR::V(self.int_map[&id]);
                let src = self.int_operand(val)?;
                self.emit(VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(dst),
                    src,
                });
                self.mask_narrow(dst, to);
            }
            CastOp::SiToFp => {
                let dst = XV::V(self.xmm_map[&id]);
                let src = self.int_operand(val)?;
                self.emit(VInst::Cvtsi2sd { dst, src });
            }
            CastOp::FpToSi => {
                let dst = VR::V(self.int_map[&id]);
                let src = self.xmm_value(val)?;
                self.emit(VInst::Cvttsd2si {
                    dst,
                    src: VXOperand::Xmm(src),
                });
                self.mask_narrow(dst, to);
            }
            CastOp::Bitcast => match (value_type(self.func, val), to) {
                (Type::Float(FloatTy::F64), t) if !t.is_float() => {
                    let dst = VR::V(self.int_map[&id]);
                    let src = self.xmm_value(val)?;
                    self.emit(VInst::MovqXR { dst, src });
                }
                (from, Type::Float(FloatTy::F64)) if !from.is_float() => {
                    let dst = XV::V(self.xmm_map[&id]);
                    let src = self.int_value(val)?;
                    self.emit(VInst::MovqRX { dst, src });
                }
                _ => {
                    let dst = VR::V(self.int_map[&id]);
                    let src = self.int_operand(val)?;
                    self.emit(VInst::Mov {
                        width: Width::B8,
                        dst: VOperand::Reg(dst),
                        src,
                    });
                }
            },
            CastOp::FpTrunc | CastOp::FpExt => {
                return Err(self.err("f32 conversions unsupported by backend"));
            }
        }
        Ok(())
    }

    /// Keeps the canonical zero-extended representation of narrow integer
    /// results (`and dst, mask`), so register values compare equal across
    /// the two execution levels.
    fn mask_narrow(&mut self, dst: VR, ty: &Type) {
        if let Some(t) = ty.as_int() {
            if t != IntTy::I64 {
                self.emit(VInst::Alu {
                    op: AluOp::And,
                    dst,
                    src: VOperand::Imm(t.mask() as i64),
                });
            }
        }
    }

    fn lower_call(
        &mut self,
        id: InstId,
        inst: &fiq_ir::Inst,
        callee: Callee,
        args: &[Value],
    ) -> Result<(), LowerError> {
        // sqrt and fabs are single instructions on x86 (sqrtsd; andpd with
        // a sign mask), not library calls — lowering them inline keeps XMM
        // values alive across them instead of forcing caller-save spills.
        if let Callee::Intrinsic(Intrinsic::Sqrt) = callee {
            let dst = XV::V(self.xmm_map[&id]);
            let src = self.xmm_rhs(args[0])?;
            self.emit(VInst::Sse {
                op: SseOp::Sqrtsd,
                dst,
                src,
            });
            return Ok(());
        }
        if let Callee::Intrinsic(Intrinsic::Fabs) = callee {
            // Clear the sign bit through the integer unit (movq/shl/shr).
            let dst = XV::V(self.xmm_map[&id]);
            let src = self.xmm_value(args[0])?;
            let t = VR::V(self.fresh_int());
            self.emit(VInst::MovqXR { dst: t, src });
            self.emit(VInst::Shift {
                op: ShiftOp::Shl,
                dst: t,
                src: VOperand::Imm(1),
            });
            self.emit(VInst::Shift {
                op: ShiftOp::Shr,
                dst: t,
                src: VOperand::Imm(1),
            });
            self.emit(VInst::MovqRX { dst, src: t });
            return Ok(());
        }
        // Compute argument operands (may emit constant materialization)
        // *before* the clobber region starts.
        enum ArgVal {
            Int(VOperand),
            F64(XV),
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            match value_type(self.func, *a) {
                Type::Float(FloatTy::F64) => vals.push(ArgVal::F64(self.xmm_value(*a)?)),
                Type::Float(FloatTy::F32) => {
                    return Err(self.err("f32 arguments unsupported by backend"))
                }
                _ => vals.push(ArgVal::Int(self.int_operand(*a)?)),
            }
        }
        let start = self.out.len();
        let mut int_i = 0usize;
        let mut xmm_i = 0usize;
        for v in &vals {
            match v {
                ArgVal::Int(op) => {
                    let Some(&r) = Reg::ARGS.get(int_i) else {
                        return Err(self.err("too many integer call arguments (max 6)"));
                    };
                    int_i += 1;
                    self.emit(VInst::Mov {
                        width: Width::B8,
                        dst: VOperand::Reg(VR::P(r)),
                        src: *op,
                    });
                }
                ArgVal::F64(x) => {
                    let Some(&r) = Xmm::ARGS.get(xmm_i) else {
                        return Err(self.err("too many float call arguments (max 8)"));
                    };
                    xmm_i += 1;
                    self.emit(VInst::Movsd {
                        dst: VXOperand::Xmm(XV::P(r)),
                        src: VXOperand::Xmm(*x),
                    });
                }
            }
        }
        match callee {
            Callee::Func(fid) => self.emit(VInst::Call { func: fid.0 }),
            Callee::Intrinsic(i) => self.emit(VInst::CallExt {
                ext: intrinsic_ext(i),
            }),
        }
        // Copy out the result.
        if inst.has_result() {
            match &inst.ty {
                Type::Float(FloatTy::F64) => {
                    let dst = XV::V(self.xmm_map[&id]);
                    self.emit(VInst::Movsd {
                        dst: VXOperand::Xmm(dst),
                        src: VXOperand::Xmm(XV::P(Xmm(0))),
                    });
                }
                Type::Float(FloatTy::F32) => {
                    return Err(self.err("f32 results unsupported by backend"))
                }
                _ => {
                    let dst = VR::V(self.int_map[&id]);
                    self.emit(VInst::Mov {
                        width: Width::B8,
                        dst: VOperand::Reg(dst),
                        src: VOperand::Reg(VR::P(Reg::Rax)),
                    });
                }
            }
        }
        self.clobbers
            .push((start, self.out.len() - 1, caller_saved_mask(), 0xFFFF));
        let _ = self.module;
        Ok(())
    }
}

fn try_fold(elem_ty: &Type, mut form: FoldedGep, indices: &[Value]) -> Option<FoldedGep> {
    let mut cur = elem_ty.clone();
    for (i, idx) in indices.iter().enumerate() {
        let stride = if i == 0 {
            cur.size()
        } else {
            match cur.clone() {
                Type::Array(elem, _) => {
                    let s = elem.size();
                    cur = *elem;
                    s
                }
                Type::Struct(fields) => {
                    let Some(Constant::Int(_, raw)) = idx.as_const() else {
                        return None;
                    };
                    form.disp = form
                        .disp
                        .wrapping_add(cur.struct_field_offset(raw as usize) as i64);
                    cur = fields[raw as usize].clone();
                    continue;
                }
                _ => return None,
            }
        };
        match idx.as_const() {
            Some(Constant::Int(t, raw)) => {
                form.disp = form
                    .disp
                    .wrapping_add(t.sext(raw).wrapping_mul(stride as i64));
            }
            Some(_) => return None,
            None => {
                if form.var.is_some() || !matches!(stride, 1 | 2 | 4 | 8) {
                    return None;
                }
                form.var = Some((*idx, stride as u8));
            }
        }
    }
    Some(form)
}

fn icmp_cond(pred: ICmpPred) -> Cond {
    match pred {
        ICmpPred::Eq => Cond::E,
        ICmpPred::Ne => Cond::Ne,
        ICmpPred::Slt => Cond::L,
        ICmpPred::Sle => Cond::Le,
        ICmpPred::Sgt => Cond::G,
        ICmpPred::Sge => Cond::Ge,
        ICmpPred::Ult => Cond::B,
        ICmpPred::Ule => Cond::Be,
        ICmpPred::Ugt => Cond::A,
        ICmpPred::Uge => Cond::Ae,
    }
}

fn intrinsic_ext(i: Intrinsic) -> ExtFn {
    match i {
        Intrinsic::PrintI64 => ExtFn::PrintI64,
        Intrinsic::PrintF64 => ExtFn::PrintF64,
        Intrinsic::PrintChar => ExtFn::PrintChar,
        Intrinsic::Sqrt => ExtFn::Sqrt,
        Intrinsic::Fabs => ExtFn::Fabs,
        Intrinsic::Floor => ExtFn::Floor,
        Intrinsic::Sin => ExtFn::Sin,
        Intrinsic::Cos => ExtFn::Cos,
        Intrinsic::Exp => ExtFn::Exp,
        Intrinsic::Log => ExtFn::Log,
        Intrinsic::Abort => ExtFn::Abort,
    }
}

fn value_type(func: &Function, v: Value) -> Type {
    match v {
        Value::Inst(id) => func.inst(id).ty.clone(),
        Value::Arg(n) => func.params[n as usize].clone(),
        Value::Const(c) => c.ty(),
    }
}

fn type_width(ty: &Type) -> Width {
    match ty {
        Type::Int(IntTy::I1 | IntTy::I8) => Width::B1,
        Type::Int(IntTy::I16) => Width::B2,
        Type::Int(IntTy::I32) => Width::B4,
        _ => Width::B8,
    }
}
