//! The IR interpreter's execution core: a pre-decoded opcode table.
//!
//! [`DecodedModule::decode`] runs once per module and resolves everything
//! the reference per-step `match` (`Interp::step`) re-derives on every
//! dynamic instruction:
//! operands (an [`Opnd`] is one frame-slot index: SSA results, then
//! arguments, written at call entry, then constants, with globals
//! resolved to their deterministic addresses, copied from the function's
//! slot template when its frame is pushed), result types, load/store
//! widths, alloca sizes, and GEP strides (constant indices folded into
//! flat byte offsets). Every block is decoded into two tables: `plain`,
//! one entry per instruction, and `code`, the same entries after a fusion
//! pass has rewritten four hot adjacent idioms into superinstructions:
//! integer compare+branch, GEP+load, single-use integer ALU chains, and
//! binop+compare+branch loop latches. Each stays because it covers a
//! measurable share of retired steps on the benchmark workloads (DESIGN
//! §4g); float compare+branch and GEP+store did not and are not fused.
//!
//! The decoded core implements *identical observable semantics* to the
//! reference core in `interp.rs`: the same step counts, the same
//! `on_result`/`on_use`/`on_load`/`on_store` event sequence with the same
//! original [`InstId`]s, the same traps, and the same console bytes — and
//! the same *pause granularity*. A superinstruction is atomic (like a
//! φ-batch), so within [`MAX_FUSED_RETIRE`] steps of a snapshot or pause
//! boundary the slice reads the `plain` table instead, whose units are
//! single instructions, and stops exactly on the boundary. Snapshots and
//! `run_until` pauses therefore land on the instruction boundary the
//! reference core stops at, which divergence timelines (observing the
//! paused microstate) rely on. φ-batches are atomic in both cores, so
//! any batch overshoot is the same in both.

use crate::hook::{InstSite, InterpHook};
use crate::interp::{Frame, Interp, Stop};
use crate::ops;
use crate::rtval::RtVal;
use fiq_ir::{
    BinOp, BlockId, Callee, CastOp, Constant, FCmpPred, FloatTy, FuncId, ICmpPred, InstId,
    InstKind, IntTy, Intrinsic, Module, Type, Value,
};
use fiq_mem::{Memory, Quiescence, Trap};
use std::collections::HashMap;

/// The widest superinstruction's retire count: a [`DecOp::FusedIntChain`]
/// (head plus two links) and a [`DecOp::FusedBinICmpBr`] (binop, compare,
/// branch) both charge three steps atomically. Within this many steps of
/// a snapshot/pause boundary the decoded slice steps the unfused `plain`
/// table so it stops exactly on the boundary (see the module docs).
pub(crate) const MAX_FUSED_RETIRE: u64 = 3;

/// A pre-resolved operand: the frame slot holding its raw image and the
/// scalar kind that retags it. A frame's slots are the function's SSA
/// results (slot `n` is `InstId(n)`), then its arguments, then its
/// constants (including globals and function addresses), materialized at
/// decode time. Only SSA-result reads fire an `on_use` event, exactly like
/// `Value::Inst` in the reference core.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Opnd {
    pub(crate) slot: u32,
    pub(crate) kind: LoadKind,
    /// True for an SSA-result slot: reading it fires `on_use`.
    pub(crate) fires_use: bool,
}

impl Opnd {
    /// True when this operand reads the SSA result of instruction `id`.
    fn reads(self, id: InstId) -> bool {
        self.fires_use && self.slot == id.0
    }
}

/// The slot of argument `n` in a frame of `func` (after its SSA results).
pub(crate) fn arg_slot(func: &fiq_ir::Function, n: u32) -> usize {
    func.insts.len() + n as usize
}

/// The scalar type of a load destination or frame slot, pre-resolved
/// from the static type.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LoadKind {
    Int(IntTy),
    F32,
    F64,
    Ptr,
}

impl LoadKind {
    pub(crate) fn of(ty: &Type) -> LoadKind {
        match ty {
            Type::Int(t) => LoadKind::Int(*t),
            Type::Float(FloatTy::F32) => LoadKind::F32,
            Type::Float(FloatTy::F64) => LoadKind::F64,
            Type::Ptr => LoadKind::Ptr,
            other => panic!("load of non-first-class type {other}"),
        }
    }

    fn size(self) -> u64 {
        match self {
            LoadKind::Int(t) => t.bytes(),
            LoadKind::F32 => 4,
            LoadKind::F64 | LoadKind::Ptr => 8,
        }
    }
}

/// The raw 64-bit image of a runtime value, as stored in the untagged
/// SSA slot array. Integers keep their canonical (zero-extended) raw
/// bits, floats their IEEE bit patterns, pointers their address — so
/// `val_of_raw(kind, raw_of(v)) == v` bitwise whenever `kind` matches
/// `v`'s scalar type, which decode guarantees per slot.
#[inline]
pub(crate) fn raw_of(v: RtVal) -> u64 {
    match v {
        RtVal::Int(_, raw) => raw,
        RtVal::F32(f) => u64::from(f.to_bits()),
        RtVal::F64(f) => f.to_bits(),
        RtVal::Ptr(p) => p,
    }
}

/// Retags a raw slot image with its static scalar kind (the inverse of
/// [`raw_of`] for a matching kind).
#[inline]
pub(crate) fn val_of_raw(kind: LoadKind, raw: u64) -> RtVal {
    match kind {
        LoadKind::Int(t) => RtVal::Int(t, raw),
        LoadKind::F32 => RtVal::F32(f32::from_bits(raw as u32)),
        LoadKind::F64 => RtVal::F64(f64::from_bits(raw)),
        LoadKind::Ptr => RtVal::Ptr(raw),
    }
}

/// The raw image and kind of a constant operand: what the reference core
/// materializes per read, and the decoded core once per function.
pub(crate) fn const_image(c: Constant, global_addrs: &[u64]) -> (u64, LoadKind) {
    match c {
        Constant::Int(t, raw) => (raw, LoadKind::Int(t)),
        Constant::Float(FloatTy::F32, bits) => (u64::from(bits as u32), LoadKind::F32),
        Constant::Float(FloatTy::F64, bits) => (bits, LoadKind::F64),
        Constant::NullPtr => (0, LoadKind::Ptr),
        Constant::Global(g) => (global_addrs[g.index()], LoadKind::Ptr),
        Constant::Func(f) => (0x4000_0000_0000_0000 | u64::from(f.0), LoadKind::Ptr),
        Constant::Undef(t) => (0, LoadKind::Int(t)),
    }
}

/// Reads an operand's raw 64-bit image without constructing a tagged
/// `RtVal` or firing an event: the event-free twin of `eval_opnd` for
/// the quiescent loop. Only for operand positions whose consumers want
/// the canonical raw bits — integer payloads and pointer addresses, where
/// `raw_of ∘ val_of_raw` is the identity and the tag/retag round trip
/// (with its unfoldable wrong-tag panic branches) is pure overhead.
#[inline]
fn raw_opnd(frame: &Frame, o: &Opnd) -> u64 {
    frame.slots[o.slot as usize]
}

/// A raw GEP index image sign-extended by its static integer kind.
#[inline]
fn sext_index(kind: LoadKind, raw: u64) -> i64 {
    match kind {
        LoadKind::Int(t) => t.sext(raw),
        _ => raw as i64,
    }
}

/// One pre-computed GEP address step. Constant indices (and constant
/// struct-field offsets) are folded into `Const` byte offsets at decode
/// time; this is invisible to hooks because constant operands never fire
/// events in the reference core either.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GepStep {
    /// `addr += sext(idx) * stride`.
    Scale { idx: Opnd, stride: u64 },
    /// `addr += off` (pre-folded constant indices / field offsets).
    Const(u64),
}

/// A decoded instruction body. Field meanings mirror `InstKind`, with
/// operands resolved and per-execution type walks hoisted to decode time.
#[derive(Debug, Clone)]
pub(crate) enum DecOp {
    IntBin {
        op: BinOp,
        ty: IntTy,
        lhs: Opnd,
        rhs: Opnd,
    },
    FloatBin {
        op: BinOp,
        lhs: Opnd,
        rhs: Opnd,
    },
    ICmp {
        pred: ICmpPred,
        lhs: Opnd,
        rhs: Opnd,
    },
    FCmp {
        pred: FCmpPred,
        lhs: Opnd,
        rhs: Opnd,
    },
    Cast {
        op: CastOp,
        val: Opnd,
        ty: Type,
    },
    Alloca {
        size: u64,
        align: u64,
    },
    Load {
        ptr: Opnd,
        kind: LoadKind,
    },
    Store {
        val: Opnd,
        ptr: Opnd,
    },
    Gep {
        base: Opnd,
        steps: Box<[GepStep]>,
    },
    Select {
        cond: Opnd,
        then_val: Opnd,
        else_val: Opnd,
    },
    CallFunc {
        target: FuncId,
        args: Box<[Opnd]>,
        has_result: bool,
    },
    CallIntr {
        intr: Intrinsic,
        args: Box<[Opnd]>,
        has_result: bool,
    },
    Br {
        target: BlockId,
    },
    CondBr {
        cond: Opnd,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    Ret {
        val: Option<Opnd>,
    },
    Unreachable,
    /// Superinstruction: integer compare immediately consumed by the
    /// adjacent conditional branch. Atomic pair; charges two steps and
    /// fires both instructions' events with their original ids.
    FusedICmpBr {
        pred: ICmpPred,
        lhs: Opnd,
        rhs: Opnd,
        br_id: InstId,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Superinstruction: GEP whose address is immediately loaded by the
    /// next instruction.
    FusedGepLoad {
        base: Opnd,
        steps: Box<[GepStep]>,
        load_id: InstId,
        kind: LoadKind,
    },
    /// Superinstruction: a single-use integer ALU chain — an integer
    /// binop head whose result feeds exactly one consumer, the adjacent
    /// integer binop, for one or two links. Atomic like the other fused
    /// forms; charges one step per member and fires every member's
    /// events with its original id and in the standalone operand order.
    FusedIntChain(Box<IntChain>),
    /// Superinstruction: an integer binop feeding (as its only reader)
    /// the adjacent integer compare, itself consumed by the adjacent
    /// conditional branch — the ubiquitous loop-latch idiom
    /// (`i' = add i, 1; c = icmp i', n; br c, …`). Atomic triple;
    /// charges three steps and fires all three members' events with
    /// their original ids and operand order.
    FusedBinICmpBr(Box<BinICmpBr>),
}

/// The decoded body of a fused binop + compare + branch latch. The
/// compare consumes the binop result as exactly one operand
/// (`bin_is_lhs` records which); both compare operands share the binop's
/// integer type (IR typing), so the compare needs no extra kind data.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinICmpBr {
    pub(crate) op: BinOp,
    pub(crate) ty: IntTy,
    pub(crate) lhs: Opnd,
    pub(crate) rhs: Opnd,
    pub(crate) cmp_id: InstId,
    pub(crate) pred: ICmpPred,
    pub(crate) other: Opnd,
    pub(crate) bin_is_lhs: bool,
    pub(crate) br_id: InstId,
    pub(crate) then_bb: BlockId,
    pub(crate) else_bb: BlockId,
}

/// One fused ALU-chain link: an integer binop consuming the previous
/// member's result as exactly one operand (`head_is_lhs` records which),
/// with the other operand pre-resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IntLink {
    pub(crate) id: InstId,
    pub(crate) op: BinOp,
    pub(crate) ty: IntTy,
    pub(crate) other: Opnd,
    pub(crate) head_is_lhs: bool,
}

/// A fused single-use integer ALU chain: the head binop plus `len`
/// (1 or 2) links, each consuming its predecessor's result.
#[derive(Debug, Clone)]
pub(crate) struct IntChain {
    pub(crate) op: BinOp,
    pub(crate) ty: IntTy,
    pub(crate) lhs: Opnd,
    pub(crate) rhs: Opnd,
    pub(crate) links: [IntLink; 2],
    pub(crate) len: u8,
}

/// A decoded instruction: the original [`InstId`] (hooks and slots are
/// keyed by it) plus the pre-resolved body.
#[derive(Debug, Clone)]
pub(crate) struct DecInst {
    pub(crate) id: InstId,
    pub(crate) op: DecOp,
}

/// A decoded basic block: the leading φ-batch (ids plus, per predecessor,
/// one pre-resolved operand per φ in order) and the remaining code in two
/// tables laid out alike, so `code[j]` and `plain[j]` both start at
/// `block.insts[phi_ids.len() + j]` — `frame.ip` means the same thing in
/// either table and in the reference core, keeping snapshots portable.
#[derive(Debug, Clone)]
pub(crate) struct DecodedBlock {
    pub(crate) phi_ids: Box<[InstId]>,
    pub(crate) phi_preds: Box<[(BlockId, Box<[Opnd]>)]>,
    /// Superinstructions at fused heads; every other entry (fused tails
    /// included) is the plain decode.
    pub(crate) code: Box<[DecInst]>,
    /// One plain decode per instruction: what the slice steps near a
    /// pause or snapshot boundary.
    pub(crate) plain: Box<[DecInst]>,
}

/// One decoded function: blocks indexed by `BlockId`, and the slots a
/// new frame starts from — zeroed SSA-result and argument slots, then the
/// function's distinct constants.
#[derive(Debug, Clone)]
pub(crate) struct DecodedFunc {
    pub(crate) blocks: Box<[DecodedBlock]>,
    pub(crate) frame_template: Box<[u64]>,
}

/// A module pre-decoded for the interpreter's execution core. Decode once
/// (it is pure: the global layout is deterministic), then share via `Arc`
/// across every interpreter running the same module — the campaign
/// engine decodes each cell's module once for all its injections.
#[derive(Debug, Clone)]
pub struct DecodedModule {
    pub(crate) funcs: Box<[DecodedFunc]>,
    pub(crate) global_addrs: Vec<u64>,
}

impl DecodedModule {
    /// Decodes `module` into its fused and plain tables.
    ///
    /// # Panics
    ///
    /// Panics if the module's globals exceed the simulated address space
    /// (an interpreter for such a module cannot be constructed either).
    pub fn decode(module: &Module) -> DecodedModule {
        // The global layout is capacity-independent (packed from the null
        // guard upward), so a dry run against an unbounded memory yields
        // the same addresses every real interpreter will compute.
        let mut mem = Memory::with_capacity(u64::MAX / 2);
        let global_addrs = crate::interp::materialize_globals(module, &mut mem)
            .expect("global layout exceeds simulated address space");
        let funcs = module
            .funcs
            .iter()
            .map(|f| decode_func(f, &global_addrs))
            .collect();
        DecodedModule {
            funcs,
            global_addrs,
        }
    }
}

/// Decode-time state of one function: resolves `Value` operands to
/// frame slots, interning each distinct constant image into the frame
/// template (constants of different kinds with one image share a slot:
/// the kind travels in the [`Opnd`]).
struct FuncDecoder<'f> {
    func: &'f fiq_ir::Function,
    global_addrs: &'f [u64],
    template: Vec<u64>,
    const_slots: HashMap<u64, usize>,
}

impl<'f> FuncDecoder<'f> {
    fn new(func: &'f fiq_ir::Function, global_addrs: &'f [u64]) -> FuncDecoder<'f> {
        FuncDecoder {
            func,
            global_addrs,
            template: vec![0; func.insts.len() + func.params.len()],
            const_slots: HashMap::new(),
        }
    }

    /// Resolves one operand; SSA-result reads carry the defining
    /// instruction's static scalar kind, argument reads the parameter's,
    /// so the untagged raw image can be retagged without consulting the
    /// module.
    fn opnd(&mut self, v: Value) -> Opnd {
        let func = self.func;
        let (slot, kind, fires_use) = match v {
            Value::Inst(id) => (id.index(), LoadKind::of(&func.inst(id).ty), true),
            Value::Arg(n) => (
                arg_slot(func, n),
                LoadKind::of(&func.params[n as usize]),
                false,
            ),
            Value::Const(c) => {
                let (raw, kind) = const_image(c, self.global_addrs);
                let template = &mut self.template;
                let slot = *self.const_slots.entry(raw).or_insert_with(|| {
                    template.push(raw);
                    template.len() - 1
                });
                (slot, kind, false)
            }
        };
        Opnd {
            slot: u32::try_from(slot).expect("frame slots fit u32"),
            kind,
            fires_use,
        }
    }

    fn opnds(&mut self, vs: &[Value]) -> Box<[Opnd]> {
        vs.iter().map(|v| self.opnd(*v)).collect()
    }

    /// The sign-extended value of a constant GEP index.
    fn const_index(&self, c: Constant) -> i64 {
        let (raw, kind) = const_image(c, self.global_addrs);
        sext_index(kind, raw)
    }
}

/// Pre-computes a GEP's address steps, folding constant indices into flat
/// byte offsets. A verified module indexes structs only by constants
/// (`fiq_ir::verify`), so every struct step is a constant offset.
fn decode_gep(dec: &mut FuncDecoder, elem_ty: &Type, base: Value, indices: &[Value]) -> DecOp {
    let mut steps: Vec<GepStep> = Vec::new();
    let mut pending: u64 = 0;
    let mut cur_ty = elem_ty;
    for (i, idx) in indices.iter().enumerate() {
        let stride = if i == 0 {
            cur_ty.size()
        } else {
            match (cur_ty, *idx) {
                (Type::Array(elem, _), _) => {
                    cur_ty = elem;
                    cur_ty.size()
                }
                (Type::Struct(fields), Value::Const(c)) => {
                    let field = dec.const_index(c) as usize;
                    pending = pending.wrapping_add(cur_ty.struct_field_offset(field));
                    cur_ty = &fields[field];
                    continue;
                }
                (other, _) => panic!("verified gep walks aggregate, got {other}"),
            }
        };
        if let Value::Const(c) = *idx {
            pending = pending.wrapping_add((dec.const_index(c) as u64).wrapping_mul(stride));
        } else {
            if pending != 0 {
                steps.push(GepStep::Const(pending));
                pending = 0;
            }
            steps.push(GepStep::Scale {
                idx: dec.opnd(*idx),
                stride,
            });
        }
    }
    if pending != 0 {
        steps.push(GepStep::Const(pending));
    }
    DecOp::Gep {
        base: dec.opnd(base),
        steps: steps.into(),
    }
}

fn decode_inst(dec: &mut FuncDecoder, id: InstId) -> DecOp {
    let inst = dec.func.inst(id);
    match &inst.kind {
        InstKind::Phi { .. } => unreachable!("phi decoded via the block's phi table"),
        InstKind::Binary { op, lhs, rhs } => {
            if op.is_float() {
                DecOp::FloatBin {
                    op: *op,
                    lhs: dec.opnd(*lhs),
                    rhs: dec.opnd(*rhs),
                }
            } else {
                DecOp::IntBin {
                    op: *op,
                    ty: inst.ty.as_int().expect("verified int binop"),
                    lhs: dec.opnd(*lhs),
                    rhs: dec.opnd(*rhs),
                }
            }
        }
        InstKind::ICmp { pred, lhs, rhs } => DecOp::ICmp {
            pred: *pred,
            lhs: dec.opnd(*lhs),
            rhs: dec.opnd(*rhs),
        },
        InstKind::FCmp { pred, lhs, rhs } => DecOp::FCmp {
            pred: *pred,
            lhs: dec.opnd(*lhs),
            rhs: dec.opnd(*rhs),
        },
        InstKind::Cast { op, val } => DecOp::Cast {
            op: *op,
            val: dec.opnd(*val),
            ty: inst.ty.clone(),
        },
        InstKind::Alloca { ty } => DecOp::Alloca {
            size: ty.size().max(1),
            align: ty.align().max(1),
        },
        InstKind::Load { ptr } => DecOp::Load {
            ptr: dec.opnd(*ptr),
            kind: LoadKind::of(&inst.ty),
        },
        InstKind::Store { val, ptr } => DecOp::Store {
            val: dec.opnd(*val),
            ptr: dec.opnd(*ptr),
        },
        InstKind::Gep {
            elem_ty,
            base,
            indices,
        } => decode_gep(dec, elem_ty, *base, indices),
        InstKind::Select {
            cond,
            then_val,
            else_val,
        } => DecOp::Select {
            cond: dec.opnd(*cond),
            then_val: dec.opnd(*then_val),
            else_val: dec.opnd(*else_val),
        },
        InstKind::Call { callee, args } => {
            let args = dec.opnds(args);
            let has_result = inst.has_result();
            match callee {
                Callee::Func(target) => DecOp::CallFunc {
                    target: *target,
                    args,
                    has_result,
                },
                Callee::Intrinsic(i) => DecOp::CallIntr {
                    intr: *i,
                    args,
                    has_result,
                },
            }
        }
        InstKind::Br { target } => DecOp::Br { target: *target },
        InstKind::CondBr {
            cond,
            then_bb,
            else_bb,
        } => DecOp::CondBr {
            cond: dec.opnd(*cond),
            then_bb: *then_bb,
            else_bb: *else_bb,
        },
        InstKind::Ret { val } => DecOp::Ret {
            val: val.map(|v| dec.opnd(v)),
        },
        InstKind::Unreachable => DecOp::Unreachable,
    }
}

/// Builds the superinstruction for an adjacent (head, tail) pair, or
/// `None` if they don't form a fusable idiom. The tail must consume the
/// head's result directly (its SSA-result slot).
fn fuse_pair(head: &DecInst, tail: &DecInst) -> Option<DecOp> {
    let feeds = |o: &Opnd| o.reads(head.id);
    match (&head.op, &tail.op) {
        (
            DecOp::ICmp { pred, lhs, rhs },
            DecOp::CondBr {
                cond,
                then_bb,
                else_bb,
            },
        ) if feeds(cond) => Some(DecOp::FusedICmpBr {
            pred: *pred,
            lhs: *lhs,
            rhs: *rhs,
            br_id: tail.id,
            then_bb: *then_bb,
            else_bb: *else_bb,
        }),
        (DecOp::Gep { base, steps }, DecOp::Load { ptr, kind }) if feeds(ptr) => {
            Some(DecOp::FusedGepLoad {
                base: *base,
                steps: steps.clone(),
                load_id: tail.id,
                kind: *kind,
            })
        }
        _ => None,
    }
}

/// Whole-function use counts per defining instruction: how many operand
/// positions (φ incomings included) read its SSA slot. This is the
/// single-use test ALU-chain fusion relies on — a chain member whose
/// result has exactly one reader, the adjacent link, can be fused
/// without changing any other instruction's observable reads.
fn slot_use_counts(func: &fiq_ir::Function) -> Vec<u32> {
    let mut uses = vec![0u32; func.insts.len()];
    let mut count = |v: &Value| {
        if let Value::Inst(id) = v {
            uses[id.index()] += 1;
        }
    };
    for bb in func.block_ids() {
        for &id in &func.block(bb).insts {
            match &func.inst(id).kind {
                InstKind::Phi { incomings } => {
                    for (_, v) in incomings {
                        count(v);
                    }
                }
                InstKind::Binary { lhs, rhs, .. }
                | InstKind::ICmp { lhs, rhs, .. }
                | InstKind::FCmp { lhs, rhs, .. } => {
                    count(lhs);
                    count(rhs);
                }
                InstKind::Cast { val, .. } => count(val),
                InstKind::Load { ptr } => count(ptr),
                InstKind::Store { val, ptr } => {
                    count(val);
                    count(ptr);
                }
                InstKind::Gep { base, indices, .. } => {
                    count(base);
                    for i in indices {
                        count(i);
                    }
                }
                InstKind::Select {
                    cond,
                    then_val,
                    else_val,
                } => {
                    count(cond);
                    count(then_val);
                    count(else_val);
                }
                InstKind::Call { args, .. } => {
                    for a in args {
                        count(a);
                    }
                }
                InstKind::CondBr { cond, .. } => count(cond),
                InstKind::Ret { val } => {
                    if let Some(v) = val {
                        count(v);
                    }
                }
                InstKind::Alloca { .. } | InstKind::Br { .. } | InstKind::Unreachable => {}
            }
        }
    }
    uses
}

/// Builds a [`DecOp::FusedIntChain`] headed at `code[j]`, returning the
/// superinstruction and the number of links consumed, or `None` if
/// `code[j]` does not head a single-use integer ALU chain. A link is the
/// adjacent integer binop consuming the previous member's result as
/// exactly one operand, where that result has no other reader anywhere
/// in the function (`uses[prev] == 1` — which also rules out a link
/// reading its predecessor through both operands).
fn fuse_chain(code: &[DecInst], j: usize, uses: &[u32]) -> Option<(DecOp, usize)> {
    let DecOp::IntBin { op, ty, lhs, rhs } = code[j].op else {
        return None;
    };
    let dummy = IntLink {
        id: InstId(0),
        op,
        ty,
        other: lhs,
        head_is_lhs: false,
    };
    let mut links = [dummy; 2];
    let mut len = 0usize;
    let mut prev = code[j].id;
    while len < 2 {
        let Some(next) = code.get(j + 1 + len) else {
            break;
        };
        let DecOp::IntBin {
            op: lop,
            ty: lty,
            lhs: llhs,
            rhs: lrhs,
        } = next.op
        else {
            break;
        };
        if uses[prev.index()] != 1 {
            break;
        }
        let (other, head_is_lhs) = if llhs.reads(prev) {
            (lrhs, true)
        } else if lrhs.reads(prev) {
            (llhs, false)
        } else {
            break;
        };
        links[len] = IntLink {
            id: next.id,
            op: lop,
            ty: lty,
            other,
            head_is_lhs,
        };
        prev = next.id;
        len += 1;
    }
    if len == 0 {
        return None;
    }
    let chain = IntChain {
        op,
        ty,
        lhs,
        rhs,
        links,
        len: len as u8,
    };
    Some((DecOp::FusedIntChain(Box::new(chain)), len))
}

/// Builds a [`DecOp::FusedBinICmpBr`] headed at `code[j]`: an integer
/// binop whose result feeds the adjacent compare, itself consumed by
/// the adjacent conditional branch. Unlike ALU chains, no single-use
/// test is needed (matching the cmp+br pair fusion): every member's
/// result is still stored to its slot before anything else can read it,
/// so additional readers — typically the loop-carried φ reading the
/// increment — observe identical values. The compare's operands share
/// the binop's integer type (IR typing forbids mixed compares, and a
/// binop result is never a pointer), so execution can compare raw
/// images with the head's `ty`.
fn fuse_latch(code: &[DecInst], j: usize) -> Option<DecOp> {
    let DecOp::IntBin { op, ty, lhs, rhs } = code[j].op else {
        return None;
    };
    let bin_id = code[j].id;
    let cmp = code.get(j + 1)?;
    let br = code.get(j + 2)?;
    let DecOp::ICmp {
        pred,
        lhs: clhs,
        rhs: crhs,
    } = cmp.op
    else {
        return None;
    };
    let DecOp::CondBr {
        cond,
        then_bb,
        else_bb,
    } = br.op
    else {
        return None;
    };
    if !cond.reads(cmp.id) {
        return None;
    }
    let (other, bin_is_lhs) = if clhs.reads(bin_id) {
        (crhs, true)
    } else if crhs.reads(bin_id) {
        (clhs, false)
    } else {
        return None;
    };
    Some(DecOp::FusedBinICmpBr(Box::new(BinICmpBr {
        op,
        ty,
        lhs,
        rhs,
        cmp_id: cmp.id,
        pred,
        other,
        bin_is_lhs,
        br_id: br.id,
        then_bb,
        else_bb,
    })))
}

fn decode_func(func: &fiq_ir::Function, ga: &[u64]) -> DecodedFunc {
    let uses = slot_use_counts(func);
    let mut dec = FuncDecoder::new(func, ga);
    let blocks = func
        .block_ids()
        .map(|bb| {
            let insts = &func.block(bb).insts;
            let phi_count = insts
                .iter()
                .take_while(|&&id| matches!(func.inst(id).kind, InstKind::Phi { .. }))
                .count();
            let phi_ids: Box<[InstId]> = insts[..phi_count].iter().copied().collect();
            // Regroup per-φ incoming lists into per-predecessor operand
            // rows so the hot path resolves the predecessor once per
            // batch instead of once per φ.
            let preds: Vec<BlockId> = phi_ids
                .first()
                .map(|&id| {
                    let InstKind::Phi { incomings } = &func.inst(id).kind else {
                        unreachable!()
                    };
                    incomings.iter().map(|(pb, _)| *pb).collect()
                })
                .unwrap_or_default();
            let phi_preds: Box<[(BlockId, Box<[Opnd]>)]> = preds
                .iter()
                .map(|&pred| {
                    let row: Box<[Opnd]> = phi_ids
                        .iter()
                        .map(|&id| {
                            let InstKind::Phi { incomings } = &func.inst(id).kind else {
                                unreachable!()
                            };
                            let (_, v) = incomings
                                .iter()
                                .find(|(pb, _)| *pb == pred)
                                .expect("verified phi has incoming for every predecessor");
                            dec.opnd(*v)
                        })
                        .collect();
                    (pred, row)
                })
                .collect();
            let plain: Box<[DecInst]> = insts[phi_count..]
                .iter()
                .map(|&id| DecInst {
                    id,
                    op: decode_inst(&mut dec, id),
                })
                .collect();
            // Pair heads (icmp/GEP), chain heads (integer binop), and tails
            // (branch/load/binop links) are matched by a greedy
            // left-to-right scan over the plain decode; pair head kinds
            // are disjoint from chain head kinds, so the scan cannot miss
            // an overlapping idiom. Fused tails keep their plain decode:
            // a pause inside a unit resumes there.
            let mut code = plain.to_vec();
            let mut j = 0;
            while j < code.len() {
                if let Some(f) = fuse_latch(&plain, j) {
                    code[j].op = f;
                    j += 3;
                } else if let Some((f, fused_links)) = fuse_chain(&plain, j, &uses) {
                    code[j].op = f;
                    j += 1 + fused_links;
                } else if let Some(f) = plain.get(j + 1).and_then(|t| fuse_pair(&plain[j], t)) {
                    code[j].op = f;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            DecodedBlock {
                phi_ids,
                phi_preds,
                code: code.into(),
                plain,
            }
        })
        .collect();
    DecodedFunc {
        blocks,
        frame_template: dec.template.into(),
    }
}

impl<'m, H: InterpHook> Interp<'m, H> {
    /// Reads one pre-resolved operand's raw image. Under `EVENTS`,
    /// SSA-result reads fire the same `on_use` event the reference core
    /// fires for `Value::Inst`; the quiescent instantiation compiles the
    /// hook call out entirely.
    #[inline]
    fn use_raw<const EVENTS: bool>(&mut self, frame: &Frame, consumer: InstId, o: &Opnd) -> u64 {
        if EVENTS && o.fires_use {
            self.hook.on_use(
                InstSite {
                    func: frame.fid,
                    inst: InstId(o.slot),
                },
                InstSite {
                    func: frame.fid,
                    inst: consumer,
                },
                frame.frame_id,
            );
        }
        frame.slots[o.slot as usize]
    }

    /// [`Interp::use_raw`] retagged with the operand's decode-time scalar
    /// kind.
    #[inline]
    fn eval_opnd<const EVENTS: bool>(
        &mut self,
        frame: &Frame,
        consumer: InstId,
        o: &Opnd,
    ) -> RtVal {
        val_of_raw(o.kind, self.use_raw::<EVENTS>(frame, consumer, o))
    }

    #[inline(always)]
    fn load_kind(&self, addr: u64, k: LoadKind) -> Result<RtVal, Trap> {
        Ok(match k {
            LoadKind::Int(t) => RtVal::Int(t, t.truncate(self.mem.read_uint(addr, t.bytes())?)),
            LoadKind::F32 => RtVal::F32(self.mem.read_f32(addr)?),
            LoadKind::F64 => RtVal::F64(self.mem.read_f64(addr)?),
            LoadKind::Ptr => RtVal::Ptr(self.mem.read_uint(addr, 8)?),
        })
    }

    /// Walks pre-computed GEP steps, firing `on_use` for dynamic indices
    /// in original operand order under `EVENTS` (constant steps fire
    /// nothing, exactly like constant operands in the reference core).
    #[inline]
    fn gep_addr<const EVENTS: bool>(
        &mut self,
        frame: &Frame,
        id: InstId,
        base: &Opnd,
        steps: &[GepStep],
    ) -> u64 {
        let mut addr = self.use_raw::<EVENTS>(frame, id, base);
        for s in steps {
            match s {
                GepStep::Scale { idx, stride } => {
                    let iv = sext_index(idx.kind, self.use_raw::<EVENTS>(frame, id, idx));
                    addr = addr.wrapping_add((iv as u64).wrapping_mul(*stride));
                }
                GepStep::Const(off) => addr = addr.wrapping_add(*off),
            }
        }
        addr
    }

    /// The decoded twin of `Interp::step`: executes decoded instructions
    /// in the top frame until a control transfer or a pending
    /// snapshot/pause point hands control back. Observable semantics are
    /// identical to the reference core (see module docs).
    pub(crate) fn step_decoded(&mut self, dec: &DecodedModule) -> Result<(), Stop> {
        self.step_decoded_impl::<true, false>(dec, None).map(|_| ())
    }

    /// One quiescent fast slice: `step_decoded` monomorphized with hook
    /// dispatch, per-use events, and result delivery to the hook compiled
    /// out — legal exactly while the hook reports itself inert (see
    /// [`fiq_mem::Quiescence`]). The step budget is honored as usual; the
    /// slice yields once fewer than [`MAX_FUSED_RETIRE`] steps remain
    /// before a `run_until` boundary, leaving them to the evented slice.
    /// With a watch site, the slice stops *just before* any unit that
    /// would produce one of the watched site's own events and returns
    /// `true`; the caller then runs that unit through the evented slice.
    pub(crate) fn step_quiescent(
        &mut self,
        dec: &DecodedModule,
        watch: Option<InstSite>,
    ) -> Result<bool, Stop> {
        let s0 = self.steps;
        let r = if watch.is_some() {
            self.step_decoded_impl::<false, true>(dec, watch)
        } else {
            self.step_decoded_impl::<false, false>(dec, None)
        };
        self.steps_quiescent += self.steps - s0;
        r
    }

    #[allow(clippy::too_many_lines)]
    fn step_decoded_impl<const EVENTS: bool, const WATCH: bool>(
        &mut self,
        dec: &DecodedModule,
        watch: Option<InstSite>,
    ) -> Result<bool, Stop> {
        let mut frame = self.frames.pop().expect("step with a live frame");
        let fid = frame.fid;
        let dfunc = &dec.funcs[fid.index()];
        // `u64::MAX` sentinel keeps the per-instruction boundary test a
        // single register compare with no `Option` unpacking.
        let snap_due = match (self.snap.as_ref().map(|s| s.next_at), self.pause_at) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => a.or(b).unwrap_or(u64::MAX),
        };
        // Below `plain_from` every superinstruction retires before the
        // boundary (`steps + MAX_FUSED_RETIRE <= snap_due`), so the fused
        // table is safe and the hot path pays this one compare. From
        // there on the evented slice steps the plain table and yields
        // exactly at `snap_due`; the quiescent slice yields at once and
        // leaves those last steps to the evented one (`Interp::exec`).
        let plain_from = snap_due.saturating_sub(MAX_FUSED_RETIRE - 1);
        let yield_at = if EVENTS { snap_due } else { plain_from };

        // The current block is re-resolved only at control transfers; every
        // straight-line instruction reuses this borrow (and the hoisted
        // φ-count, so the hot path does not reload it per instruction).
        let mut dblock = &dfunc.blocks[frame.cur.index()];
        let mut phi_len = dblock.phi_ids.len();
        loop {
            // At each block entry the evented slice hands control back
            // once the hook has left its active phase, so the run loop can
            // pick the fast loop: a fault that settles inside a call-free
            // loop nest must not keep the rest of the run evented.
            if EVENTS
                && frame.ip == 0
                && !self.needs_evented_loop()
                && !matches!(self.hook.quiescence(), Quiescence::Active)
            {
                self.frames.push(frame);
                return Ok(false);
            }
            if frame.ip == 0 && phi_len != 0 {
                if self.steps >= yield_at {
                    self.frames.push(frame);
                    return Ok(false);
                }
                if WATCH {
                    if let Some(w) = watch {
                        if w.func == fid && dblock.phi_ids.contains(&w.inst) {
                            self.frames.push(frame);
                            return Ok(true);
                        }
                    }
                }
                // Parallel φ-batch: reads before writes, atomic within
                // the slice. Small batches (the overwhelmingly common
                // case — loop headers carry a φ or two) stage through a
                // stack array; larger ones fall back to a reusable buffer.
                let pred = frame.prev.expect("phi in entry block");
                let (_, row) = dblock
                    .phi_preds
                    .iter()
                    .find(|(pb, _)| *pb == pred)
                    .expect("verified phi has incoming for every predecessor");
                if !EVENTS && phi_len <= 4 {
                    // Event-free twin of the small batch: raw images
                    // staged directly, no tags to strip or re-apply.
                    let mut staged = [0u64; 4];
                    for (k, o) in row.iter().take(phi_len).enumerate() {
                        self.budget()?;
                        staged[k] = raw_opnd(&frame, o);
                    }
                    for (k, &id) in dblock.phi_ids.iter().enumerate() {
                        frame.slots[id.index()] = staged[k];
                    }
                } else if phi_len <= 4 {
                    let mut staged = [RtVal::Ptr(0); 4];
                    for (k, &id) in dblock.phi_ids.iter().enumerate() {
                        self.budget()?;
                        let mut val = self.eval_opnd::<EVENTS>(&frame, id, &row[k]);
                        if EVENTS {
                            self.result(
                                InstSite {
                                    func: fid,
                                    inst: id,
                                },
                                frame.frame_id,
                                &mut val,
                            );
                        }
                        staged[k] = val;
                    }
                    for (k, &id) in dblock.phi_ids.iter().enumerate() {
                        frame.slots[id.index()] = raw_of(staged[k]);
                    }
                } else {
                    let mut staged = std::mem::take(&mut self.phi_buf);
                    staged.clear();
                    for (k, &id) in dblock.phi_ids.iter().enumerate() {
                        self.budget()?;
                        let mut val = self.eval_opnd::<EVENTS>(&frame, id, &row[k]);
                        if EVENTS {
                            self.result(
                                InstSite {
                                    func: fid,
                                    inst: id,
                                },
                                frame.frame_id,
                                &mut val,
                            );
                        }
                        staged.push(val);
                    }
                    for (k, &id) in dblock.phi_ids.iter().enumerate() {
                        frame.slots[id.index()] = raw_of(staged[k]);
                    }
                    self.phi_buf = staged;
                }
                frame.ip = phi_len;
                // The batch may have crossed the boundary; the table
                // choice below re-checks it before the fall-through
                // instruction, where the reference core pauses too.
            }

            let j = frame.ip - phi_len;
            let d = if self.steps < plain_from {
                &dblock.code[j]
            } else {
                if self.steps >= yield_at {
                    self.frames.push(frame);
                    return Ok(false);
                }
                &dblock.plain[j]
            };
            if WATCH {
                if let Some(w) = watch {
                    if watch_hits(d, w, fid, &self.frames, dec) {
                        self.frames.push(frame);
                        return Ok(true);
                    }
                }
            }
            self.budget()?;
            let id = d.id;
            let site = InstSite {
                func: fid,
                inst: id,
            };
            match &d.op {
                DecOp::IntBin { op, ty, lhs, rhs } => {
                    if EVENTS {
                        let l = self.eval_opnd::<EVENTS>(&frame, id, lhs);
                        let r = self.eval_opnd::<EVENTS>(&frame, id, rhs);
                        let mut val =
                            RtVal::Int(*ty, ops::eval_int_binop(*op, *ty, l.as_int(), r.as_int())?);
                        self.result(site, frame.frame_id, &mut val);
                        frame.slots[id.index()] = raw_of(val);
                    } else {
                        let l = raw_opnd(&frame, lhs);
                        let r = raw_opnd(&frame, rhs);
                        frame.slots[id.index()] = ops::eval_int_binop(*op, *ty, l, r)?;
                    }
                    frame.ip += 1;
                }
                DecOp::FloatBin { op, lhs, rhs } => {
                    let l = self.eval_opnd::<EVENTS>(&frame, id, lhs);
                    let r = self.eval_opnd::<EVENTS>(&frame, id, rhs);
                    let mut val = match (l, r) {
                        (RtVal::F64(a), RtVal::F64(b)) => {
                            RtVal::F64(ops::eval_float_binop(*op, a, b))
                        }
                        (RtVal::F32(a), RtVal::F32(b)) => {
                            RtVal::F32(ops::eval_float_binop(*op, f64::from(a), f64::from(b)) as f32)
                        }
                        _ => panic!("verified float binop on non-floats"),
                    };
                    if EVENTS {
                        self.result(site, frame.frame_id, &mut val);
                    }
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                DecOp::ICmp { pred, lhs, rhs } => {
                    let l = self.eval_opnd::<EVENTS>(&frame, id, lhs);
                    let r = self.eval_opnd::<EVENTS>(&frame, id, rhs);
                    let mut val = RtVal::bool(icmp_vals(*pred, l, r));
                    if EVENTS {
                        self.result(site, frame.frame_id, &mut val);
                    }
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                DecOp::FCmp { pred, lhs, rhs } => {
                    let l = self.eval_opnd::<EVENTS>(&frame, id, lhs);
                    let r = self.eval_opnd::<EVENTS>(&frame, id, rhs);
                    let (a, b) = match (l, r) {
                        (RtVal::F64(a), RtVal::F64(b)) => (a, b),
                        (RtVal::F32(a), RtVal::F32(b)) => (f64::from(a), f64::from(b)),
                        _ => panic!("verified fcmp operands"),
                    };
                    let mut val = RtVal::bool(ops::eval_fcmp(*pred, a, b));
                    if EVENTS {
                        self.result(site, frame.frame_id, &mut val);
                    }
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                DecOp::Cast { op, val, ty } => {
                    let v = self.eval_opnd::<EVENTS>(&frame, id, val);
                    let mut out = ops::eval_cast(*op, v, ty);
                    if EVENTS {
                        self.result(site, frame.frame_id, &mut out);
                    }
                    frame.slots[id.index()] = raw_of(out);
                    frame.ip += 1;
                }
                DecOp::Alloca { size, align } => {
                    let new_sp = self
                        .sp
                        .checked_sub(*size)
                        .map(|s| s / align * align)
                        .ok_or(Trap::StackOverflow)?;
                    if new_sp < self.stack_start {
                        return Err(Trap::StackOverflow.into());
                    }
                    self.sp = new_sp;
                    let mut val = RtVal::Ptr(new_sp);
                    if EVENTS {
                        self.result(site, frame.frame_id, &mut val);
                    }
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                DecOp::Load { ptr, kind } => {
                    let p = self.use_raw::<EVENTS>(&frame, id, ptr);
                    if EVENTS {
                        self.hook.on_load(site, frame.frame_id, p, kind.size());
                    }
                    let mut val = self.load_kind(p, *kind)?;
                    if EVENTS {
                        self.result(site, frame.frame_id, &mut val);
                    }
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                DecOp::Store { val, ptr } => {
                    let v = self.eval_opnd::<EVENTS>(&frame, id, val);
                    let p = self.use_raw::<EVENTS>(&frame, id, ptr);
                    let size = v.ty().size();
                    self.store_typed(p, v)?;
                    if EVENTS {
                        self.hook.on_store(site, frame.frame_id, p, size);
                    }
                    frame.ip += 1;
                }
                DecOp::Gep { base, steps } => {
                    let addr = self.gep_addr::<EVENTS>(&frame, id, base, steps);
                    let mut val = RtVal::Ptr(addr);
                    if EVENTS {
                        self.result(site, frame.frame_id, &mut val);
                    }
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                DecOp::Select {
                    cond,
                    then_val,
                    else_val,
                } => {
                    let c = self.eval_opnd::<EVENTS>(&frame, id, cond).as_bool();
                    let t = self.eval_opnd::<EVENTS>(&frame, id, then_val);
                    let e = self.eval_opnd::<EVENTS>(&frame, id, else_val);
                    let mut val = if c { t } else { e };
                    if EVENTS {
                        self.result(site, frame.frame_id, &mut val);
                    }
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                DecOp::CallFunc { target, args, .. } => {
                    let raw: Vec<u64> = args
                        .iter()
                        .map(|a| self.use_raw::<EVENTS>(&frame, id, a))
                        .collect();
                    self.frames.push(frame);
                    self.push_frame(*target, &raw)?;
                    return Ok(false);
                }
                DecOp::CallIntr {
                    intr,
                    args,
                    has_result,
                } => {
                    let mut buf = [RtVal::Ptr(0); 2];
                    let vals: &[RtVal] = if args.len() <= 2 {
                        for (k, a) in args.iter().enumerate() {
                            buf[k] = self.eval_opnd::<EVENTS>(&frame, id, a);
                        }
                        &buf[..args.len()]
                    } else {
                        unreachable!("no intrinsic takes more than two arguments")
                    };
                    let ret = self.intrinsic(*intr, vals)?;
                    if *has_result {
                        let mut val = ret.expect("non-void call returned a value");
                        if EVENTS {
                            self.result(site, frame.frame_id, &mut val);
                        }
                        frame.slots[id.index()] = raw_of(val);
                    }
                    frame.ip += 1;
                }
                DecOp::Br { target } => {
                    frame.prev = Some(frame.cur);
                    frame.cur = *target;
                    frame.ip = 0;
                    dblock = &dfunc.blocks[frame.cur.index()];
                    phi_len = dblock.phi_ids.len();
                }
                DecOp::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.use_raw::<EVENTS>(&frame, id, cond) != 0;
                    frame.prev = Some(frame.cur);
                    frame.cur = if c { *then_bb } else { *else_bb };
                    frame.ip = 0;
                    dblock = &dfunc.blocks[frame.cur.index()];
                    phi_len = dblock.phi_ids.len();
                }
                DecOp::Ret { val } => {
                    let out = val
                        .as_ref()
                        .map(|o| self.eval_opnd::<EVENTS>(&frame, id, o));
                    self.sp = frame.saved_sp;
                    drop(frame);
                    let Some(caller) = self.frames.last() else {
                        // `main` returned; its value (if any) is ignored.
                        return Ok(false);
                    };
                    let (cfid, c_frame_id, c_cur, c_ip) =
                        (caller.fid, caller.frame_id, caller.cur, caller.ip);
                    let cblock = &dec.funcs[cfid.index()].blocks[c_cur.index()];
                    let cinst = &cblock.code[c_ip - cblock.phi_ids.len()];
                    let DecOp::CallFunc { has_result, .. } = &cinst.op else {
                        unreachable!("return delivery into a non-call instruction")
                    };
                    if *has_result {
                        let mut val = out.expect("non-void call returned a value");
                        if EVENTS {
                            self.result(
                                InstSite {
                                    func: cfid,
                                    inst: cinst.id,
                                },
                                c_frame_id,
                                &mut val,
                            );
                        }
                        let caller = self.frames.last_mut().expect("caller frame");
                        caller.slots[cinst.id.index()] = raw_of(val);
                    }
                    self.frames.last_mut().expect("caller frame").ip += 1;
                    return Ok(false);
                }
                DecOp::Unreachable => {
                    return Err(Trap::UnreachableExecuted.into());
                }
                DecOp::FusedICmpBr {
                    pred,
                    lhs,
                    rhs,
                    br_id,
                    then_bb,
                    else_bb,
                } => {
                    let l = self.eval_opnd::<EVENTS>(&frame, id, lhs);
                    let r = self.eval_opnd::<EVENTS>(&frame, id, rhs);
                    let mut val = RtVal::bool(icmp_vals(*pred, l, r));
                    if EVENTS {
                        self.result(site, frame.frame_id, &mut val);
                    }
                    frame.slots[id.index()] = raw_of(val);
                    // Branch half: atomic with the compare. The branch
                    // reads the *stored* (possibly hook-mutated) result.
                    self.budget()?;
                    if EVENTS {
                        self.hook.on_use(
                            site,
                            InstSite {
                                func: fid,
                                inst: *br_id,
                            },
                            frame.frame_id,
                        );
                    }
                    frame.prev = Some(frame.cur);
                    frame.cur = if val.as_bool() { *then_bb } else { *else_bb };
                    frame.ip = 0;
                    dblock = &dfunc.blocks[frame.cur.index()];
                    phi_len = dblock.phi_ids.len();
                }
                DecOp::FusedGepLoad {
                    base,
                    steps,
                    load_id,
                    kind,
                } => {
                    let addr = self.gep_addr::<EVENTS>(&frame, id, base, steps);
                    let mut pv = RtVal::Ptr(addr);
                    if EVENTS {
                        self.result(site, frame.frame_id, &mut pv);
                    }
                    frame.slots[id.index()] = raw_of(pv);
                    // Load half: reads the stored (possibly hook-mutated)
                    // address, exactly as the standalone load would.
                    self.budget()?;
                    let lsite = InstSite {
                        func: fid,
                        inst: *load_id,
                    };
                    let p = pv.as_ptr();
                    if EVENTS {
                        self.hook.on_use(site, lsite, frame.frame_id);
                        self.hook.on_load(lsite, frame.frame_id, p, kind.size());
                    }
                    let mut val = self.load_kind(p, *kind)?;
                    if EVENTS {
                        self.result(lsite, frame.frame_id, &mut val);
                    }
                    frame.slots[load_id.index()] = raw_of(val);
                    frame.ip += 2;
                }
                DecOp::FusedBinICmpBr(l) if !EVENTS => {
                    // Event-free twin: raw binop, raw compare with the
                    // head's type, branch — no tags anywhere.
                    let a = raw_opnd(&frame, &l.lhs);
                    let b = raw_opnd(&frame, &l.rhs);
                    let bin = ops::eval_int_binop(l.op, l.ty, a, b)?;
                    frame.slots[id.index()] = bin;
                    self.budget()?;
                    let o = raw_opnd(&frame, &l.other);
                    let (cl, cr) = if l.bin_is_lhs { (bin, o) } else { (o, bin) };
                    let c = ops::eval_icmp(l.pred, Some(l.ty), cl, cr);
                    frame.slots[l.cmp_id.index()] = u64::from(c);
                    self.budget()?;
                    frame.prev = Some(frame.cur);
                    frame.cur = if c { l.then_bb } else { l.else_bb };
                    frame.ip = 0;
                    dblock = &dfunc.blocks[frame.cur.index()];
                    phi_len = dblock.phi_ids.len();
                }
                DecOp::FusedBinICmpBr(l) => {
                    let la = self.eval_opnd::<EVENTS>(&frame, id, &l.lhs);
                    let ra = self.eval_opnd::<EVENTS>(&frame, id, &l.rhs);
                    let mut bin = RtVal::Int(
                        l.ty,
                        ops::eval_int_binop(l.op, l.ty, la.as_int(), ra.as_int())?,
                    );
                    if EVENTS {
                        self.result(site, frame.frame_id, &mut bin);
                    }
                    frame.slots[id.index()] = raw_of(bin);
                    // Compare half: reads the stored (possibly
                    // hook-mutated) binop result, firing uses in the
                    // standalone operand order.
                    self.budget()?;
                    let csite = InstSite {
                        func: fid,
                        inst: l.cmp_id,
                    };
                    let (cl, cr) = if l.bin_is_lhs {
                        if EVENTS {
                            self.hook.on_use(site, csite, frame.frame_id);
                        }
                        let o = self.eval_opnd::<EVENTS>(&frame, l.cmp_id, &l.other);
                        (bin, o)
                    } else {
                        let o = self.eval_opnd::<EVENTS>(&frame, l.cmp_id, &l.other);
                        if EVENTS {
                            self.hook.on_use(site, csite, frame.frame_id);
                        }
                        (o, bin)
                    };
                    let mut cval = RtVal::bool(icmp_vals(l.pred, cl, cr));
                    if EVENTS {
                        self.result(csite, frame.frame_id, &mut cval);
                    }
                    frame.slots[l.cmp_id.index()] = raw_of(cval);
                    // Branch half: reads the stored compare result.
                    self.budget()?;
                    if EVENTS {
                        self.hook.on_use(
                            csite,
                            InstSite {
                                func: fid,
                                inst: l.br_id,
                            },
                            frame.frame_id,
                        );
                    }
                    frame.prev = Some(frame.cur);
                    frame.cur = if cval.as_bool() { l.then_bb } else { l.else_bb };
                    frame.ip = 0;
                    dblock = &dfunc.blocks[frame.cur.index()];
                    phi_len = dblock.phi_ids.len();
                }
                DecOp::FusedIntChain(chain) if !EVENTS => {
                    // Event-free twin: pure raw-u64 arithmetic, no tag
                    // round trips. Operand order is irrelevant without
                    // events and operand evaluation has no side effects.
                    let l = raw_opnd(&frame, &chain.lhs);
                    let r = raw_opnd(&frame, &chain.rhs);
                    let mut prev = ops::eval_int_binop(chain.op, chain.ty, l, r)?;
                    frame.slots[id.index()] = prev;
                    for link in &chain.links[..chain.len as usize] {
                        self.budget()?;
                        let o = raw_opnd(&frame, &link.other);
                        let (l, r) = if link.head_is_lhs {
                            (prev, o)
                        } else {
                            (o, prev)
                        };
                        prev = ops::eval_int_binop(link.op, link.ty, l, r)?;
                        frame.slots[link.id.index()] = prev;
                    }
                    frame.ip += 1 + chain.len as usize;
                }
                DecOp::FusedIntChain(chain) => {
                    let l = self.eval_opnd::<EVENTS>(&frame, id, &chain.lhs);
                    let r = self.eval_opnd::<EVENTS>(&frame, id, &chain.rhs);
                    let mut val = RtVal::Int(
                        chain.ty,
                        ops::eval_int_binop(chain.op, chain.ty, l.as_int(), r.as_int())?,
                    );
                    if EVENTS {
                        self.result(site, frame.frame_id, &mut val);
                    }
                    frame.slots[id.index()] = raw_of(val);
                    // Each link charges its own step and reads the stored
                    // (possibly hook-mutated) predecessor result, firing
                    // events in the standalone lhs-then-rhs operand order.
                    let mut prev = val;
                    let mut prev_site = site;
                    for link in &chain.links[..chain.len as usize] {
                        self.budget()?;
                        let lsite = InstSite {
                            func: fid,
                            inst: link.id,
                        };
                        let (l, r) = if link.head_is_lhs {
                            if EVENTS {
                                self.hook.on_use(prev_site, lsite, frame.frame_id);
                            }
                            let o = self.eval_opnd::<EVENTS>(&frame, link.id, &link.other);
                            (prev, o)
                        } else {
                            let o = self.eval_opnd::<EVENTS>(&frame, link.id, &link.other);
                            if EVENTS {
                                self.hook.on_use(prev_site, lsite, frame.frame_id);
                            }
                            (o, prev)
                        };
                        let mut lval = RtVal::Int(
                            link.ty,
                            ops::eval_int_binop(link.op, link.ty, l.as_int(), r.as_int())?,
                        );
                        if EVENTS {
                            self.result(lsite, frame.frame_id, &mut lval);
                        }
                        frame.slots[link.id.index()] = raw_of(lval);
                        prev = lval;
                        prev_site = lsite;
                    }
                    frame.ip += 1 + chain.len as usize;
                }
            }
        }
    }
}

/// Whether executing decoded instruction `d` (in function `fid`) would
/// produce an event at the watched site `w`: the instruction itself, a
/// fused tail carrying the watched id, or — for returns — the caller's
/// pending call instruction, which receives the return value's
/// `on_result` during delivery. `on_use` events with the watched site as
/// *def* are deliberately not matched: the [`fiq_mem::Quiescence`]
/// `UntilSite` contract requires the hook to ignore those.
fn watch_hits(
    d: &DecInst,
    w: InstSite,
    fid: FuncId,
    frames: &[Frame],
    dec: &DecodedModule,
) -> bool {
    if w.func == fid {
        if d.id == w.inst {
            return true;
        }
        let tail_hit = match &d.op {
            DecOp::FusedICmpBr { br_id, .. } => *br_id == w.inst,
            DecOp::FusedBinICmpBr(l) => l.cmp_id == w.inst || l.br_id == w.inst,
            DecOp::FusedGepLoad { load_id, .. } => *load_id == w.inst,
            DecOp::FusedIntChain(c) => c.links[..c.len as usize].iter().any(|l| l.id == w.inst),
            _ => false,
        };
        if tail_hit {
            return true;
        }
    }
    if matches!(d.op, DecOp::Ret { .. }) {
        // The executing frame is already popped, so `frames.last()` is
        // the caller this return would deliver into.
        if let Some(caller) = frames.last() {
            if caller.fid == w.func {
                let cblock = &dec.funcs[caller.fid.index()].blocks[caller.cur.index()];
                return cblock.code[caller.ip - cblock.phi_ids.len()].id == w.inst;
            }
        }
    }
    false
}

/// Compare dispatch shared by the plain and fused icmp paths.
#[inline]
fn icmp_vals(pred: ICmpPred, l: RtVal, r: RtVal) -> bool {
    let (ty, lv, rv) = match (l, r) {
        (RtVal::Int(t, a), RtVal::Int(_, b)) => (Some(t), a, b),
        (RtVal::Ptr(a), RtVal::Ptr(b)) => (None, a, b),
        _ => panic!("verified icmp operands"),
    };
    ops::eval_icmp(pred, ty, lv, rv)
}
