//! Fault-space equivalence-class collapse: exact campaigns.
//!
//! A sampled campaign draws a few hundred points from a cell's dynamic
//! fault space (every `(site, instance, bit)` triple) and carries Wilson
//! sampling noise. This module partitions the *full* space into
//! equivalence classes before execution — classes whose members provably
//! share one outcome — so the engine can inject a single representative
//! per class, weight its recorded outcome by the class size, and report
//! the exact distribution with zero-width confidence intervals.
//!
//! Three class kinds are recognized, per injection point:
//!
//! * **dormant** — the corrupted value is never read while the fault is
//!   live (dead at the injection point, or overwritten before the next
//!   use). The run is bit-identical to golden and classifies as
//!   `NotActivated` at exactly `golden_steps`.
//! * **masked** — the fault is read, but every read provably discards the
//!   flipped bit (a downstream `and` with a constant that clears it, a
//!   truncation below it, or a read of a location the machine has already
//!   physically rewritten). The run keeps golden control flow and output
//!   and classifies as `Benign` at exactly `golden_steps`.
//! * **residual** — everything else: the flip can reach live state, so
//!   the point is executed individually (a singleton class).
//!
//! The dormant/masked facts come from one extra instrumented golden run
//! per substrate (shared across every category cell of a campaign, in
//! the spirit of FastFlip's reusable per-section propagation summaries)
//! plus a static influence-mask pass over the IR. Both are conservative:
//! any point the analysis cannot prove collapses falls into the residual
//! set and is executed, so collapsed distributions equal brute-force
//! enumeration exactly — [`cross_check_llfi`]/[`cross_check_pinfi`]
//! verify precisely that, and the `collapse-check` CI job keeps it true.
//!
//! Each level's fault space is defined once, next to its planner:
//! `llfi_width` (the IR destination's bit width) and `pinfi_bits` (the
//! destination with FLAGS/XMM pruning applied). The sampled planners,
//! collapse and enumeration all walk those definitions, so an exact
//! campaign and a sampled one draw from the same set by construction.
//!
//! Two limits bound exact planning, both [`MAX_EXACT_INSTANCES`] (also
//! the sampled path's per-cell injection limit). The analyses refuse a
//! program with more dynamic candidate instances than that, because
//! they keep state per instance. Planning then counts each cell's
//! classes without materializing a point and refuses a cell with more
//! classes than that, because the plan holds one task per class; the
//! error gives the class count and its cost in golden runs.

use crate::category::{injection_dest, llfi_candidates, Category};
use crate::llfi::{bit_width, llfi_width, run_llfi, LlfiInjection};
use crate::outcome::{InjectionRun, OutcomeCounts};
use crate::pinfi::{bits, pinfi_bits, run_pinfi, PinfiInjection, PinfiOptions};
use crate::profile::{LlfiProfile, PinfiProfile};
use fiq_asm::{
    AluOp, AsmHook, AsmProgram, Inst as AInst, MachOptions, MachState, Machine, MemRef, Operand,
    Reg, RegId, ShiftOp, XOperand, Xmm,
};
use fiq_interp::{InstSite, Interp, InterpHook, InterpOptions, RtVal};
use fiq_ir::{BinOp, CastOp, Constant, InstKind, Module, Type, Value};
use fiq_mem::{RunStatus, Trap};
use std::collections::HashMap;

/// Campaign planning mode: classic sampling or exact class collapse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Collapse {
    /// Draw `injections` random points per cell (the default; output is
    /// byte-identical to pre-collapse campaigns).
    #[default]
    Sampled,
    /// Enumerate the full fault space, collapse it into equivalence
    /// classes, and execute one representative per class.
    Exact,
}

impl Collapse {
    /// Parses a `--collapse` argument.
    pub fn parse(s: &str) -> Option<Collapse> {
        match s {
            "sampled" => Some(Collapse::Sampled),
            "exact" => Some(Collapse::Exact),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Collapse::Sampled => "sampled",
            Collapse::Exact => "exact",
        }
    }
}

/// Upper bound on tracked dynamic instances per analyzed substrate, and
/// on the classes of one exact cell. The analysis stores a per-instance
/// verdict and the plan one task per class; past this the memory cost
/// stops being reasonable and sampling is the right tool.
pub const MAX_EXACT_INSTANCES: u64 = 1 << 22;

/// Size accounting for one collapsed cell, in fault-space points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollapseStats {
    /// Points proven dead at the injection site (never read while live).
    pub dormant: u64,
    /// Points proven discarded by every read (and-mask, truncation, or a
    /// physically rewritten location).
    pub masked: u64,
    /// Points executed individually.
    pub residual: u64,
}

impl CollapseStats {
    /// Total enumerated fault-space points.
    pub fn space(&self) -> u64 {
        self.dormant + self.masked + self.residual
    }

    /// Number of representatives the engine actually executes.
    pub fn classes(&self) -> u64 {
        self.residual + u64::from(self.dormant > 0) + u64::from(self.masked > 0)
    }

    fn add(&mut self, s: Split) {
        self.dormant += u64::from(s.dormant().count_ones() + s.high);
        self.masked += u64::from(s.masked().count_ones());
        self.residual += u64::from(s.residual.count_ones());
    }
}

/// Per-instance bit verdicts for one dynamic execution of a PINFI site.
/// Bits in neither set were never read while the fault was live.
#[derive(Debug, Clone, Copy, Default)]
struct BitClasses {
    /// Bits whose flip can reach live machine state.
    residual: u64,
    /// Bits read only after the location was physically rewritten, or
    /// provably cleared by the reading instruction.
    benign: u64,
}

// ---------------------------------------------------------------------------
// LLFI (IR level)
// ---------------------------------------------------------------------------

/// Propagation summary for one module: which dynamic instances of each
/// candidate site were ever read while live, plus static per-site
/// influence masks. Computed once per module and shared by every
/// category cell of a campaign.
#[derive(Debug)]
pub struct LlfiAnalysis {
    /// `activated[func][inst][k]` — was the `k+1`-th dynamic execution's
    /// result read before being overwritten?
    activated: Vec<Vec<Vec<bool>>>,
    /// `masks[func][inst]` — union over all static uses of the bits that
    /// can influence the consumer (`u64::MAX` unless every use is an
    /// and-with-constant or truncation).
    masks: Vec<Vec<u64>>,
}

/// The instrumented-golden-run hook behind [`analyze_llfi`]: mirrors the
/// injection hook's liveness rule (an SSA slot re-defined in the same
/// frame kills the previous value) for *every* candidate instance at
/// once.
struct LlfiScanHook {
    tracked: Vec<Vec<bool>>,
    activated: Vec<Vec<Vec<bool>>>,
    /// `(site, frame) -> instance index` of the live definition.
    live: HashMap<(InstSite, u64), u32>,
}

impl InterpHook for LlfiScanHook {
    fn on_result(&mut self, site: InstSite, frame: u64, _val: &mut RtVal) {
        if !self.tracked[site.func.index()][site.inst.index()] {
            return;
        }
        let v = &mut self.activated[site.func.index()][site.inst.index()];
        let k = v.len() as u32;
        v.push(false);
        // Re-execution in the same frame displaces the previous instance:
        // its value is overwritten and can never be read again.
        self.live.insert((site, frame), k);
    }

    fn on_use(&mut self, def: InstSite, _consumer: InstSite, frame: u64) {
        if let Some(&k) = self.live.get(&(def, frame)) {
            self.activated[def.func.index()][def.inst.index()][k as usize] = true;
        }
    }
}

fn low_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Bits of a constant operand, or "all bits" when the operand is not a
/// known integer constant (conservative).
fn const_bits(v: Value) -> u64 {
    match v.as_const() {
        Some(Constant::Int(_, bits)) => bits,
        _ => u64::MAX,
    }
}

/// Bit width of an integer type (canonical `RtVal` payload bits).
fn int_width(ty: &Type) -> Option<u32> {
    matches!(ty, Type::Int(_)).then(|| bit_width(ty))
}

/// All bits at or below the most significant set bit of `m` — the
/// influence a wrapping add/sub/mul operand has when the result's
/// influence is `m` (a flip of operand bit `b` perturbs result bits
/// `≥ b` only).
fn below_msb(m: u64) -> u64 {
    if m == 0 {
        0
    } else {
        u64::MAX >> m.leading_zeros()
    }
}

/// "Any influence at all": the contribution of an operand whose consumer
/// is pure and non-trapping but whose bit mapping is unknown (float
/// arithmetic, comparisons, select conditions). If the consumer's result
/// influences nothing, neither does the operand through this edge.
fn gate(out: u64) -> u64 {
    if out == 0 {
        0
    } else {
        u64::MAX
    }
}

/// Static influence masks: for each instruction result, the bits whose
/// corruption can reach observable behavior (control flow, memory,
/// calls, returns, traps, output). Computed as a backward dataflow
/// fixpoint over the def-use graph.
///
/// Transfer rules, all conservative over-approximations on the
/// interpreter's canonical zero-extended value representation:
///
/// * `and`/`or`/`xor` map operand bit `b` to result bit `b` (the `and`
///   rule additionally clears bits a constant mask kills);
/// * wrapping `add`/`sub`/`mul` perturb only result bits `≥ b`, so the
///   operand inherits every influential-result bit position and below;
/// * constant-amount 64-bit shifts relocate the result mask by the
///   amount (arithmetic right shift keeps the sign bit influential when
///   any smeared bit is);
/// * `trunc` drops bits at or above the target width; `zext` and
///   `bitcast` are bit-identities; `sext` folds influence of the
///   replicated high bits into the source sign bit;
/// * comparisons, float arithmetic, value-conversion float casts,
///   `select` conditions, and variable-amount shifts are pure but mix
///   bits arbitrarily: all-or-nothing influence;
/// * `phi` and `select` values are verbatim copies;
/// * everything else — loads, stores, geps, calls, returns, branches,
///   trapping division — makes every operand bit influential.
fn influence_masks(module: &Module) -> Vec<Vec<u64>> {
    module.funcs.iter().map(influence_masks_fn).collect()
}

fn influence_masks_fn(func: &fiq_ir::Function) -> Vec<u64> {
    let mut inf = vec![0u64; func.insts.len()];
    let order: Vec<_> = func
        .block_ids()
        .flat_map(|bb| func.block(bb).insts.iter().copied())
        .collect();
    // Monotone on a finite bit lattice: iterate (consumers before
    // producers, so acyclic chains settle in one pass) until loop-carried
    // phis stop widening.
    loop {
        let mut changed = false;
        for &id in order.iter().rev() {
            let inst = func.inst(id);
            let out = inf[id.index()];
            let mut add = |v: Value, m: u64| {
                if let Some(d) = v.as_inst() {
                    let slot = &mut inf[d.index()];
                    if *slot | m != *slot {
                        *slot |= m;
                        changed = true;
                    }
                }
            };
            match &inst.kind {
                InstKind::Binary { op, lhs, rhs } if !op.can_trap() => match op {
                    BinOp::And => {
                        add(*lhs, out & const_bits(*rhs));
                        add(*rhs, out & const_bits(*lhs));
                    }
                    BinOp::Or | BinOp::Xor => {
                        add(*lhs, out);
                        add(*rhs, out);
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul => {
                        let m = match int_width(&inst.ty) {
                            Some(w) => below_msb(out & low_mask(w)),
                            None => u64::MAX,
                        };
                        add(*lhs, m);
                        add(*rhs, m);
                    }
                    BinOp::Shl | BinOp::LShr | BinOp::AShr if int_width(&inst.ty) == Some(64) => {
                        match rhs.as_const() {
                            Some(Constant::Int(_, k)) => {
                                let k = (k % 64) as u32;
                                let m = match op {
                                    BinOp::Shl => out >> k,
                                    BinOp::LShr => out << k,
                                    _ => {
                                        (out << k) | if out >> (63 - k) != 0 { 1 << 63 } else { 0 }
                                    }
                                };
                                add(*lhs, m);
                            }
                            _ => {
                                add(*lhs, gate(out));
                                add(*rhs, gate(out));
                            }
                        }
                    }
                    _ => {
                        // Float arithmetic, narrow shifts: pure and
                        // non-trapping, unknown bit mapping.
                        add(*lhs, gate(out));
                        add(*rhs, gate(out));
                    }
                },
                InstKind::ICmp { lhs, rhs, .. } | InstKind::FCmp { lhs, rhs, .. } => {
                    add(*lhs, gate(out));
                    add(*rhs, gate(out));
                }
                InstKind::Cast { op, val } => match op {
                    CastOp::Trunc => {
                        let w = int_width(&inst.ty).unwrap_or(64);
                        add(*val, out & low_mask(w));
                    }
                    CastOp::ZExt | CastOp::Bitcast => add(*val, out),
                    CastOp::SExt => {
                        let m = match val.as_inst().map(|d| &func.inst(d).ty).and_then(int_width) {
                            Some(w) => {
                                (out & low_mask(w - 1))
                                    | if out >> (w - 1) != 0 { 1 << (w - 1) } else { 0 }
                            }
                            None => u64::MAX,
                        };
                        add(*val, m);
                    }
                    CastOp::SiToFp | CastOp::FpTrunc | CastOp::FpExt => add(*val, gate(out)),
                    // FpToSi can trap on out-of-range; pointer casts leak
                    // provenance: fully influential.
                    _ => add(*val, u64::MAX),
                },
                InstKind::Phi { incomings } => {
                    for &(_, v) in incomings {
                        add(v, out);
                    }
                }
                InstKind::Select {
                    cond,
                    then_val,
                    else_val,
                } => {
                    add(*cond, gate(out));
                    add(*then_val, out);
                    add(*else_val, out);
                }
                _ => inst.for_each_operand(|v| add(v, u64::MAX)),
            }
        }
        if !changed {
            break;
        }
    }
    inf
}

/// Runs the instrumented golden run and builds the module's propagation
/// summary.
///
/// # Errors
///
/// Errors when the dynamic instance count exceeds
/// [`MAX_EXACT_INSTANCES`], when interpreter setup fails, or when the
/// run disagrees with `profile` (stale profile).
pub fn analyze_llfi(module: &Module, profile: &LlfiProfile) -> Result<LlfiAnalysis, String> {
    let tracked = llfi_candidates(module, Category::All);
    let mut instances = 0u64;
    for (f, fbits) in tracked.iter().enumerate() {
        for (i, &b) in fbits.iter().enumerate() {
            if b {
                instances += profile.counts[f][i];
            }
        }
    }
    if instances > MAX_EXACT_INSTANCES {
        return Err(format!(
            "fault space too large for exact collapse: {instances} dynamic candidate \
             instances (limit {MAX_EXACT_INSTANCES}); use --collapse sampled"
        ));
    }
    let hook = LlfiScanHook {
        tracked,
        activated: module
            .funcs
            .iter()
            .map(|f| vec![Vec::new(); f.insts.len()])
            .collect(),
        live: HashMap::new(),
    };
    let opts = InterpOptions {
        max_steps: profile.golden_steps.saturating_add(1),
        ..InterpOptions::default()
    };
    let mut interp = Interp::new(module, opts, hook).map_err(|t: Trap| t.to_string())?;
    let result = interp.run();
    if !result.finished() {
        return Err(format!(
            "collapse analysis golden run did not finish: {:?}",
            result.status
        ));
    }
    let hook = interp.into_hook();
    for (f, fv) in hook.activated.iter().enumerate() {
        for (i, v) in fv.iter().enumerate() {
            if hook.tracked[f][i] && v.len() as u64 != profile.counts[f][i] {
                return Err("collapse analysis disagrees with the profile \
                     (module changed since profiling?)"
                    .into());
            }
        }
    }
    Ok(LlfiAnalysis {
        activated: hook.activated,
        masks: influence_masks(module),
    })
}

/// Every dynamic instance of an LLFI cell in `(site, instance)` order,
/// its bits split by `analysis` (all dormant without one).
pub(crate) fn llfi_space<'a>(
    module: &'a Module,
    profile: &LlfiProfile,
    cat: Category,
    analysis: Option<&'a LlfiAnalysis>,
) -> impl Iterator<Item = (LlfiInjection, Split)> + 'a {
    per_site(profile.cumulative(module, cat)).flat_map(move |(site, count)| {
        let (f, i) = (site.func.index(), site.inst.index());
        let all = low_mask(llfi_width(module, site));
        (1..=count).map(move |instance| {
            // An instance read while live is residual in its influential
            // bits and masked in the rest.
            let (read, infl) = match analysis {
                Some(a) if a.activated[f][i][(instance - 1) as usize] => (all, a.masks[f][i]),
                _ => (0, 0),
            };
            let inj = LlfiInjection {
                site,
                instance,
                bit: 0,
            };
            let residual = read & infl;
            (
                inj,
                Split {
                    all,
                    high: 0,
                    read,
                    residual,
                },
            )
        })
    })
}

/// Collapses one LLFI cell's fault space into a class-weighted plan:
/// `(injection, class_size)` pairs — at most one dormant-class and one
/// masked-class representative followed by every residual point, in
/// `(site, instance, bit)` order. Deterministic: no randomness anywhere.
pub fn collapse_llfi(
    module: &Module,
    profile: &LlfiProfile,
    cat: Category,
    analysis: &LlfiAnalysis,
) -> (Vec<(LlfiInjection, u64)>, CollapseStats) {
    collapse(llfi_space(module, profile, cat, Some(analysis)))
}

// ---------------------------------------------------------------------------
// PINFI (asm level)
// ---------------------------------------------------------------------------

/// Propagation summary for one program: per-instance bit verdicts for
/// every injectable instruction. Computed once per program and shared by
/// every category cell of a campaign.
#[derive(Debug)]
pub struct PinfiAnalysis {
    /// `verdicts[idx][k]` — classification of each bit of the `k+1`-th
    /// dynamic execution's destination.
    verdicts: Vec<Vec<BitClasses>>,
}

/// Sentinel node id: the location's current value predates every tracked
/// write (program-entry state, or stack memory).
const NO_NODE: u32 = u32::MAX;

/// One physical register-file write during the instrumented golden run —
/// a value instance in the dynamic dataflow graph.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Bits of this value whose corruption can reach observable behavior
    /// (memory, control flow, calls, traps, output). Filled by the
    /// backward pass over the read edges.
    inf: u64,
}

/// A read edge of the dynamic dataflow graph: how the consuming
/// instruction transforms the influence of the values *it* writes into
/// influence on the value it read. `dst`/`flags`/`out` are node ids of
/// the consumer's writes, resolved during the backward pass (every read
/// of those writes is later in the trace, so their influence is final by
/// the time the edge is evaluated).
#[derive(Debug, Clone, Copy)]
enum Flow {
    /// A fixed contribution: effectful consumers (memory addresses and
    /// data, control transfers, calls, trapping division, shift counts)
    /// make every bit influential; a `jcc` makes exactly the flag bits
    /// its condition depends on influential.
    Bits(u64),
    /// Bit-identity copy (`mov`, `movsd`, `movq`).
    Ident { out: u32 },
    /// An ALU operand: a per-op bit rule on the written GPR, plus
    /// all-or-nothing flow into the written FLAGS (any operand bit can
    /// perturb CF/ZF/SF/OF/PF), all windowed by `mask` — the other
    /// operand's constant for `and`, everything otherwise.
    Alu {
        dst: u32,
        flags: u32,
        op: AluOp,
        mask: u64,
    },
    /// The shifted operand of a constant-amount shift: the result mask
    /// relocated by the amount, plus all-or-nothing FLAGS flow.
    Shift {
        dst: u32,
        flags: u32,
        op: ShiftOp,
        k: u32,
    },
    /// A pure, non-trapping consumer with an unknown bit mapping (float
    /// arithmetic, int↔float conversions, compare operands): everything
    /// or nothing, depending on whether the consumer's writes influence
    /// anything at all.
    Gate { out: u32 },
    /// A fixed bit set, gated on the consumer's influence (`setcc` reads
    /// its condition's flags; `cqo` reads only rax's sign bit).
    GateBits { out: u32, bits: u64 },
    /// Sign-extending load of the low `w` bits (`movsx`): bit `b < w−1`
    /// maps to result bit `b`; the sign bit replicates upward.
    Sext { out: u32, w: u32 },
}

impl Flow {
    /// The influence this edge contributes to its producer.
    fn eval(self, nodes: &[Node]) -> u64 {
        let inf = |id: u32| {
            if id == NO_NODE {
                0
            } else {
                nodes[id as usize].inf
            }
        };
        match self {
            Flow::Bits(m) => m,
            Flow::Ident { out } => inf(out),
            Flow::Alu {
                dst,
                flags,
                op,
                mask,
            } => {
                let d = inf(dst);
                let base = match op {
                    AluOp::And | AluOp::Or | AluOp::Xor => d,
                    AluOp::Add | AluOp::Sub | AluOp::Imul => below_msb(d),
                };
                (base | gate(inf(flags))) & mask
            }
            Flow::Shift { dst, flags, op, k } => {
                let d = inf(dst);
                let m = match op {
                    ShiftOp::Shl => d >> k,
                    ShiftOp::Shr => d << k,
                    ShiftOp::Sar => (d << k) | if d >> (63 - k) != 0 { 1 << 63 } else { 0 },
                };
                m | gate(inf(flags))
            }
            Flow::Gate { out } => gate(inf(out)),
            Flow::GateBits { out, bits } => {
                if inf(out) != 0 {
                    bits
                } else {
                    0
                }
            }
            Flow::Sext { out, w } => {
                let o = inf(out);
                (o & low_mask(w - 1))
                    | if o >> (w - 1) != 0 {
                        1u64 << (w - 1)
                    } else {
                        0
                    }
            }
        }
    }
}

/// The instrumented-golden-run hook behind [`analyze_pinfi`]: one pass
/// that (a) mirrors the injection hook's read/overwrite model to decide
/// per-instance *activation*, and (b) records the dynamic dataflow graph
/// — a node per physical register-file write, an edge per read — so a
/// backward sweep can compute, per instance, which bits can reach
/// observable behavior.
///
/// The two trackings deliberately differ: hook liveness mirrors
/// `overwrites_fault` (which models `dest()` writes only), while the
/// graph follows the machine's *physical* writes — `cqo` rewrites rdx
/// with no modeled destination, and ALU/shift/neg rewrite FLAGS while
/// their modeled destination is the GPR. A read after physical death
/// observes golden state (the edge lands on the newer node), making the
/// fault benign even though the hook counts it activated.
struct PinfiScanHook<'p> {
    prog: &'p AsmProgram,
    dests: Vec<Option<RegId>>,
    /// Per-instance hook-read accumulation: which bits the injector's
    /// activation model would consider read while the fault is live
    /// (all-or-nothing for GPR/XMM, the condition masks for FLAGS).
    read_mask: Vec<Vec<u64>>,
    /// Node id of each instance's destination write.
    inst_node: Vec<Vec<u32>>,
    /// Hook liveness: the instance an injected fault at this location
    /// would belong to.
    hook_gpr: [Option<(u32, u32)>; 16],
    hook_xmm: [Option<(u32, u32)>; 16],
    hook_flags: Option<(u32, u32)>,
    /// Dynamic dataflow graph.
    nodes: Vec<Node>,
    edges: Vec<(u32, Flow)>,
    /// Current physical defining node per location.
    phys_gpr: [u32; 16],
    phys_xmm: [u32; 16],
    phys_flags: u32,
}

impl PinfiScanHook<'_> {
    fn new_node(&mut self) -> u32 {
        self.nodes.push(Node { inf: 0 });
        (self.nodes.len() - 1) as u32
    }

    fn edge_gpr(&mut self, r: Reg, f: Flow) {
        let p = self.phys_gpr[r.index()];
        if p != NO_NODE {
            self.edges.push((p, f));
        }
    }

    fn edge_xmm(&mut self, x: Xmm, f: Flow) {
        let p = self.phys_xmm[x.index()];
        if p != NO_NODE {
            self.edges.push((p, f));
        }
    }

    fn edge_flags(&mut self, f: Flow) {
        if self.phys_flags != NO_NODE {
            self.edges.push((self.phys_flags, f));
        }
    }

    /// Memory-operand address registers: a corrupted address reaches a
    /// different cell or traps — fully influential.
    fn mem_edges(&mut self, m: &MemRef) {
        if let Some(b) = m.base {
            self.edge_gpr(b, Flow::Bits(u64::MAX));
        }
        if let Some(i) = m.index {
            self.edge_gpr(i, Flow::Bits(u64::MAX));
        }
    }

    fn operand_edge(&mut self, op: &Operand, f: Flow) {
        match op {
            Operand::Reg(r) => self.edge_gpr(*r, f),
            Operand::Mem(m) => self.mem_edges(m),
            Operand::Imm(_) => {}
        }
    }

    fn xoperand_edge(&mut self, op: &XOperand, f: Flow) {
        match op {
            XOperand::Xmm(x) => self.edge_xmm(*x, f),
            XOperand::Mem(m) => self.mem_edges(m),
        }
    }

    /// Graph step for one retirement: record read edges against the old
    /// physical map, then allocate nodes for this instruction's physical
    /// writes and advance the map. Returns the node of the modeled
    /// (`dest()`) destination, when there is one.
    fn graph_step(&mut self, inst: &AInst) -> Option<u32> {
        let next = self.nodes.len() as u32;
        match inst {
            AInst::Mov { dst, src, .. } => match dst {
                Operand::Reg(d) => {
                    self.operand_edge(src, Flow::Ident { out: next });
                    let n = self.new_node();
                    self.phys_gpr[d.index()] = n;
                    Some(n)
                }
                Operand::Mem(m) => {
                    self.operand_edge(src, Flow::Bits(u64::MAX));
                    self.mem_edges(m);
                    None
                }
                Operand::Imm(_) => None,
            },
            AInst::Movsx { width, dst, src } => {
                let w = (width.bytes() * 8) as u32;
                self.operand_edge(src, Flow::Sext { out: next, w });
                let n = self.new_node();
                self.phys_gpr[dst.index()] = n;
                Some(n)
            }
            AInst::Lea { dst, addr } => {
                // Linear arithmetic: base + index·scale + disp. A flip of
                // bit `b` perturbs result bits at or above `b` only.
                let f = Flow::Alu {
                    dst: next,
                    flags: NO_NODE,
                    op: AluOp::Add,
                    mask: u64::MAX,
                };
                if let Some(b) = addr.base {
                    self.edge_gpr(b, f);
                }
                if let Some(i) = addr.index {
                    self.edge_gpr(i, f);
                }
                let n = self.new_node();
                self.phys_gpr[dst.index()] = n;
                Some(n)
            }
            AInst::Alu { op, dst, src } => {
                let (dst_id, flags_id) = (next, next + 1);
                let dst_mask = match (op, src) {
                    (AluOp::And, Operand::Imm(c)) => *c as u64,
                    _ => u64::MAX,
                };
                self.edge_gpr(
                    *dst,
                    Flow::Alu {
                        dst: dst_id,
                        flags: flags_id,
                        op: *op,
                        mask: dst_mask,
                    },
                );
                self.operand_edge(
                    src,
                    Flow::Alu {
                        dst: dst_id,
                        flags: flags_id,
                        op: *op,
                        mask: u64::MAX,
                    },
                );
                let n = self.new_node();
                self.phys_flags = self.new_node();
                self.phys_gpr[dst.index()] = n;
                Some(n)
            }
            AInst::Shift { op, dst, src } => {
                let (dst_id, flags_id) = (next, next + 1);
                match src {
                    Operand::Imm(k) => self.edge_gpr(
                        *dst,
                        Flow::Shift {
                            dst: dst_id,
                            flags: flags_id,
                            op: *op,
                            k: (*k & 63) as u32,
                        },
                    ),
                    _ => {
                        // Variable count: both the value and the count can
                        // steer any bit anywhere (including into FLAGS).
                        self.edge_gpr(*dst, Flow::Bits(u64::MAX));
                        self.operand_edge(src, Flow::Bits(u64::MAX));
                    }
                }
                let n = self.new_node();
                self.phys_flags = self.new_node();
                self.phys_gpr[dst.index()] = n;
                Some(n)
            }
            AInst::Neg { dst } => {
                let (dst_id, flags_id) = (next, next + 1);
                self.edge_gpr(
                    *dst,
                    Flow::Alu {
                        dst: dst_id,
                        flags: flags_id,
                        op: AluOp::Sub,
                        mask: u64::MAX,
                    },
                );
                let n = self.new_node();
                self.phys_flags = self.new_node();
                self.phys_gpr[dst.index()] = n;
                Some(n)
            }
            AInst::Cqo => {
                // rdx := sign of rax: only rax's bit 63 matters, and only
                // if the new rdx influences anything.
                self.edge_gpr(
                    Reg::Rax,
                    Flow::GateBits {
                        out: next,
                        bits: 1 << 63,
                    },
                );
                let n = self.new_node();
                self.phys_gpr[Reg::Rdx.index()] = n;
                None
            }
            AInst::Idiv { src } => {
                // Trapping: corrupted inputs can divide by zero or
                // overflow the quotient.
                self.edge_gpr(Reg::Rax, Flow::Bits(u64::MAX));
                self.edge_gpr(Reg::Rdx, Flow::Bits(u64::MAX));
                self.operand_edge(src, Flow::Bits(u64::MAX));
                let n = self.new_node();
                self.phys_gpr[Reg::Rax.index()] = n;
                self.phys_gpr[Reg::Rdx.index()] = self.new_node();
                Some(n)
            }
            AInst::Cmp { lhs, rhs } | AInst::Test { lhs, rhs } => {
                self.operand_edge(lhs, Flow::Gate { out: next });
                self.operand_edge(rhs, Flow::Gate { out: next });
                let n = self.new_node();
                self.phys_flags = n;
                Some(n)
            }
            AInst::Setcc { cond, dst } => {
                self.edge_flags(Flow::GateBits {
                    out: next,
                    bits: cond.depends_mask(),
                });
                let n = self.new_node();
                self.phys_gpr[dst.index()] = n;
                Some(n)
            }
            AInst::Jmp { .. } => None,
            AInst::Jcc { cond, .. } => {
                self.edge_flags(Flow::Bits(cond.depends_mask()));
                None
            }
            AInst::Movsd { dst, src } => match dst {
                XOperand::Xmm(x) => {
                    self.xoperand_edge(src, Flow::Ident { out: next });
                    let n = self.new_node();
                    self.phys_xmm[x.index()] = n;
                    Some(n)
                }
                XOperand::Mem(m) => {
                    self.xoperand_edge(src, Flow::Bits(u64::MAX));
                    self.mem_edges(m);
                    None
                }
            },
            AInst::Sse { dst, src, .. } => {
                self.edge_xmm(*dst, Flow::Gate { out: next });
                self.xoperand_edge(src, Flow::Gate { out: next });
                let n = self.new_node();
                self.phys_xmm[dst.index()] = n;
                Some(n)
            }
            AInst::Ucomisd { lhs, rhs } => {
                self.edge_xmm(*lhs, Flow::Gate { out: next });
                self.xoperand_edge(rhs, Flow::Gate { out: next });
                let n = self.new_node();
                self.phys_flags = n;
                Some(n)
            }
            AInst::Cvtsi2sd { dst, src } => {
                self.operand_edge(src, Flow::Gate { out: next });
                let n = self.new_node();
                self.phys_xmm[dst.index()] = n;
                Some(n)
            }
            AInst::Cvttsd2si { dst, src } => {
                self.xoperand_edge(src, Flow::Gate { out: next });
                let n = self.new_node();
                self.phys_gpr[dst.index()] = n;
                Some(n)
            }
            AInst::MovqRX { dst, src } => {
                self.edge_gpr(*src, Flow::Ident { out: next });
                let n = self.new_node();
                self.phys_xmm[dst.index()] = n;
                Some(n)
            }
            AInst::MovqXR { dst, src } => {
                self.edge_xmm(*src, Flow::Ident { out: next });
                let n = self.new_node();
                self.phys_gpr[dst.index()] = n;
                Some(n)
            }
            AInst::CallExt { ext } => {
                // Argument registers reach program output.
                inst.for_each_read(&mut |r| match r {
                    RegId::Gpr(g) => {
                        let p = self.phys_gpr[g.index()];
                        if p != NO_NODE {
                            self.edges.push((p, Flow::Bits(u64::MAX)));
                        }
                    }
                    RegId::Xmm(x) => {
                        let p = self.phys_xmm[x.index()];
                        if p != NO_NODE {
                            self.edges.push((p, Flow::Bits(u64::MAX)));
                        }
                    }
                    RegId::Flags(_) => {}
                });
                if ext.is_float_fn() {
                    let n = self.new_node();
                    self.phys_xmm[0] = n;
                }
                None
            }
            AInst::Call { .. } | AInst::Ret | AInst::Push { .. } | AInst::Pop { .. } => {
                // Stack traffic: addresses and pushed data are fully
                // influential; rsp keeps its defining node (the update is
                // a bit-preserving offset, and its reads are Bits(MAX)
                // anyway).
                if let AInst::Push { src } = inst {
                    self.operand_edge(src, Flow::Bits(u64::MAX));
                }
                self.edge_gpr(Reg::Rsp, Flow::Bits(u64::MAX));
                if let AInst::Pop { dst } = inst {
                    let n = self.new_node();
                    self.phys_gpr[dst.index()] = n;
                    return Some(n);
                }
                None
            }
        }
    }
}

impl AsmHook for PinfiScanHook<'_> {
    fn on_retire(&mut self, idx: usize, _st: &mut MachState) {
        let prog = self.prog;
        let inst = &prog.insts[idx];

        // Hook-activation reads first: the retired instruction consumed
        // its sources before writing its destination, exactly as the
        // injection hook tracks an existing fault before considering
        // this index for injection.
        inst.for_each_read(&mut |r| {
            let hit = match r {
                RegId::Gpr(g) => self.hook_gpr[g.index()].map(|(i, k)| (i, k, u64::MAX)),
                RegId::Flags(m) => self.hook_flags.map(|(i, k)| (i, k, m)),
                RegId::Xmm(x) => self.hook_xmm[x.index()].map(|(i, k)| (i, k, u64::MAX)),
            };
            if let Some((i, k, m)) = hit {
                self.read_mask[i as usize][k as usize] |= m;
            }
        });

        // Dataflow-graph step: edges against the old physical map, then
        // fresh nodes for this instruction's physical writes.
        let dest_node = self.graph_step(inst);

        // Hook overwrites, mirroring `overwrites_fault`.
        match inst {
            AInst::CallExt { ext } => {
                if ext.is_float_fn() {
                    self.hook_xmm[0] = None;
                }
            }
            AInst::Idiv { .. } => {
                self.hook_gpr[Reg::Rax.index()] = None;
                self.hook_gpr[Reg::Rdx.index()] = None;
            }
            AInst::Cqo => {}
            _ => match inst.dest() {
                Some(RegId::Gpr(g)) => self.hook_gpr[g.index()] = None,
                Some(RegId::Xmm(x)) => self.hook_xmm[x.index()] = None,
                Some(RegId::Flags(_)) => self.hook_flags = None,
                None => {}
            },
        }

        // Finally, this retirement defines a fresh injectable instance.
        if let Some(d) = self.dests[idx] {
            let k = self.read_mask[idx].len() as u32;
            self.read_mask[idx].push(0);
            self.inst_node[idx]
                .push(dest_node.expect("injectable instructions write a tracked location"));
            match d {
                RegId::Gpr(g) => self.hook_gpr[g.index()] = Some((idx as u32, k)),
                RegId::Xmm(x) => self.hook_xmm[x.index()] = Some((idx as u32, k)),
                RegId::Flags(_) => self.hook_flags = Some((idx as u32, k)),
            }
        }
    }
}

/// Runs the instrumented golden run and builds the program's propagation
/// summary.
///
/// # Errors
///
/// Errors when the dynamic instance count exceeds
/// [`MAX_EXACT_INSTANCES`], when machine setup fails, or when the run
/// disagrees with `profile` (stale profile).
pub fn analyze_pinfi(prog: &AsmProgram, profile: &PinfiProfile) -> Result<PinfiAnalysis, String> {
    let dests: Vec<Option<RegId>> = (0..prog.insts.len())
        .map(|i| injection_dest(prog, i))
        .collect();
    let instances: u64 = dests
        .iter()
        .zip(&profile.counts)
        .filter(|(d, _)| d.is_some())
        .map(|(_, &c)| c)
        .sum();
    if instances > MAX_EXACT_INSTANCES {
        return Err(format!(
            "fault space too large for exact collapse: {instances} dynamic candidate \
             instances (limit {MAX_EXACT_INSTANCES}); use --collapse sampled"
        ));
    }
    let hook = PinfiScanHook {
        prog,
        dests,
        read_mask: vec![Vec::new(); prog.insts.len()],
        inst_node: vec![Vec::new(); prog.insts.len()],
        hook_gpr: [None; 16],
        hook_xmm: [None; 16],
        hook_flags: None,
        nodes: Vec::new(),
        edges: Vec::new(),
        phys_gpr: [NO_NODE; 16],
        phys_xmm: [NO_NODE; 16],
        phys_flags: NO_NODE,
    };
    let opts = MachOptions {
        max_steps: profile.golden_steps.saturating_add(1),
    };
    let mut machine = Machine::new(prog, opts, hook).map_err(|t| t.to_string())?;
    let result = machine.run();
    if result.status != RunStatus::Finished {
        return Err(format!(
            "collapse analysis golden run did not finish: {:?}",
            result.status
        ));
    }
    let mut hook = machine.into_hook();
    for (i, v) in hook.read_mask.iter().enumerate() {
        if hook.dests[i].is_some() && v.len() as u64 != profile.counts[i] {
            return Err("collapse analysis disagrees with the profile \
                 (program changed since profiling?)"
                .into());
        }
    }

    // Backward influence pass. Edges are chronological; every read of a
    // consumer's writes is strictly later in the trace than the edge that
    // created them, so one reverse sweep sees each consumer's influence
    // fully accumulated before evaluating its operand edges.
    for i in (0..hook.edges.len()).rev() {
        let (producer, flow) = hook.edges[i];
        let c = flow.eval(&hook.nodes);
        hook.nodes[producer as usize].inf |= c;
    }

    // Per-instance verdicts: bits hook-read while live split into
    // residual (can reach observable behavior) and benign; bits never
    // hook-read are dormant.
    let verdicts = (0..prog.insts.len())
        .map(|idx| {
            hook.read_mask[idx]
                .iter()
                .zip(&hook.inst_node[idx])
                .map(|(&rm, &n)| {
                    let inf = hook.nodes[n as usize].inf;
                    BitClasses {
                        residual: inf & rm,
                        benign: rm & !inf,
                    }
                })
                .collect()
        })
        .collect();
    Ok(PinfiAnalysis { verdicts })
}

/// Every dynamic instance of a PINFI cell in `(site, instance)` order,
/// its bits split by `analysis` (all dormant without one).
pub(crate) fn pinfi_space<'a>(
    prog: &'a AsmProgram,
    profile: &PinfiProfile,
    cat: Category,
    opts: PinfiOptions,
    analysis: Option<&'a PinfiAnalysis>,
) -> impl Iterator<Item = (PinfiInjection, Split)> + 'a {
    per_site(profile.cumulative(prog, cat)).flat_map(move |(idx, count)| {
        let (dest, all, high) = pinfi_bits(prog, idx, opts);
        (1..=count).map(move |instance| {
            let v = analysis.map_or(BitClasses::default(), |a| {
                a.verdicts[idx][(instance - 1) as usize]
            });
            let inj = PinfiInjection {
                idx,
                instance,
                dest,
                bit: 0,
            };
            let (read, residual) = ((v.residual | v.benign) & all, v.residual & all);
            (
                inj,
                Split {
                    all,
                    high,
                    read,
                    residual,
                },
            )
        })
    })
}

/// Collapses one PINFI cell's fault space into a class-weighted plan —
/// the asm-level counterpart of [`collapse_llfi`].
pub fn collapse_pinfi(
    prog: &AsmProgram,
    profile: &PinfiProfile,
    cat: Category,
    opts: PinfiOptions,
    analysis: &PinfiAnalysis,
) -> (Vec<(PinfiInjection, u64)>, CollapseStats) {
    collapse(pinfi_space(prog, profile, cat, opts, Some(analysis)))
}

// ---------------------------------------------------------------------------
// Both levels: classes, enumeration, cross-checking
// ---------------------------------------------------------------------------

/// The injectable bits of one dynamic instance, split by class: the
/// bits of `all` not `read` while live are dormant, read bits outside
/// `residual` are masked. Bits `64..64 + high` (the upper XMM half with
/// pruning off) are physically written and read by nothing in the
/// scalar-double ISA, so they are always dormant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Split {
    all: u64,
    high: u32,
    read: u64,
    residual: u64,
}

impl Split {
    fn dormant(self) -> u64 {
        self.all & !self.read
    }

    fn masked(self) -> u64 {
        self.read & !self.residual
    }
}

/// A fault-space point; the points of one dynamic instance differ only
/// in the flipped bit.
trait Point: Copy {
    fn at(self, bit: u32) -> Self;
}

impl Point for LlfiInjection {
    fn at(self, bit: u32) -> Self {
        LlfiInjection { bit, ..self }
    }
}

impl Point for PinfiInjection {
    fn at(self, bit: u32) -> Self {
        PinfiInjection { bit, ..self }
    }
}

/// `(site, dynamic count)` pairs of a cumulative site table.
fn per_site<T>(cum: Vec<(T, u64)>) -> impl Iterator<Item = (T, u64)> {
    let mut prev = 0;
    cum.into_iter().map(move |(site, c)| {
        let count = c - prev;
        prev = c;
        (site, count)
    })
}

/// Class accounting of a cell, counted without materializing a point.
pub(crate) fn tally<P>(space: impl Iterator<Item = (P, Split)>) -> CollapseStats {
    let mut stats = CollapseStats::default();
    space.for_each(|(_, s)| stats.add(s));
    stats
}

/// The class-weighted plan of a cell: the dormant class, the masked
/// class, then the residual singletons, each class represented by its
/// first point in `(site, instance, bit)` order.
fn collapse<P: Point>(space: impl Iterator<Item = (P, Split)>) -> (Vec<(P, u64)>, CollapseStats) {
    let mut dormant = None;
    let mut masked = None;
    let mut residual = Vec::new();
    let mut stats = CollapseStats::default();
    for (p, s) in space {
        stats.add(s);
        dormant = dormant.or_else(|| bits(s.dormant(), s.high).next().map(|b| p.at(b)));
        masked = masked.or_else(|| bits(s.masked(), 0).next().map(|b| p.at(b)));
        residual.extend(bits(s.residual, 0).map(|b| (p.at(b), 1)));
    }
    let classes = [(dormant, stats.dormant), (masked, stats.masked)];
    let mut out = Vec::with_capacity(residual.len() + 2);
    out.extend(classes.into_iter().filter_map(|(p, n)| Some((p?, n))));
    out.extend(residual);
    (out, stats)
}

/// The class guard: a cell with more classes than one campaign cell
/// may plan ([`MAX_EXACT_INSTANCES`], the sampled path's injection limit
/// too) is refused on its [`tally`], before a point is allocated.
pub(crate) fn check_classes(stats: CollapseStats, golden_steps: u64) -> Result<(), String> {
    let classes = stats.classes();
    if classes <= MAX_EXACT_INSTANCES {
        return Ok(());
    }
    Err(format!(
        "exact collapse needs {classes} classes over {} fault-space points, \
         about {classes} golden runs of {golden_steps} steps; the per-cell limit is \
         {MAX_EXACT_INSTANCES} (use --collapse sampled)",
        stats.space()
    ))
}

/// Every point of a cell, in `(site, instance, bit)` order.
fn enumerate<P: Point>(space: impl Iterator<Item = (P, Split)>) -> Vec<P> {
    space
        .flat_map(|(p, s)| bits(s.all, s.high).map(move |b| p.at(b)))
        .collect()
}

/// Every point of an LLFI cell's fault space, in `(site, instance, bit)`
/// order.
pub fn enumerate_llfi(module: &Module, profile: &LlfiProfile, cat: Category) -> Vec<LlfiInjection> {
    enumerate(llfi_space(module, profile, cat, None))
}

/// Every point of a PINFI cell's fault space, in `(site, instance, bit)`
/// order.
pub fn enumerate_pinfi(
    prog: &AsmProgram,
    profile: &PinfiProfile,
    cat: Category,
    opts: PinfiOptions,
) -> Vec<PinfiInjection> {
    enumerate(pinfi_space(prog, profile, cat, opts, None))
}

/// Result of running one cell both collapsed and brute-force: the two
/// weighted totals must agree bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollapseCheck {
    /// Class accounting from the collapse pass.
    pub stats: CollapseStats,
    /// Representatives actually executed by the collapsed pass.
    pub executed: u64,
    /// Class-weighted outcome totals from the collapsed pass.
    pub collapsed: OutcomeCounts,
    /// Class-weighted step total from the collapsed pass.
    pub collapsed_steps: u64,
    /// Outcome totals from full enumeration.
    pub brute: OutcomeCounts,
    /// Step total from full enumeration.
    pub brute_steps: u64,
}

impl CollapseCheck {
    /// True when the collapsed distribution equals full enumeration
    /// exactly (outcome counts and total steps).
    pub fn matches(&self) -> bool {
        self.collapsed == self.brute && self.collapsed_steps == self.brute_steps
    }
}

/// Runs an LLFI cell collapsed *and* brute-force with the same step
/// budget and returns both distributions for comparison.
///
/// # Errors
///
/// Propagates analysis and interpreter-setup errors.
pub fn cross_check_llfi(
    module: &Module,
    profile: &LlfiProfile,
    cat: Category,
    max_steps: u64,
) -> Result<CollapseCheck, String> {
    let analysis = analyze_llfi(module, profile)?;
    let opts = InterpOptions {
        max_steps,
        ..InterpOptions::default()
    };
    cross_check(
        collapse_llfi(module, profile, cat, &analysis),
        enumerate_llfi(module, profile, cat),
        |inj| run_llfi(module, opts, inj, &profile.golden_output),
    )
}

/// Runs a PINFI cell collapsed *and* brute-force with the same step
/// budget and returns both distributions for comparison.
///
/// # Errors
///
/// Propagates analysis and machine-setup errors.
pub fn cross_check_pinfi(
    prog: &AsmProgram,
    profile: &PinfiProfile,
    cat: Category,
    popts: PinfiOptions,
    max_steps: u64,
) -> Result<CollapseCheck, String> {
    let analysis = analyze_pinfi(prog, profile)?;
    let opts = MachOptions { max_steps };
    cross_check(
        collapse_pinfi(prog, profile, cat, popts, &analysis),
        enumerate_pinfi(prog, profile, cat, popts),
        |inj| run_pinfi(prog, opts, inj, &profile.golden_output),
    )
}

/// Runs a collapsed plan and the brute-force points of the same cell.
fn cross_check<P: Copy>(
    (plan, stats): (Vec<(P, u64)>, CollapseStats),
    brute: Vec<P>,
    run: impl Fn(P) -> Result<InjectionRun, String>,
) -> Result<CollapseCheck, String> {
    let weighted = |points: &mut dyn Iterator<Item = (P, u64)>| {
        let (mut counts, mut steps) = (OutcomeCounts::default(), 0u64);
        for (p, n) in points {
            let r = run(p)?;
            counts.record_n(r.outcome, n);
            steps += r.steps * n;
        }
        Ok::<_, String>((counts, steps))
    };
    let (collapsed, collapsed_steps) = weighted(&mut plan.iter().copied())?;
    let (brute, brute_steps) = weighted(&mut brute.into_iter().map(|p| (p, 1)))?;
    Ok(CollapseCheck {
        stats,
        executed: plan.len() as u64,
        collapsed,
        collapsed_steps,
        brute,
        brute_steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiq_ir::{FuncBuilder, Function, ICmpPred};

    #[test]
    fn influence_mask_and_with_constant() {
        let mut m = Module::new("t");
        let mut f = Function::new("main", vec![], Type::i64());
        let mut b = FuncBuilder::new(&mut f);
        let x = b.binary(BinOp::Add, Value::i64(10), Value::i64(20));
        let y = b.binary(BinOp::And, x, Value::i64(0xff));
        b.ret(Some(y));
        m.add_func(f);
        let masks = influence_masks(&m);
        // x feeds only the and-with-0xff: its influence is the low byte.
        assert_eq!(masks[0][x.as_inst().unwrap().index()], 0xff);
        // y feeds ret: full influence.
        assert_eq!(masks[0][y.as_inst().unwrap().index()], u64::MAX);
    }

    #[test]
    fn influence_mask_union_over_uses() {
        let mut m = Module::new("t");
        let mut f = Function::new("main", vec![], Type::i64());
        let mut b = FuncBuilder::new(&mut f);
        let x = b.binary(BinOp::Add, Value::i64(10), Value::i64(20));
        let a = b.binary(BinOp::And, x, Value::i64(0x0f));
        let c = b.icmp(ICmpPred::Slt, x, Value::i64(0));
        let s = b.select(c, a, Value::i64(0));
        b.ret(Some(s));
        m.add_func(f);
        let masks = influence_masks(&m);
        // x is both and-masked and compared: the compare dominates.
        assert_eq!(masks[0][x.as_inst().unwrap().index()], u64::MAX);
    }

    #[test]
    fn influence_mask_trunc() {
        let mut m = Module::new("t");
        let mut f = Function::new("main", vec![], Type::i64());
        let mut b = FuncBuilder::new(&mut f);
        let x = b.binary(BinOp::Add, Value::i64(300), Value::i64(1));
        let t = b.cast(CastOp::Trunc, x, Type::i8());
        let z = b.cast(CastOp::ZExt, t, Type::i64());
        b.ret(Some(z));
        m.add_func(f);
        let masks = influence_masks(&m);
        assert_eq!(masks[0][x.as_inst().unwrap().index()], 0xff);
    }

    #[test]
    fn collapse_mode_parses() {
        assert_eq!(Collapse::parse("exact"), Some(Collapse::Exact));
        assert_eq!(Collapse::parse("sampled"), Some(Collapse::Sampled));
        assert_eq!(Collapse::parse("bogus"), None);
        assert_eq!(Collapse::default(), Collapse::Sampled);
        assert_eq!(Collapse::Exact.name(), "exact");
    }

    #[test]
    fn stats_space_and_classes() {
        let stats = CollapseStats {
            dormant: 10,
            masked: 5,
            residual: 3,
        };
        assert_eq!(stats.space(), 18);
        assert_eq!(stats.classes(), 5);
        assert_eq!(CollapseStats::default().classes(), 0);
    }
}
