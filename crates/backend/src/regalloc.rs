//! Liveness analysis and linear-scan register allocation.
//!
//! Physical-register constraints (call argument registers, `idiv`'s
//! `rax`/`rdx`, variable shifts' `rcx`) are modelled as *clobber regions*
//! recorded by instruction selection: an interval overlapping a region
//! cannot be assigned any register the region clobbers. Since calls
//! clobber every caller-saved register, intervals live across calls
//! naturally end up in callee-saved registers — producing the
//! paper-relevant push/pop save/restore traffic — or spill to the stack.

use crate::isel::LowerOptions;
use crate::vcode::{FrameSlot, VFunc};
use fiq_asm::{Reg, Xmm};

/// Where a virtual register lives after allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alloc<R> {
    /// A physical register.
    Reg(R),
    /// A frame slot (index into `VFunc::slots`).
    Spill(u32),
}

/// The allocation result for one function.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Per int vreg.
    pub int_alloc: Vec<Alloc<Reg>>,
    /// Per xmm vreg.
    pub xmm_alloc: Vec<Alloc<Xmm>>,
    /// Callee-saved registers that must be saved/restored.
    pub used_callee_saved: Vec<Reg>,
}

/// Integer registers available to the allocator, caller-saved first (the
/// allocator prefers earlier entries). `r9`–`r11` are reserved as spill
/// scratch, `rsp`/`rbp` for the frame.
const INT_CALLER: [Reg; 6] = [Reg::Rax, Reg::Rcx, Reg::Rdx, Reg::Rsi, Reg::Rdi, Reg::R8];
const INT_CALLEE: [Reg; 5] = [Reg::Rbx, Reg::R12, Reg::R13, Reg::R14, Reg::R15];

/// XMM registers available to the allocator (all caller-saved on x86;
/// `xmm13`–`xmm15` reserved as spill scratch).
const XMM_POOL: [u8; 13] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];

#[derive(Debug, Clone, Copy)]
struct Interval {
    vreg: u32,
    start: usize,
    end: usize,
    /// Loop-depth-weighted access count: each def/use contributes
    /// `10^loop_depth`. Spilling the minimum-weight interval keeps
    /// inner-loop values in registers (the classic linear-scan spill
    /// metric).
    weight: f64,
}

/// Runs liveness + linear scan over `vfunc`, appending spill slots to
/// `vfunc.slots`.
pub fn allocate(vfunc: &mut VFunc, opts: LowerOptions) -> Assignment {
    let (int_iv, xmm_iv) = build_intervals(vfunc);
    let (int_hints, xmm_hints) = build_hints(vfunc);

    let mut int_pool: Vec<Reg> = INT_CALLER.to_vec();
    if opts.use_callee_saved {
        int_pool.extend(INT_CALLEE);
    }
    let int_clob = |r: Reg, s: usize, e: usize, clobbers: &[(usize, usize, u16, u16)]| {
        clobbers
            .iter()
            .any(|&(cs, ce, mask, _)| cs <= e && s <= ce && mask & (1 << r.index()) != 0)
    };
    let xmm_clob = |r: Xmm, s: usize, e: usize, clobbers: &[(usize, usize, u16, u16)]| {
        clobbers
            .iter()
            .any(|&(cs, ce, _, mask)| cs <= e && s <= ce && mask & (1 << r.index()) != 0)
    };

    let clobbers = vfunc.clobbers.clone();
    let mut int_alloc = vec![Alloc::Spill(u32::MAX); vfunc.int_vregs as usize];
    let mut xmm_alloc = vec![Alloc::Spill(u32::MAX); vfunc.xmm_vregs as usize];
    let mut spill_slots: Vec<FrameSlot> = Vec::new();
    let base_slot = vfunc.slots.len() as u32;

    linear_scan(
        &int_iv,
        &int_pool,
        |r, s, e| int_clob(r, s, e, &clobbers),
        &int_hints,
        &mut int_alloc,
        &mut spill_slots,
        base_slot,
    );
    let xmm_pool: Vec<Xmm> = XMM_POOL.iter().map(|&i| Xmm(i)).collect();
    linear_scan(
        &xmm_iv,
        &xmm_pool,
        |r, s, e| xmm_clob(r, s, e, &clobbers),
        &xmm_hints,
        &mut xmm_alloc,
        &mut spill_slots,
        base_slot,
    );
    vfunc.slots.extend(spill_slots);

    let mut used_callee_saved: Vec<Reg> = Vec::new();
    for a in &int_alloc {
        if let Alloc::Reg(r) = a {
            if r.is_callee_saved() && !used_callee_saved.contains(r) {
                used_callee_saved.push(*r);
            }
        }
    }
    used_callee_saved.sort_by_key(|r| r.index());

    Assignment {
        int_alloc,
        xmm_alloc,
        used_callee_saved,
    }
}

fn linear_scan<R: Copy + PartialEq>(
    intervals: &[Interval],
    pool: &[R],
    clobbered: impl Fn(R, usize, usize) -> bool,
    hints: &[Option<u32>],
    alloc: &mut [Alloc<R>],
    spill_slots: &mut Vec<FrameSlot>,
    base_slot: u32,
) {
    let mut order: Vec<&Interval> = intervals.iter().collect();
    order.sort_by_key(|iv| (iv.start, iv.end));
    let mut weights: Vec<f64> = Vec::new();
    for iv in intervals {
        if iv.vreg as usize >= weights.len() {
            weights.resize(iv.vreg as usize + 1, 0.0);
        }
        weights[iv.vreg as usize] = iv.weight;
    }
    let mut active: Vec<(usize, R, u32)> = Vec::new(); // (end, reg, vreg)
    for iv in order {
        // An interval whose last event is exactly at this start may share a
        // register: every instruction reads its operands before writing its
        // destination, so a def at position P can reuse a register whose
        // final use is at P. This is what lets move hints coalesce
        // `mov a, b` pairs into self-moves the emitter then deletes.
        active.retain(|&(end, _, _)| end > iv.start);
        let taken: Vec<R> = active.iter().map(|&(_, r, _)| r).collect();
        let ok = |r: R| !taken.contains(&r) && !clobbered(r, iv.start, iv.end);
        // Prefer the register of the hinted source vreg (move coalescing).
        let hinted = hints[iv.vreg as usize].and_then(|h| match alloc[h as usize] {
            Alloc::Reg(r) if pool.contains(&r) && ok(r) => Some(r),
            _ => None,
        });
        let choice = hinted.or_else(|| pool.iter().copied().find(|&r| ok(r)));
        match choice {
            Some(r) => {
                alloc[iv.vreg as usize] = Alloc::Reg(r);
                active.push((iv.end, r, iv.vreg));
            }
            None => {
                // Spill-weight heuristic: among the active intervals whose
                // register the current interval could legally take, evict
                // the one with the lowest access density if it is colder
                // than the current interval (long, rarely-touched values
                // spill; hot loop values stay in registers).
                let victim = active
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, r, _))| !clobbered(r, iv.start, iv.end))
                    .min_by(|(_, a), (_, b)| {
                        weights[a.2 as usize]
                            .partial_cmp(&weights[b.2 as usize])
                            .expect("weights are finite")
                    })
                    .map(|(i, _)| i);
                let slot = base_slot + spill_slots.len() as u32;
                spill_slots.push(FrameSlot { size: 8, align: 8 });
                match victim {
                    Some(i) if weights[active[i].2 as usize] < iv.weight => {
                        let (_, reg, v) = active.remove(i);
                        alloc[v as usize] = Alloc::Spill(slot);
                        alloc[iv.vreg as usize] = Alloc::Reg(reg);
                        active.push((iv.end, reg, iv.vreg));
                    }
                    _ => {
                        alloc[iv.vreg as usize] = Alloc::Spill(slot);
                    }
                }
            }
        }
    }
}

/// Move hints: `hint[dst] = src` for plain register-to-register copies,
/// nudging the allocator toward assigning both the same register so the
/// emitter can delete the (then self-) move.
fn build_hints(vfunc: &VFunc) -> (Vec<Option<u32>>, Vec<Option<u32>>) {
    use crate::vcode::{VInst, VOperand, VXOperand, VR, XV};
    let mut int_hints = vec![None; vfunc.int_vregs as usize];
    let mut xmm_hints = vec![None; vfunc.xmm_vregs as usize];
    for inst in &vfunc.insts {
        match inst {
            VInst::Mov {
                dst: VOperand::Reg(VR::V(d)),
                src: VOperand::Reg(VR::V(s)),
                ..
            } => int_hints[*d as usize] = Some(*s),
            VInst::Movsd {
                dst: VXOperand::Xmm(XV::V(d)),
                src: VXOperand::Xmm(XV::V(s)),
            } => xmm_hints[*d as usize] = Some(*s),
            _ => {}
        }
    }
    (int_hints, xmm_hints)
}

/// Computes live intervals for both register spaces via block-level
/// liveness (backward dataflow) refined with per-instruction positions.
fn build_intervals(vfunc: &VFunc) -> (Vec<Interval>, Vec<Interval>) {
    let nblocks = vfunc.block_ranges.len();
    // Successor blocks from the branch instructions in each block.
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); nblocks];
    for (b, &(s, e)) in vfunc.block_ranges.iter().enumerate() {
        for inst in &vfunc.insts[s..e] {
            for t in inst.block_targets() {
                if !succs[b].contains(&t) {
                    succs[b].push(t);
                }
            }
        }
    }
    // Per-inst use/def, per space.
    let uds: Vec<crate::vcode::UseDef> = vfunc
        .insts
        .iter()
        .map(super::vcode::VInst::use_def)
        .collect();
    let depth = position_loop_depth(vfunc);

    let int_iv = space_intervals(vfunc, &succs, vfunc.int_vregs, &depth, |p| {
        (&uds[p].int_uses, &uds[p].int_defs)
    });
    let xmm_iv = space_intervals(vfunc, &succs, vfunc.xmm_vregs, &depth, |p| {
        (&uds[p].xmm_uses, &uds[p].xmm_defs)
    });
    (int_iv, xmm_iv)
}

/// Approximates the loop depth of every instruction position via backward
/// branches in layout order: a branch from layout position `b` back to an
/// earlier block `t` increments the depth of everything between them.
/// Accurate for the structured CFGs the front end produces.
fn position_loop_depth(vfunc: &VFunc) -> Vec<u8> {
    let mut layout_pos = vec![usize::MAX; vfunc.block_ranges.len()];
    for (i, &b) in vfunc.layout.iter().enumerate() {
        layout_pos[b as usize] = i;
    }
    let mut depth = vec![0u8; vfunc.insts.len()];
    for &b in &vfunc.layout {
        let (s, e) = vfunc.block_ranges[b as usize];
        for p in s..e {
            for t in vfunc.insts[p].block_targets() {
                let (tp, bp) = (layout_pos[t as usize], layout_pos[b as usize]);
                if tp == usize::MAX || tp > bp {
                    continue; // forward edge
                }
                // Back edge: bump every position from the target block's
                // start through the branch.
                let (ts, _) = vfunc.block_ranges[t as usize];
                for d in depth.iter_mut().take(p + 1).skip(ts.min(p)) {
                    *d = d.saturating_add(1).min(4);
                }
            }
        }
    }
    depth
}

fn space_intervals<'a>(
    vfunc: &VFunc,
    succs: &[Vec<u32>],
    nvregs: u32,
    depth: &[u8],
    ud: impl Fn(usize) -> (&'a Vec<u32>, &'a Vec<u32>),
) -> Vec<Interval> {
    let nblocks = vfunc.block_ranges.len();
    let n = nvregs as usize;
    // Upward-exposed uses and defs per block (bitsets as Vec<bool>).
    let mut ue: Vec<Vec<bool>> = vec![vec![false; n]; nblocks];
    let mut defs: Vec<Vec<bool>> = vec![vec![false; n]; nblocks];
    for (b, &(s, e)) in vfunc.block_ranges.iter().enumerate() {
        for p in s..e {
            let (uses, ds) = ud(p);
            for &u in uses {
                if !defs[b][u as usize] {
                    ue[b][u as usize] = true;
                }
            }
            for &d in ds {
                defs[b][d as usize] = true;
            }
        }
    }
    let mut live_in: Vec<Vec<bool>> = vec![vec![false; n]; nblocks];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nblocks).rev() {
            // live_out = union of successors' live_in
            let mut lo = vec![false; n];
            for &sb in &succs[b] {
                for v in 0..n {
                    lo[v] |= live_in[sb as usize][v];
                }
            }
            for v in 0..n {
                let li = ue[b][v] || (lo[v] && !defs[b][v]);
                if li && !live_in[b][v] {
                    live_in[b][v] = true;
                    changed = true;
                }
            }
        }
    }
    // Intervals.
    let mut start = vec![usize::MAX; n];
    let mut end = vec![0usize; n];
    let mut weight = vec![0.0f64; n];
    for (b, &(s, e)) in vfunc.block_ranges.iter().enumerate() {
        if s == e {
            continue;
        }
        // live_out of b again (recompute; cheap).
        let mut lo = vec![false; n];
        for &sb in &succs[b] {
            for v in 0..n {
                lo[v] |= live_in[sb as usize][v];
            }
        }
        for v in 0..n {
            if live_in[b][v] {
                start[v] = start[v].min(s);
                end[v] = end[v].max(s);
            }
            if lo[v] {
                start[v] = start[v].min(s);
                end[v] = end[v].max(e - 1);
            }
        }
        #[allow(clippy::needless_range_loop)] // p indexes ud() too, not just depth
        for p in s..e {
            let w = 10f64.powi(i32::from(depth[p]));
            let (uses, ds) = ud(p);
            for &u in uses {
                start[u as usize] = start[u as usize].min(p);
                end[u as usize] = end[u as usize].max(p);
                weight[u as usize] += w;
            }
            for &d in ds {
                start[d as usize] = start[d as usize].min(p);
                end[d as usize] = end[d as usize].max(p);
                weight[d as usize] += w;
            }
        }
    }
    (0..n)
        .filter(|&v| start[v] != usize::MAX)
        .map(|v| Interval {
            vreg: v as u32,
            start: start[v],
            end: end[v],
            weight: weight[v],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcode::{VInst, VOperand, VR};
    use fiq_asm::{AluOp, Width};

    fn vf(insts: Vec<VInst>, nint: u32) -> VFunc {
        let n = insts.len();
        VFunc {
            insts,
            block_ranges: vec![(0, n)],
            layout: vec![0],
            int_vregs: nint,
            xmm_vregs: 0,
            slots: vec![],
            clobbers: vec![],
        }
    }

    #[test]
    fn disjoint_intervals_share_registers() {
        // v0 dies before v1 is born: same register is fine.
        let mut f = vf(
            vec![
                VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(VR::V(0)),
                    src: VOperand::Imm(1),
                },
                VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(VR::P(Reg::Rdi)),
                    src: VOperand::Reg(VR::V(0)),
                },
                VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(VR::V(1)),
                    src: VOperand::Imm(2),
                },
                VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(VR::P(Reg::Rdi)),
                    src: VOperand::Reg(VR::V(1)),
                },
                VInst::Ret,
            ],
            2,
        );
        let a = allocate(&mut f, LowerOptions::default());
        let (Alloc::Reg(r0), Alloc::Reg(r1)) = (a.int_alloc[0], a.int_alloc[1]) else {
            panic!("no spills expected");
        };
        assert_eq!(r0, r1, "disjoint intervals should reuse the first reg");
    }

    #[test]
    fn overlapping_intervals_get_distinct_registers() {
        let mut f = vf(
            vec![
                VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(VR::V(0)),
                    src: VOperand::Imm(1),
                },
                VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(VR::V(1)),
                    src: VOperand::Imm(2),
                },
                VInst::Alu {
                    op: AluOp::Add,
                    dst: VR::V(0),
                    src: VOperand::Reg(VR::V(1)),
                },
                VInst::Ret,
            ],
            2,
        );
        let a = allocate(&mut f, LowerOptions::default());
        let (Alloc::Reg(r0), Alloc::Reg(r1)) = (a.int_alloc[0], a.int_alloc[1]) else {
            panic!("no spills expected");
        };
        assert_ne!(r0, r1);
    }

    #[test]
    fn call_crossing_interval_gets_callee_saved() {
        let mut f = vf(
            vec![
                VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(VR::V(0)),
                    src: VOperand::Imm(1),
                },
                VInst::Call { func: 0 },
                VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(VR::P(Reg::Rdi)),
                    src: VOperand::Reg(VR::V(0)),
                },
                VInst::Ret,
            ],
            1,
        );
        f.clobbers = vec![(1, 1, crate::isel::caller_saved_mask(), 0xFFFF)];
        let a = allocate(&mut f, LowerOptions::default());
        let Alloc::Reg(r) = a.int_alloc[0] else {
            panic!("callee-saved available, must not spill")
        };
        assert!(r.is_callee_saved(), "got {r}");
        assert_eq!(a.used_callee_saved, vec![r]);
    }

    #[test]
    fn without_callee_saved_call_crossers_spill() {
        let mut f = vf(
            vec![
                VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(VR::V(0)),
                    src: VOperand::Imm(1),
                },
                VInst::Call { func: 0 },
                VInst::Mov {
                    width: Width::B8,
                    dst: VOperand::Reg(VR::P(Reg::Rdi)),
                    src: VOperand::Reg(VR::V(0)),
                },
                VInst::Ret,
            ],
            1,
        );
        f.clobbers = vec![(1, 1, crate::isel::caller_saved_mask(), 0xFFFF)];
        let a = allocate(
            &mut f,
            LowerOptions {
                use_callee_saved: false,
                ..LowerOptions::default()
            },
        );
        assert!(matches!(a.int_alloc[0], Alloc::Spill(_)));
        assert_eq!(f.slots.len(), 1, "one spill slot appended");
    }

    #[test]
    fn pressure_forces_spills() {
        // Create 15 simultaneously-live vregs; pool has 11.
        let mut insts = Vec::new();
        for v in 0..15u32 {
            insts.push(VInst::Mov {
                width: Width::B8,
                dst: VOperand::Reg(VR::V(v)),
                src: VOperand::Imm(i64::from(v)),
            });
        }
        // One instruction using all of them keeps them live.
        for v in 0..15u32 {
            insts.push(VInst::Alu {
                op: AluOp::Add,
                dst: VR::V(0),
                src: VOperand::Reg(VR::V(v)),
            });
        }
        insts.push(VInst::Ret);
        let mut f = vf(insts, 15);
        let a = allocate(&mut f, LowerOptions::default());
        let spills = a
            .int_alloc
            .iter()
            .filter(|a| matches!(a, Alloc::Spill(_)))
            .count();
        assert_eq!(spills, 4, "15 live - 11 regs = 4 spills");
    }
}
