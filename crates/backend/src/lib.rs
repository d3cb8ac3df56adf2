//! # fiq-backend — lowering IR to the synthetic assembly
//!
//! The code generator of the fault-injection study: instruction selection
//! (with GEP → addressing-mode folding and compare/branch fusion), liveness
//! analysis, linear-scan register allocation (with spilling and
//! callee-save conventions), and frame/ABI emission. See `crates/backend/
//! src/isel.rs` for how each paper-relevant lowering behaviour arises.
//!
//! ```
//! let mut module = fiq_frontend::compile(
//!     "demo",
//!     "int main() { print_i64(6 * 7); return 0; }",
//! ).unwrap();
//! fiq_opt::optimize_module(&mut module);
//! let prog = fiq_backend::lower_module(&module, fiq_backend::LowerOptions::default())?;
//! let result = fiq_asm::run_program(&prog, fiq_asm::MachOptions::default()).unwrap();
//! assert_eq!(result.output, "42\n");
//! # Ok::<(), fiq_backend::LowerError>(())
//! ```

#![warn(missing_docs)]

mod emit;
mod isel;
mod regalloc;
mod vcode;

pub use isel::LowerOptions;

use fiq_asm::{AsmFunc, AsmProgram, GlobalImage, Inst};
use fiq_ir::{GlobalInit, Module};
use std::error::Error;
use std::fmt;

/// A lowering failure (unsupported construct or malformed input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// What went wrong, prefixed with the function name.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering failed: {}", self.message)
    }
}

impl Error for LowerError {}

/// Which IR instructions the backend folds away into other instructions'
/// operands — the lowering knowledge behind the paper's §VII calibration
/// heuristics for high-level injectors.
#[derive(Debug, Clone)]
pub struct LoweringInfo {
    /// `folded_geps[func][inst]`: this `getelementptr` is compressed into
    /// load/store addressing modes and emits **no** arithmetic; all other
    /// GEPs lower to explicit `add`/`imul` sequences.
    pub folded_geps: Vec<Vec<bool>>,
    /// `folded_loads[func][inst]`: this `load` becomes a memory operand of
    /// a consuming instruction and has **no** assembly-level `mov`
    /// counterpart.
    pub folded_loads: Vec<Vec<bool>>,
}

/// Computes [`LoweringInfo`] for a module without generating code.
pub fn lowering_info(module: &Module, opts: LowerOptions) -> LoweringInfo {
    // Addresses are irrelevant to the folding analyses; reuse the real
    // layout for fidelity.
    let globals: Vec<GlobalImage> = module
        .globals
        .iter()
        .map(|g| GlobalImage {
            name: g.name.clone(),
            size: g.ty.size().max(1),
            align: g.ty.align().max(1),
            init: Vec::new(),
        })
        .collect();
    let global_addrs = AsmProgram::global_addresses(&globals);
    let mut folded_geps = Vec::new();
    let mut folded_loads = Vec::new();
    for func in &module.funcs {
        let (g, l) = isel::Isel::new(module, func, &global_addrs, opts).analysis_only();
        folded_geps.push(g);
        folded_loads.push(l);
    }
    LoweringInfo {
        folded_geps,
        folded_loads,
    }
}

/// Lowers a verified IR module to a linked assembly program.
///
/// # Errors
///
/// Returns a [`LowerError`] for constructs the backend does not support
/// (f32 arithmetic, unsigned division, function pointers, more than 6
/// integer / 8 float arguments).
pub fn lower_module(module: &Module, opts: LowerOptions) -> Result<AsmProgram, LowerError> {
    let mut globals: Vec<GlobalImage> = module
        .globals
        .iter()
        .map(|g| GlobalImage {
            name: g.name.clone(),
            size: g.ty.size().max(1),
            align: g.ty.align().max(1),
            init: match &g.init {
                GlobalInit::Zeroed => Vec::new(),
                GlobalInit::Bytes(b) => b.clone(),
            },
        })
        .collect();
    // Floating-point constant pool (the .rodata literals of a real
    // binary): each distinct f64 constant becomes one 8-byte entry, so
    // constant uses lower to single `movsd xmm, [addr]` loads.
    let mut pool_bits: Vec<u64> = Vec::new();
    for f in &module.funcs {
        for inst in &f.insts {
            inst.for_each_operand(|v| {
                if let fiq_ir::Value::Const(fiq_ir::Constant::Float(fiq_ir::FloatTy::F64, bits)) = v
                {
                    if !pool_bits.contains(&bits) {
                        pool_bits.push(bits);
                    }
                }
            });
        }
    }
    if !pool_bits.is_empty() {
        let mut bytes = Vec::with_capacity(pool_bits.len() * 8);
        for b in &pool_bits {
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        globals.push(GlobalImage {
            name: "__fp_constants".into(),
            size: bytes.len() as u64,
            align: 8,
            init: bytes,
        });
    }
    let global_addrs = AsmProgram::global_addresses(&globals);
    let fconst: std::collections::HashMap<u64, u64> = pool_bits
        .iter()
        .enumerate()
        .map(|(i, &b)| (b, global_addrs[module.globals.len()] + 8 * i as u64))
        .collect();

    let mut insts: Vec<Inst> = Vec::new();
    let mut funcs: Vec<AsmFunc> = Vec::new();
    for func in &module.funcs {
        let mut vfunc = isel::Isel::new(module, func, &global_addrs, opts)
            .with_fconsts(&fconst)
            .run()?;
        let assign = regalloc::allocate(&mut vfunc, opts);
        let code = emit::emit_function(&vfunc, &assign);
        let base = insts.len() as u32;
        for mut inst in code {
            // Branch targets are function-local; rebase them. The trap
            // sentinel (u32::MAX) stays out of range by construction.
            match &mut inst {
                Inst::Jmp { target } | Inst::Jcc { target, .. } if *target != u32::MAX => {
                    *target += base;
                }
                _ => {}
            }
            insts.push(inst);
        }
        funcs.push(AsmFunc {
            name: func.name.clone(),
            entry: base,
            end: insts.len() as u32,
        });
    }
    let main = module
        .main_func()
        .ok_or_else(|| LowerError {
            message: "module has no main function".into(),
        })?
        .0;
    Ok(AsmProgram {
        insts,
        funcs,
        globals,
        main,
    })
}
