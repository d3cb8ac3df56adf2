//! Execution hooks: the interpreter's instrumentation surface.
//!
//! This is the analogue of LLFI's compile-time instrumentation (paper
//! §III): the hook sees every instruction result before it is committed and
//! every SSA operand read, which is exactly what is needed to (a) profile
//! dynamic instruction counts, (b) flip a bit in a chosen dynamic
//! instance's destination, and (c) track whether the corrupted value is
//! ever *activated* (read before being overwritten).

use crate::rtval::RtVal;
use fiq_ir::{FuncId, InstId};
use fiq_mem::Quiescence;

/// A static instruction location (function + instruction id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstSite {
    /// The enclosing function.
    pub func: FuncId,
    /// The instruction within it.
    pub inst: InstId,
}

/// Observer/mutator of interpreter execution.
///
/// All methods have no-op defaults; implement only what you need.
pub trait InterpHook {
    /// Called after an instruction computes its result and before the
    /// result is written to its SSA slot. `frame` uniquely identifies the
    /// dynamic function invocation. Mutating `val` injects a fault.
    fn on_result(&mut self, site: InstSite, frame: u64, val: &mut RtVal) {
        let _ = (site, frame, val);
    }

    /// Called whenever instruction `consumer` reads the SSA slot defined
    /// by `def` in invocation `frame` (fault activation and propagation
    /// tracking).
    fn on_use(&mut self, def: InstSite, consumer: InstSite, frame: u64) {
        let _ = (def, consumer, frame);
    }

    /// Called when a load instruction is about to read `[addr, addr+size)`
    /// (its value arrives in the following [`InterpHook::on_result`]).
    fn on_load(&mut self, site: InstSite, frame: u64, addr: u64, size: u64) {
        let _ = (site, frame, addr, size);
    }

    /// Called when a store instruction writes `[addr, addr+size)`.
    fn on_store(&mut self, site: InstSite, frame: u64, addr: u64, size: u64) {
        let _ = (site, frame, addr, size);
    }

    /// The hook's current instrumentation phase (see [`Quiescence`]).
    ///
    /// Queried by the decoded core between step slices; reporting
    /// anything other than `Active` lets the core run a monomorphized
    /// fast loop with hook dispatch compiled out. The default keeps
    /// full instrumentation, which is always correct.
    fn quiescence(&self) -> Quiescence<InstSite> {
        Quiescence::Active
    }
}

/// A hook that does nothing (plain execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct NopHook;

impl InterpHook for NopHook {
    fn quiescence(&self) -> Quiescence<InstSite> {
        Quiescence::Forever
    }
}
