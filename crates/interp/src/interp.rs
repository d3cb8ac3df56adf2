//! The IR interpreter.
//!
//! Execution runs on an explicit frame stack (no host recursion), which is
//! what makes mid-run [`InterpSnapshot`]s possible: the complete dynamic
//! state of a paused program is the frame stack plus memory, console,
//! stack pointer, and step counter, all of which are plain data.

use crate::decoded::{
    arg_slot, const_image, raw_of, val_of_raw, DecodedModule, LoadKind, MAX_FUSED_RETIRE,
};
use crate::hook::{InstSite, InterpHook};
use crate::ops;
use crate::rtval::RtVal;
use fiq_ir::{
    BlockId, Callee, FloatTy, FuncId, GlobalInit, InstId, InstKind, Intrinsic, Module, Type, Value,
};
use fiq_mem::{component, Console, Divergence, MemSnapshot, Memory, Quiescence, RegionKind, Trap};
use std::sync::Arc;

/// Interpreter configuration. Memory capacity and stack size are
/// `fiq_mem::DEFAULT_CAPACITY` and `fiq_mem::DEFAULT_STACK_SIZE`.
#[derive(Debug, Clone, Copy)]
pub struct InterpOptions {
    /// Dynamic-instruction budget; exceeding it stops the run (hang
    /// detection is built on this).
    pub max_steps: u64,
    /// Maximum guest call depth.
    ///
    /// Guest frames live on the heap (an explicit frame stack), so this
    /// bounds guest recursion only; it does not consume host stack.
    pub max_call_depth: u32,
}

impl Default for InterpOptions {
    fn default() -> InterpOptions {
        InterpOptions {
            max_steps: 500_000_000,
            max_call_depth: 256,
        }
    }
}

/// Why execution stopped (shared with the assembly level so outcome
/// classification is identical at both levels).
pub use fiq_mem::RunStatus as ExecStatus;

/// The result of running a program (shared with the assembly level).
pub use fiq_mem::RunResult as ExecResult;

pub(crate) enum Stop {
    Trap(Trap),
    Budget,
}

impl From<Trap> for Stop {
    fn from(t: Trap) -> Stop {
        Stop::Trap(t)
    }
}

/// Lays the module's globals out in `mem` (packed, natural alignment, in
/// declaration order) and returns the address of each.
///
/// Both execution levels use this same layout, so a given corrupted
/// address refers to the same logical object at either level.
///
/// # Errors
///
/// Returns [`Trap::OutOfMemory`] if the globals exceed capacity.
pub fn materialize_globals(module: &Module, mem: &mut Memory) -> Result<Vec<u64>, Trap> {
    let mut addrs = Vec::with_capacity(module.globals.len());
    for g in &module.globals {
        let addr = mem.alloc(g.ty.size(), g.ty.align(), RegionKind::Global)?;
        if let GlobalInit::Bytes(bytes) = &g.init {
            assert!(
                bytes.len() as u64 <= g.ty.size(),
                "initializer larger than global {}",
                g.name
            );
            mem.write_bytes(addr, bytes)?;
        }
        addrs.push(addr);
    }
    Ok(addrs)
}

/// One guest activation record on the explicit frame stack.
///
/// `slots` holds *untagged* raw 64-bit images (see
/// [`crate::decoded::raw_of`]): the function's SSA results (slot `n` is
/// `InstId(n)`), then its arguments, written at call entry, then its
/// constants, copied from the decoded slot template. Each slot's scalar
/// kind is static — the defining instruction's result type, the
/// parameter's type, the constant's type — so the tag is recovered at
/// read time from decode-time kind tables instead of being stored and
/// branch-checked per access. Unwritten result slots read as raw 0,
/// which verified-SSA execution can never observe: every read is
/// dominated by its def, so the def has rewritten the slot on every path
/// to the read.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    pub(crate) fid: FuncId,
    pub(crate) frame_id: u64,
    pub(crate) saved_sp: u64,
    pub(crate) slots: Vec<u64>,
    pub(crate) cur: BlockId,
    pub(crate) prev: Option<BlockId>,
    pub(crate) ip: usize,
}

/// Bitwise frame-stack equality. Slots compare as raw images, so
/// convergence detection treats `NaN` as equal to the same `NaN`
/// (identical bits ⇒ identical future behaviour) and `-0.0` as different
/// from `0.0`.
fn frames_bits_eq(a: &[Frame], b: &[Frame]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(fa, fb)| {
            fa.fid == fb.fid
                && fa.frame_id == fb.frame_id
                && fa.saved_sp == fb.saved_sp
                && fa.cur == fb.cur
                && fa.prev == fb.prev
                && fa.ip == fb.ip
                // Raw slot images: kinds are static per slot, so bitwise
                // equality is value equality. An unwritten slot and a
                // written raw-0 compare equal, which is sound here: the
                // surrounding fields pin both frames to the same control
                // position, where SSA dominance guarantees any future
                // read of the slot is preceded by its def on every path.
                && fa.slots == fb.slots
        })
}

/// A point-in-time capture of a running [`Interp`], taken at a dynamic
/// instruction boundary by [`Interp::run_with_snapshots`].
///
/// A snapshot holds the complete execution state — frame stack, memory
/// image (page-shared with neighbouring snapshots), console, stack
/// pointer, and step counter — plus the per-site dynamic `on_result`
/// count vector at the capture point, so a fault injector restoring from
/// it knows how many instances of each site have already occurred.
#[derive(Debug, Clone)]
pub struct InterpSnapshot {
    frames: Vec<Frame>,
    mem: MemSnapshot,
    console: Console,
    global_addrs: Vec<u64>,
    stack_start: u64,
    sp: u64,
    steps: u64,
    frame_counter: u64,
    counts: Vec<Vec<u64>>,
}

impl InterpSnapshot {
    /// Dynamic instructions executed at the capture point.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// How many `on_result` events `site` had produced at the capture
    /// point (the dynamic-instance clock fault planners index by).
    pub fn site_count(&self, site: InstSite) -> u64 {
        self.counts[site.func.index()][site.inst.index()]
    }

    /// The captured memory image (exposed for page-sharing diagnostics).
    pub fn mem(&self) -> &MemSnapshot {
        &self.mem
    }
}

/// The complete state of a running [`Interp`] but its step counter, taken
/// by [`Interp::capture`] and compared with [`Interp::equals_capture`]
/// later in the same run. The console is kept as its length: a run only
/// appends to it, so equal lengths mean equal contents.
#[derive(Debug, Clone)]
pub struct InterpCapture {
    frames: Vec<Frame>,
    mem: MemSnapshot,
    console_len: usize,
    stack_start: u64,
    sp: u64,
    frame_counter: u64,
}

/// Internal snapshot-capture state, present only during
/// [`Interp::run_with_snapshots`].
pub(crate) struct SnapState {
    interval: u64,
    pub(crate) next_at: u64,
    counts: Vec<Vec<u64>>,
    snapshots: Vec<InterpSnapshot>,
}

/// Reuses the shared decoded-module handle or decodes inline. The decode
/// is pure and its global layout deterministic, so a shared handle is
/// interchangeable with an inline decode.
fn ensure_decoded(
    module: &Module,
    decoded: Option<Arc<DecodedModule>>,
    global_addrs: &[u64],
) -> Arc<DecodedModule> {
    let dec = decoded.unwrap_or_else(|| Arc::new(DecodedModule::decode(module)));
    debug_assert_eq!(
        dec.global_addrs, global_addrs,
        "decoded module was built for a different module or layout"
    );
    dec
}

/// The IR interpreter. Create with [`Interp::new`], run with
/// [`Interp::run`], then inspect the console or memory.
pub struct Interp<'m, H> {
    pub(crate) module: &'m Module,
    pub(crate) opts: InterpOptions,
    pub(crate) mem: Memory,
    pub(crate) console: Console,
    pub(crate) hook: H,
    pub(crate) global_addrs: Vec<u64>,
    pub(crate) stack_start: u64,
    pub(crate) sp: u64,
    pub(crate) steps: u64,
    pub(crate) restored_steps: u64,
    /// Of `steps`, how many ran inside the quiescent fast loop.
    pub(crate) steps_quiescent: u64,
    pub(crate) frame_counter: u64,
    pub(crate) frames: Vec<Frame>,
    pub(crate) snap: Option<SnapState>,
    pub(crate) pause_at: Option<u64>,
    pub(crate) decoded: Arc<DecodedModule>,
    /// Reusable staging buffer for φ-batches (reads before writes).
    pub(crate) phi_buf: Vec<RtVal>,
}

impl<'m, H: InterpHook> Interp<'m, H> {
    /// Creates an interpreter: materializes globals and the stack, and
    /// decodes the module inline; use [`Interp::with_decoded`] to share
    /// one decode across many runs.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::OutOfMemory`] if globals plus stack exceed capacity.
    pub fn new(module: &'m Module, opts: InterpOptions, hook: H) -> Result<Interp<'m, H>, Trap> {
        Interp::with_decoded(module, None, opts, hook)
    }

    /// Like [`Interp::new`], but reusing a shared pre-decoded module
    /// (pass `None` to decode inline).
    ///
    /// # Errors
    ///
    /// Returns [`Trap::OutOfMemory`] if globals plus stack exceed capacity.
    pub fn with_decoded(
        module: &'m Module,
        decoded: Option<Arc<DecodedModule>>,
        opts: InterpOptions,
        hook: H,
    ) -> Result<Interp<'m, H>, Trap> {
        let mut mem = Memory::with_capacity(fiq_mem::DEFAULT_CAPACITY);
        let global_addrs = materialize_globals(module, &mut mem)?;
        let sp = mem.alloc_stack(fiq_mem::DEFAULT_STACK_SIZE)?;
        let stack_start = sp - fiq_mem::DEFAULT_STACK_SIZE;
        let decoded = ensure_decoded(module, decoded, &global_addrs);
        Ok(Interp {
            module,
            opts,
            mem,
            console: Console::new(),
            hook,
            global_addrs,
            stack_start,
            sp,
            steps: 0,
            restored_steps: 0,
            steps_quiescent: 0,
            frame_counter: 0,
            frames: Vec::new(),
            snap: None,
            pause_at: None,
            decoded,
            phi_buf: Vec::new(),
        })
    }

    /// Recreates an interpreter mid-run from a snapshot: the next
    /// [`Interp::run`] resumes at the captured instruction boundary with
    /// the given (fresh) hook observing only the tail of the execution.
    ///
    /// The module and options must be the ones the snapshot was captured
    /// under for the resumed run to mean anything; `max_steps` may differ
    /// (the step counter continues from the captured value and is checked
    /// against the restoring run's budget).
    pub fn restore(
        module: &'m Module,
        opts: InterpOptions,
        hook: H,
        snap: &InterpSnapshot,
    ) -> Interp<'m, H> {
        Interp::restore_with_decoded(module, None, opts, hook, snap)
    }

    /// Like [`Interp::restore`], but reusing a shared pre-decoded module
    /// (pass `None` to decode inline).
    pub fn restore_with_decoded(
        module: &'m Module,
        decoded: Option<Arc<DecodedModule>>,
        opts: InterpOptions,
        hook: H,
        snap: &InterpSnapshot,
    ) -> Interp<'m, H> {
        let decoded = ensure_decoded(module, decoded, &snap.global_addrs);
        Interp {
            module,
            opts,
            mem: Memory::from_snapshot(&snap.mem),
            console: snap.console.clone(),
            hook,
            global_addrs: snap.global_addrs.clone(),
            stack_start: snap.stack_start,
            sp: snap.sp,
            steps: snap.steps,
            restored_steps: snap.steps,
            steps_quiescent: 0,
            frame_counter: snap.frame_counter,
            frames: snap.frames.clone(),
            snap: None,
            pause_at: None,
            decoded,
            phi_buf: Vec::new(),
        }
    }

    /// Runs `main()` (or, after [`Interp::restore`], the captured
    /// continuation) to completion, trap, or budget exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if the module has no `main` function.
    pub fn run(&mut self) -> ExecResult {
        let status = match self.exec() {
            Ok(()) => ExecStatus::Finished,
            Err(Stop::Trap(t)) => ExecStatus::Trapped(t),
            Err(Stop::Budget) => ExecStatus::BudgetExceeded,
        };
        ExecResult {
            status,
            steps: self.steps,
            output: self.console.contents().to_string(),
        }
    }

    /// Runs `main()` like [`Interp::run`], capturing a snapshot at the
    /// first instruction boundary once every `interval` dynamic steps
    /// (`interval` is clamped to at least 1). Returns the captured
    /// snapshots alongside the result; memory pages are shared between
    /// consecutive snapshots where unchanged.
    pub fn run_with_snapshots(&mut self, interval: u64) -> (ExecResult, Vec<InterpSnapshot>) {
        let interval = interval.max(1);
        self.snap = Some(SnapState {
            interval,
            next_at: interval,
            counts: self
                .module
                .funcs
                .iter()
                .map(|f| vec![0; f.insts.len()])
                .collect(),
            snapshots: Vec::new(),
        });
        let result = self.run();
        let snap = self.snap.take().expect("snapshot state present");
        (result, snap.snapshots)
    }

    /// Runs like [`Interp::run`], but pauses at the first instruction
    /// boundary where the step counter has reached `until` — the same
    /// boundary rule [`Interp::run_with_snapshots`] captures at, so a
    /// faulty run paused at a golden checkpoint's step count is directly
    /// comparable to that checkpoint.
    ///
    /// Returns `None` if paused (the program is still live; call again
    /// with a later target, or [`Interp::run`] to run to completion), or
    /// `Some(result)` if the program finished/trapped/exhausted its
    /// budget before reaching the pause point.
    pub fn run_until(&mut self, until: u64) -> Option<ExecResult> {
        self.pause_at = Some(until);
        let out = self.exec();
        self.pause_at = None;
        self.paused_or_stopped(out)
    }

    /// Runs the *reference core* — the per-instruction `match` over the
    /// IR that defines the interpreter's semantics — with the same pause
    /// rule and return contract as [`Interp::run_until`]; pass `u64::MAX`
    /// to run to completion. It fires the same hook events in the same
    /// order as the decoded core but never consults
    /// [`InterpHook::quiescence`] and never captures snapshots.
    ///
    /// This is the oracle the decoded core is checked against. Its only
    /// callers are the lockstep tests (`tests/tests/dispatch.rs`); no
    /// production path calls it.
    pub fn run_reference_until(&mut self, until: u64) -> Option<ExecResult> {
        self.pause_at = Some(until);
        let out = self.exec_reference();
        self.pause_at = None;
        self.paused_or_stopped(out)
    }

    /// Maps an `exec` outcome to the [`Interp::run_until`] contract:
    /// `None` when paused with the program still live.
    fn paused_or_stopped(&self, out: Result<(), Stop>) -> Option<ExecResult> {
        let status = match out {
            Ok(()) => {
                if !self.frames.is_empty() {
                    return None; // paused at the boundary
                }
                ExecStatus::Finished
            }
            Err(Stop::Trap(t)) => ExecStatus::Trapped(t),
            Err(Stop::Budget) => ExecStatus::BudgetExceeded,
        };
        Some(ExecResult {
            status,
            steps: self.steps,
            output: self.console.contents().to_string(),
        })
    }

    /// The console (program output so far).
    pub fn console(&self) -> &Console {
        &self.console
    }

    /// The simulated memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Dynamic instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The step count inherited from the snapshot this interpreter was
    /// [`Interp::restore`]d from (0 for a fresh interpreter). The
    /// difference `steps() - restored_steps()` is the work this
    /// interpreter actually executed.
    pub fn restored_steps(&self) -> u64 {
        self.restored_steps
    }

    /// Of [`Interp::steps`], how many were executed by the quiescent
    /// fast loop.
    pub fn steps_quiescent(&self) -> u64 {
        self.steps_quiescent
    }

    /// Consumes the interpreter, returning the hook (e.g. to read
    /// profiling counters out of it).
    pub fn into_hook(self) -> H {
        self.hook
    }

    /// The hook, for mid-run inspection (e.g. between [`Interp::run_until`]
    /// pauses, to decide whether a convergence check is worthwhile).
    pub fn hook(&self) -> &H {
        &self.hook
    }

    /// Convergence check: exact comparison of the live state against a
    /// golden checkpoint (step counter, stack pointer, frame stack with
    /// NaN-safe value equality, global addresses, console, memory bytes).
    /// `true` here means the remaining execution is step-for-step
    /// identical to the golden run from this checkpoint on.
    ///
    /// The frames go right after the scalars and before the global
    /// addresses, the console and memory: almost every faulty run that
    /// pauses at a checkpoint with a settled fault still differs in its
    /// frames, and a mismatch there ends the compare before the rest is
    /// read.
    pub fn state_equals_snapshot(&self, snap: &InterpSnapshot) -> bool {
        self.steps == snap.steps
            && self.sp == snap.sp
            && self.stack_start == snap.stack_start
            && self.frame_counter == snap.frame_counter
            && frames_bits_eq(&self.frames, &snap.frames)
            && self.global_addrs == snap.global_addrs
            && self.console.contents() == snap.console.contents()
            && self.mem.equals_snapshot(&snap.mem)
    }

    /// Captures the live state for [`Interp::equals_capture`]: its cost
    /// is the frame stack plus the memory pages written since this
    /// interpreter was created or restored.
    pub fn capture(&self) -> InterpCapture {
        InterpCapture {
            frames: self.frames.clone(),
            mem: self.mem.capture(),
            console_len: self.console.len(),
            stack_start: self.stack_start,
            sp: self.sp,
            frame_counter: self.frame_counter,
        }
    }

    /// True when the live state equals `capture`, taken earlier in this
    /// run, in everything but the step counter: frame stack (frame ids
    /// and raw slot images included), stack pointer, frame counter,
    /// console length and memory bytes. The interpreter is deterministic,
    /// so a run whose hook no longer changes anything then repeats the
    /// steps in between forever.
    pub fn equals_capture(&self, capture: &InterpCapture) -> bool {
        self.sp == capture.sp
            && self.frame_counter == capture.frame_counter
            && self.stack_start == capture.stack_start
            && self.console.len() == capture.console_len
            && frames_bits_eq(&self.frames, &capture.frames)
            && self.mem.equals_snapshot(&capture.mem)
    }

    /// Component-granular divergence of the live state from a golden
    /// checkpoint, for per-injection divergence timelines:
    ///
    /// * [`component::FRAMES`] — control position differs: step clock,
    ///   stack pointer, frame counter, or the frame-stack structure
    ///   (function, block, instruction pointer per frame).
    /// * [`component::REGS`] — same control position, but an SSA slot or
    ///   argument value differs (bitwise, NaN-safe).
    /// * [`component::CONSOLE`] — printed output differs.
    /// * [`component::MEM`] — one or more 4 KiB pages or the allocation
    ///   layout differ; `pages` counts the diverged pages.
    ///
    /// Every comparison is exact, so [`Divergence::clean`] means
    /// byte-identical state.
    pub fn divergence_from(&self, snap: &InterpSnapshot) -> Divergence {
        let mut components = 0u8;
        let structure_eq = self.steps == snap.steps
            && self.sp == snap.sp
            && self.stack_start == snap.stack_start
            && self.frame_counter == snap.frame_counter
            && self.frames.len() == snap.frames.len()
            && self.frames.iter().zip(&snap.frames).all(|(a, b)| {
                a.fid == b.fid
                    && a.frame_id == b.frame_id
                    && a.saved_sp == b.saved_sp
                    && a.cur == b.cur
                    && a.prev == b.prev
                    && a.ip == b.ip
            });
        if !structure_eq {
            components |= component::FRAMES;
        } else if !frames_bits_eq(&self.frames, &snap.frames) {
            // Structure matches, so the remaining difference is in slot
            // or argument values — the IR level's register file.
            components |= component::REGS;
        }
        if self.console.contents() != snap.console.contents() {
            components |= component::CONSOLE;
        }
        let pages = self.mem.diverged_pages(&snap.mem);
        if pages > 0 || !self.mem.layout_matches_snapshot(&snap.mem) {
            components |= component::MEM;
        }
        Divergence { components, pages }
    }

    /// Pushes `main`'s frame if the program has not started yet.
    fn start(&mut self) -> Result<(), Stop> {
        if self.frames.is_empty() {
            let main = self.module.main_func().expect("module has a main function");
            self.push_frame(main, &[])?;
        }
        Ok(())
    }

    fn exec(&mut self) -> Result<(), Stop> {
        self.start()?;
        // The decoded table is loop-invariant: clone the handle once
        // instead of per block slice.
        let dec = Arc::clone(&self.decoded);
        while !self.frames.is_empty() {
            if self.pause_at.is_some_and(|p| self.steps >= p) {
                return Ok(());
            }
            self.maybe_snapshot();
            if self.needs_evented_loop() {
                self.step_decoded(&dec)?;
                continue;
            }
            match self.hook.quiescence() {
                Quiescence::Active => self.step_decoded(&dec)?,
                Quiescence::Forever => {
                    self.step_quiescent(&dec, None)?;
                }
                Quiescence::UntilSite(s) => {
                    if self.step_quiescent(&dec, Some(s))? {
                        // The fast loop stopped just before the watched
                        // site: a pause one step ahead clips the evented
                        // slice to exactly one unit (it steps the plain
                        // table there), so the hook sees that unit's
                        // events before the phase is re-queried.
                        let saved = self.pause_at;
                        self.pause_at =
                            Some(saved.map_or(self.steps + 1, |p| p.min(self.steps + 1)));
                        let r = self.step_decoded(&dec);
                        self.pause_at = saved;
                        r?;
                    }
                }
            }
        }
        Ok(())
    }

    /// True when the next slice must run evented whatever the hook's
    /// phase. The fast loop skips the per-step snapshot bookkeeping, so it
    /// is only eligible when capture is off. It also stops short of a
    /// pause point, so the last steps before one are always evented: the
    /// evented slice walks up to the pause on the plain table.
    pub(crate) fn needs_evented_loop(&self) -> bool {
        self.snap.is_some()
            || self
                .pause_at
                .is_some_and(|p| p.saturating_sub(self.steps) < MAX_FUSED_RETIRE)
    }

    /// The reference core's run loop (see [`Interp::run_reference_until`]).
    fn exec_reference(&mut self) -> Result<(), Stop> {
        self.start()?;
        while !self.frames.is_empty() {
            if self.pause_at.is_some_and(|p| self.steps >= p) {
                return Ok(());
            }
            self.step()?;
        }
        Ok(())
    }

    /// Pushes an activation record for `fid`: a copy of its decoded slot
    /// template with the arguments' raw images written in. The depth check
    /// mirrors the old recursive implementation: the frame about to be
    /// pushed sits at depth `frames.len()`.
    pub(crate) fn push_frame(&mut self, fid: FuncId, args: &[u64]) -> Result<(), Stop> {
        if self.frames.len() >= self.opts.max_call_depth as usize {
            return Err(Trap::CallDepthExceeded.into());
        }
        let func = self.module.func(fid);
        let mut slots = self.decoded.funcs[fid.index()].frame_template.to_vec();
        let first_arg = arg_slot(func, 0);
        slots[first_arg..first_arg + args.len()].copy_from_slice(args);
        self.frame_counter += 1;
        self.frames.push(Frame {
            fid,
            frame_id: self.frame_counter,
            saved_sp: self.sp,
            slots,
            cur: func.entry(),
            prev: None,
            ip: 0,
        });
        Ok(())
    }

    /// Captures a snapshot if capture is enabled and due. Called only at
    /// instruction boundaries (between step slices), so every snapshot is
    /// a consistent, resumable state.
    fn maybe_snapshot(&mut self) {
        if !matches!(&self.snap, Some(s) if self.steps >= s.next_at) {
            return;
        }
        let snap = self.snap.as_mut().expect("checked above");
        let prev_mem = snap.snapshots.last().map(|s| &s.mem);
        let snapshot = InterpSnapshot {
            frames: self.frames.clone(),
            mem: self.mem.snapshot(prev_mem),
            console: self.console.clone(),
            global_addrs: self.global_addrs.clone(),
            stack_start: self.stack_start,
            sp: self.sp,
            steps: self.steps,
            frame_counter: self.frame_counter,
            counts: snap.counts.clone(),
        };
        snap.snapshots.push(snapshot);
        while snap.next_at <= self.steps {
            snap.next_at += snap.interval;
        }
    }

    /// The reference core: executes instructions in the top frame, one
    /// `match` over the IR per instruction, until a control transfer
    /// (call/return) or the pause point hands control back. Reached only
    /// through [`Interp::run_reference_until`].
    #[allow(clippy::too_many_lines)]
    fn step(&mut self) -> Result<(), Stop> {
        let mut frame = self.frames.pop().expect("step with a live frame");
        let fid = frame.fid;
        let func = self.module.func(fid);
        // Break the slice at the nearer of the next snapshot point and the
        // pause point; both are handled by `exec` at the boundary.
        let snap_due = match (self.snap.as_ref().map(|s| s.next_at), self.pause_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };

        loop {
            if let Some(at) = snap_due {
                if self.steps >= at {
                    self.frames.push(frame);
                    return Ok(());
                }
            }
            let insts = &func.block(frame.cur).insts;

            if frame.ip == 0 {
                // Evaluate the leading φ-batch in parallel (values read
                // before any is written), as SSA semantics require. The
                // batch is atomic within one step slice, so snapshots
                // never land mid-batch.
                let mut phi_end = 0;
                while phi_end < insts.len() {
                    let id = insts[phi_end];
                    if !matches!(func.inst(id).kind, InstKind::Phi { .. }) {
                        break;
                    }
                    phi_end += 1;
                }
                if phi_end > 0 {
                    let pred = frame.prev.expect("phi in entry block");
                    let mut staged: Vec<(InstId, RtVal)> = Vec::with_capacity(phi_end);
                    for &id in &insts[0..phi_end] {
                        self.budget()?;
                        let InstKind::Phi { incomings } = &func.inst(id).kind else {
                            unreachable!()
                        };
                        let (_, v) = incomings
                            .iter()
                            .find(|(pb, _)| *pb == pred)
                            .expect("verified phi has incoming for every predecessor");
                        let mut val = self.eval(func, &frame, id, *v)?;
                        self.result(
                            InstSite {
                                func: fid,
                                inst: id,
                            },
                            frame.frame_id,
                            &mut val,
                        );
                        staged.push((id, val));
                    }
                    for (id, val) in staged {
                        frame.slots[id.index()] = raw_of(val);
                    }
                    frame.ip = phi_end;
                    // The batch may have crossed the boundary; re-check
                    // before the fall-through instruction so pauses land
                    // between the batch and the instruction (the decoded
                    // core yields here too).
                    if let Some(at) = snap_due {
                        if self.steps >= at {
                            self.frames.push(frame);
                            return Ok(());
                        }
                    }
                }
            }

            let id = insts[frame.ip];
            self.budget()?;
            let inst = func.inst(id);
            let site = InstSite {
                func: fid,
                inst: id,
            };
            match &inst.kind {
                InstKind::Phi { .. } => unreachable!("phi after non-phi"),
                InstKind::Binary { op, lhs, rhs } => {
                    let l = self.eval(func, &frame, id, *lhs)?;
                    let r = self.eval(func, &frame, id, *rhs)?;
                    let mut val =
                        if op.is_float() {
                            match (l, r) {
                                (RtVal::F64(a), RtVal::F64(b)) => {
                                    RtVal::F64(ops::eval_float_binop(*op, a, b))
                                }
                                (RtVal::F32(a), RtVal::F32(b)) => RtVal::F32(
                                    ops::eval_float_binop(*op, f64::from(a), f64::from(b)) as f32,
                                ),
                                _ => panic!("verified float binop on non-floats"),
                            }
                        } else {
                            let t = inst.ty.as_int().expect("verified int binop");
                            RtVal::Int(t, ops::eval_int_binop(*op, t, l.as_int(), r.as_int())?)
                        };
                    self.result(site, frame.frame_id, &mut val);
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                InstKind::ICmp { pred, lhs, rhs } => {
                    let l = self.eval(func, &frame, id, *lhs)?;
                    let r = self.eval(func, &frame, id, *rhs)?;
                    let (ty, lv, rv) = match (l, r) {
                        (RtVal::Int(t, a), RtVal::Int(_, b)) => (Some(t), a, b),
                        (RtVal::Ptr(a), RtVal::Ptr(b)) => (None, a, b),
                        _ => panic!("verified icmp operands"),
                    };
                    let mut val = RtVal::bool(ops::eval_icmp(*pred, ty, lv, rv));
                    self.result(site, frame.frame_id, &mut val);
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                InstKind::FCmp { pred, lhs, rhs } => {
                    let l = self.eval(func, &frame, id, *lhs)?;
                    let r = self.eval(func, &frame, id, *rhs)?;
                    let (a, b) = match (l, r) {
                        (RtVal::F64(a), RtVal::F64(b)) => (a, b),
                        (RtVal::F32(a), RtVal::F32(b)) => (f64::from(a), f64::from(b)),
                        _ => panic!("verified fcmp operands"),
                    };
                    let mut val = RtVal::bool(ops::eval_fcmp(*pred, a, b));
                    self.result(site, frame.frame_id, &mut val);
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                InstKind::Cast { op, val } => {
                    let v = self.eval(func, &frame, id, *val)?;
                    let mut out = ops::eval_cast(*op, v, &inst.ty);
                    self.result(site, frame.frame_id, &mut out);
                    frame.slots[id.index()] = raw_of(out);
                    frame.ip += 1;
                }
                InstKind::Alloca { ty } => {
                    let size = ty.size().max(1);
                    let align = ty.align().max(1);
                    let new_sp = self
                        .sp
                        .checked_sub(size)
                        .map(|s| s / align * align)
                        .ok_or(Trap::StackOverflow)?;
                    if new_sp < self.stack_start {
                        return Err(Trap::StackOverflow.into());
                    }
                    self.sp = new_sp;
                    let mut val = RtVal::Ptr(new_sp);
                    self.result(site, frame.frame_id, &mut val);
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                InstKind::Load { ptr } => {
                    let p = self.eval(func, &frame, id, *ptr)?.as_ptr();
                    self.hook.on_load(site, frame.frame_id, p, inst.ty.size());
                    let mut val = self.load_typed(p, &inst.ty)?;
                    self.result(site, frame.frame_id, &mut val);
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                InstKind::Store { val, ptr } => {
                    let v = self.eval(func, &frame, id, *val)?;
                    let p = self.eval(func, &frame, id, *ptr)?.as_ptr();
                    let size = v.ty().size();
                    self.store_typed(p, v)?;
                    self.hook.on_store(site, frame.frame_id, p, size);
                    frame.ip += 1;
                }
                InstKind::Gep {
                    elem_ty,
                    base,
                    indices,
                } => {
                    let b = self.eval(func, &frame, id, *base)?.as_ptr();
                    let mut addr = b;
                    let mut cur_ty = elem_ty.clone();
                    for (i, idx) in indices.iter().enumerate() {
                        let iv = self.eval(func, &frame, id, *idx)?;
                        let sidx = iv.as_sint();
                        if i == 0 {
                            addr = addr.wrapping_add((sidx as u64).wrapping_mul(cur_ty.size()));
                        } else {
                            match cur_ty.clone() {
                                Type::Array(elem, _) => {
                                    addr =
                                        addr.wrapping_add((sidx as u64).wrapping_mul(elem.size()));
                                    cur_ty = *elem;
                                }
                                Type::Struct(_) => {
                                    let off = cur_ty.struct_field_offset(sidx as usize);
                                    addr = addr.wrapping_add(off);
                                    let Type::Struct(fields) = cur_ty else {
                                        unreachable!()
                                    };
                                    cur_ty = fields[sidx as usize].clone();
                                }
                                other => panic!("verified gep walks aggregate, got {other}"),
                            }
                        }
                    }
                    let mut val = RtVal::Ptr(addr);
                    self.result(site, frame.frame_id, &mut val);
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                InstKind::Select {
                    cond,
                    then_val,
                    else_val,
                } => {
                    let c = self.eval(func, &frame, id, *cond)?.as_bool();
                    // Both arms are evaluated (uses registered) before
                    // selection, like a cmov reading both registers.
                    let t = self.eval(func, &frame, id, *then_val)?;
                    let e = self.eval(func, &frame, id, *else_val)?;
                    let mut val = if c { t } else { e };
                    self.result(site, frame.frame_id, &mut val);
                    frame.slots[id.index()] = raw_of(val);
                    frame.ip += 1;
                }
                InstKind::Call {
                    callee,
                    args: cargs,
                } => {
                    let mut vals = Vec::with_capacity(cargs.len());
                    for a in cargs {
                        vals.push(self.eval(func, &frame, id, *a)?);
                    }
                    match callee {
                        Callee::Func(target) => {
                            // Leave `ip` at the call; return delivery
                            // advances it.
                            let raw: Vec<u64> = vals.into_iter().map(raw_of).collect();
                            self.frames.push(frame);
                            self.push_frame(*target, &raw)?;
                            return Ok(());
                        }
                        Callee::Intrinsic(i) => {
                            let ret = self.intrinsic(*i, &vals)?;
                            if inst.has_result() {
                                let mut val = ret.expect("non-void call returned a value");
                                self.result(site, frame.frame_id, &mut val);
                                frame.slots[id.index()] = raw_of(val);
                            }
                            frame.ip += 1;
                        }
                    }
                }
                InstKind::Br { target } => {
                    frame.prev = Some(frame.cur);
                    frame.cur = *target;
                    frame.ip = 0;
                }
                InstKind::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.eval(func, &frame, id, *cond)?.as_bool();
                    frame.prev = Some(frame.cur);
                    frame.cur = if c { *then_bb } else { *else_bb };
                    frame.ip = 0;
                }
                InstKind::Ret { val } => {
                    let out = match val {
                        Some(v) => Some(self.eval(func, &frame, id, *v)?),
                        None => None,
                    };
                    self.sp = frame.saved_sp;
                    drop(frame);
                    let Some(caller) = self.frames.last() else {
                        // `main` returned; its value (if any) is ignored.
                        return Ok(());
                    };
                    // Deliver the return value into the caller's pending
                    // call instruction, in this same step slice, so no
                    // half-delivered state is ever snapshotted.
                    let cfid = caller.fid;
                    let c_frame_id = caller.frame_id;
                    let cfunc = self.module.func(cfid);
                    let call_id = cfunc.block(caller.cur).insts[caller.ip];
                    if cfunc.inst(call_id).has_result() {
                        let mut val = out.expect("non-void call returned a value");
                        self.result(
                            InstSite {
                                func: cfid,
                                inst: call_id,
                            },
                            c_frame_id,
                            &mut val,
                        );
                        let caller = self.frames.last_mut().expect("caller frame");
                        caller.slots[call_id.index()] = raw_of(val);
                    }
                    self.frames.last_mut().expect("caller frame").ip += 1;
                    return Ok(());
                }
                InstKind::Unreachable => {
                    return Err(Trap::UnreachableExecuted.into());
                }
            }
        }
    }

    #[inline]
    pub(crate) fn budget(&mut self) -> Result<(), Stop> {
        self.steps += 1;
        if self.steps > self.opts.max_steps {
            return Err(Stop::Budget);
        }
        Ok(())
    }

    /// Delivers an instruction result to the hook, bumping the snapshot
    /// count vector first so snapshots agree with what profiling hooks
    /// have observed.
    #[inline]
    pub(crate) fn result(&mut self, site: InstSite, frame_id: u64, val: &mut RtVal) {
        if let Some(snap) = &mut self.snap {
            snap.counts[site.func.index()][site.inst.index()] += 1;
        }
        self.hook.on_result(site, frame_id, val);
    }

    fn eval(
        &mut self,
        func: &fiq_ir::Function,
        frame: &Frame,
        consumer: InstId,
        v: Value,
    ) -> Result<RtVal, Stop> {
        Ok(match v {
            Value::Inst(id) => {
                self.hook.on_use(
                    InstSite {
                        func: frame.fid,
                        inst: id,
                    },
                    InstSite {
                        func: frame.fid,
                        inst: consumer,
                    },
                    frame.frame_id,
                );
                // The raw slot image is retagged with the defining
                // instruction's static result type.
                val_of_raw(LoadKind::of(&func.inst(id).ty), frame.slots[id.index()])
            }
            Value::Arg(n) => val_of_raw(
                LoadKind::of(&func.params[n as usize]),
                frame.slots[arg_slot(func, n)],
            ),
            Value::Const(c) => {
                let (raw, kind) = const_image(c, &self.global_addrs);
                val_of_raw(kind, raw)
            }
        })
    }

    fn load_typed(&self, addr: u64, ty: &Type) -> Result<RtVal, Trap> {
        Ok(match ty {
            Type::Int(t) => RtVal::Int(*t, t.truncate(self.mem.read_uint(addr, t.bytes())?)),
            Type::Float(FloatTy::F32) => RtVal::F32(self.mem.read_f32(addr)?),
            Type::Float(FloatTy::F64) => RtVal::F64(self.mem.read_f64(addr)?),
            Type::Ptr => RtVal::Ptr(self.mem.read_uint(addr, 8)?),
            other => panic!("load of non-first-class type {other}"),
        })
    }

    #[inline(always)]
    pub(crate) fn store_typed(&mut self, addr: u64, v: RtVal) -> Result<(), Trap> {
        match v {
            RtVal::Int(t, raw) => self.mem.write_uint(addr, raw, t.bytes()),
            RtVal::F32(f) => self.mem.write_f32(addr, f),
            RtVal::F64(f) => self.mem.write_f64(addr, f),
            RtVal::Ptr(p) => self.mem.write_uint(addr, p, 8),
        }
    }

    pub(crate) fn intrinsic(
        &mut self,
        i: Intrinsic,
        args: &[RtVal],
    ) -> Result<Option<RtVal>, Stop> {
        Ok(match i {
            Intrinsic::PrintI64 => {
                self.console.print_i64(args[0].as_sint());
                None
            }
            Intrinsic::PrintF64 => {
                self.console.print_f64(args[0].as_f64());
                None
            }
            Intrinsic::PrintChar => {
                self.console.print_char(args[0].as_sint());
                None
            }
            Intrinsic::Sqrt => Some(RtVal::F64(args[0].as_f64().sqrt())),
            Intrinsic::Fabs => Some(RtVal::F64(args[0].as_f64().abs())),
            Intrinsic::Floor => Some(RtVal::F64(args[0].as_f64().floor())),
            Intrinsic::Sin => Some(RtVal::F64(args[0].as_f64().sin())),
            Intrinsic::Cos => Some(RtVal::F64(args[0].as_f64().cos())),
            Intrinsic::Exp => Some(RtVal::F64(args[0].as_f64().exp())),
            Intrinsic::Log => Some(RtVal::F64(args[0].as_f64().ln())),
            Intrinsic::Abort => return Err(Trap::Aborted.into()),
        })
    }
}

/// Convenience: runs `main()` of `module` with no hook and default-ish
/// options.
///
/// # Errors
///
/// Returns the trap if memory setup fails (globals exceed capacity).
pub fn run_module(module: &Module, opts: InterpOptions) -> Result<ExecResult, Trap> {
    let mut interp = Interp::new(module, opts, crate::hook::NopHook)?;
    Ok(interp.run())
}
