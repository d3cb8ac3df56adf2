//! The machine emulator.

use crate::decoded::{DecInst, DecodedProgram};
use crate::flags::{self, ALL_FLAGS};
use crate::inst::{AluOp, ExtFn, Inst, MemRef, Operand, ShiftOp, SseOp, Width, XOperand};
use crate::program::AsmProgram;
use crate::regs::{Reg, Xmm};
use fiq_mem::{component, Console, Divergence, MemSnapshot, Memory, Quiescence, RunStatus, Trap};
use std::sync::Arc;

/// Sentinel return address marking the bottom of the call stack.
pub const RET_SENTINEL: u64 = u64::MAX;

/// Unmapped guard gap between globals and stack, in bytes.
const GUARD_SIZE: u64 = 4096;

/// Emulator configuration. Memory capacity and stack size are
/// `fiq_mem::DEFAULT_CAPACITY` and `fiq_mem::DEFAULT_STACK_SIZE`.
#[derive(Debug, Clone, Copy)]
pub struct MachOptions {
    /// Dynamic-instruction budget (hang detection).
    pub max_steps: u64,
}

impl Default for MachOptions {
    fn default() -> MachOptions {
        MachOptions {
            max_steps: 500_000_000,
        }
    }
}

/// Reuses the shared decoded-program handle or decodes inline. The
/// decode is pure, so a shared handle is interchangeable with an inline
/// decode.
fn ensure_decoded(prog: &AsmProgram, decoded: Option<Arc<DecodedProgram>>) -> Arc<DecodedProgram> {
    let dec = decoded.unwrap_or_else(|| Arc::new(DecodedProgram::decode(prog)));
    debug_assert_eq!(
        dec.code.len(),
        prog.insts.len(),
        "decoded program was built for a different program"
    );
    dec
}

/// The architectural state: registers, FLAGS, memory, console. Hooks may
/// mutate it freely (that is how faults are injected).
#[derive(Debug, Clone)]
pub struct MachState {
    /// General-purpose registers, indexed by [`Reg::index`].
    pub regs: [u64; 16],
    /// XMM registers as `[low, high]` 64-bit halves. Double-precision
    /// arithmetic uses only the low half.
    pub xmm: [[u64; 2]; 16],
    /// The FLAGS register.
    pub flags: u64,
    /// Simulated memory.
    pub mem: Memory,
    /// Program output.
    pub console: Console,
}

impl MachState {
    /// Reads a GPR.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a GPR.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// Reads the low half of an XMM register as an `f64`.
    pub fn xmm_f64(&self, x: Xmm) -> f64 {
        f64::from_bits(self.xmm[x.index()][0])
    }

    /// Writes the low half of an XMM register from an `f64` (high half
    /// preserved, as on x86 scalar ops).
    pub fn set_xmm_f64(&mut self, x: Xmm, v: f64) {
        self.xmm[x.index()][0] = v.to_bits();
    }
}

/// Observer/mutator called after each retired instruction — the analogue of
/// a PIN instrumentation callback (paper §IV). PINFI-style injection mutates
/// the destination register in `st`; profiling counts instructions by
/// inspecting `prog.insts[idx]`.
pub trait AsmHook {
    /// Called after instruction `idx` retires (its destination is written)
    /// and before the next instruction fetches.
    fn on_retire(&mut self, idx: usize, st: &mut MachState) {
        let _ = (idx, st);
    }

    /// The hook's current instrumentation phase (see [`Quiescence`]); the
    /// site type is a static instruction index. Queried by the decoded
    /// core between steps; reporting anything other than `Active` lets
    /// the core run a monomorphized fast loop with retire dispatch
    /// compiled out. The default keeps full instrumentation, which is
    /// always correct.
    fn quiescence(&self) -> Quiescence<usize> {
        Quiescence::Active
    }
}

/// A hook that does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NopAsmHook;

impl AsmHook for NopAsmHook {
    fn quiescence(&self) -> Quiescence<usize> {
        Quiescence::Forever
    }
}

/// A point-in-time capture of a running [`Machine`], taken at an
/// instruction boundary by [`Machine::run_with_snapshots`].
///
/// A snapshot holds the full architectural state — GPRs, XMM, FLAGS,
/// memory image (page-shared with neighbouring snapshots), console, RIP,
/// and the retired-instruction counter — plus the per-instruction dynamic
/// retire-count vector at the capture point, so a fault injector restoring
/// from it knows how many instances of the target instruction have
/// already retired.
#[derive(Debug, Clone)]
pub struct MachSnapshot {
    regs: [u64; 16],
    xmm: [[u64; 2]; 16],
    flags: u64,
    mem: MemSnapshot,
    console: Console,
    rip: usize,
    steps: u64,
    counts: Vec<u64>,
}

impl MachSnapshot {
    /// Instructions retired at the capture point.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// How many times static instruction `idx` had retired at the capture
    /// point (the dynamic-instance clock fault planners index by).
    pub fn site_count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// The captured memory image (exposed for page-sharing diagnostics).
    pub fn mem(&self) -> &MemSnapshot {
        &self.mem
    }
}

/// The complete state of a running [`Machine`] but its retired-instruction
/// counter, taken by [`Machine::capture`] and compared with
/// [`Machine::equals_capture`] later in the same run. The console is kept
/// as its length: a run only appends to it, so equal lengths mean equal
/// contents.
#[derive(Debug, Clone)]
pub struct MachCapture {
    regs: [u64; 16],
    xmm: [[u64; 2]; 16],
    flags: u64,
    mem: MemSnapshot,
    console_len: usize,
    rip: usize,
}

/// The result of a machine run (shared with the IR level).
pub use fiq_mem::RunResult;

enum Stop {
    Trap(Trap),
    Budget,
    Finished,
}

impl From<Trap> for Stop {
    fn from(t: Trap) -> Stop {
        Stop::Trap(t)
    }
}

impl Stop {
    fn status(self) -> RunStatus {
        match self {
            Stop::Finished => RunStatus::Finished,
            Stop::Trap(t) => RunStatus::Trapped(t),
            Stop::Budget => RunStatus::BudgetExceeded,
        }
    }
}

/// The emulator. Create with [`Machine::new`], run with [`Machine::run`].
pub struct Machine<'p, H> {
    prog: &'p AsmProgram,
    /// Architectural state (public so callers can inspect after a run).
    pub st: MachState,
    hook: H,
    opts: MachOptions,
    rip: usize,
    steps: u64,
    restored_steps: u64,
    /// Steps retired inside the quiescent fast loop (telemetry).
    steps_quiescent: u64,
    decoded: Arc<DecodedProgram>,
    /// Per-instruction retire counts, tracked at the single retire point
    /// while [`Machine::run_with_snapshots`] is active.
    counts: Option<Vec<u64>>,
}

impl<'p, H: AsmHook> Machine<'p, H> {
    /// Creates a machine: materializes globals, the guard gap, and the
    /// stack, points `rip` at `main`, and decodes the program inline; use
    /// [`Machine::with_decoded`] to share one decode across many runs.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::OutOfMemory`] if globals plus stack exceed capacity.
    ///
    /// # Panics
    ///
    /// Panics if the program has no functions.
    pub fn new(prog: &'p AsmProgram, opts: MachOptions, hook: H) -> Result<Machine<'p, H>, Trap> {
        Machine::with_decoded(prog, None, opts, hook)
    }

    /// Like [`Machine::new`], but reusing a shared pre-decoded program
    /// (pass `None` to decode inline).
    ///
    /// # Errors
    ///
    /// Returns [`Trap::OutOfMemory`] if globals plus stack exceed capacity.
    ///
    /// # Panics
    ///
    /// Panics if the program has no functions.
    pub fn with_decoded(
        prog: &'p AsmProgram,
        decoded: Option<Arc<DecodedProgram>>,
        opts: MachOptions,
        hook: H,
    ) -> Result<Machine<'p, H>, Trap> {
        let mut mem = Memory::with_capacity(fiq_mem::DEFAULT_CAPACITY);
        prog.materialize_globals(&mut mem)?;
        mem.reserve_guard(GUARD_SIZE);
        let stack_top = mem.alloc_stack(fiq_mem::DEFAULT_STACK_SIZE)?;
        let mut st = MachState {
            regs: [0; 16],
            xmm: [[0; 2]; 16],
            flags: 0,
            mem,
            console: Console::new(),
        };
        // Push the sentinel return address.
        let rsp = stack_top - 8;
        st.mem.write_uint(rsp, RET_SENTINEL, 8)?;
        st.set_reg(Reg::Rsp, rsp);
        let main = &prog.funcs[prog.main as usize];
        let decoded = ensure_decoded(prog, decoded);
        Ok(Machine {
            prog,
            st,
            hook,
            opts,
            rip: main.entry as usize,
            steps: 0,
            restored_steps: 0,
            steps_quiescent: 0,
            decoded,
            counts: None,
        })
    }

    /// Recreates a machine mid-run from a snapshot: the next
    /// [`Machine::run`] resumes at the captured instruction boundary with
    /// the given (fresh) hook observing only the tail of the execution.
    ///
    /// The program and options must be the ones the snapshot was captured
    /// under for the resumed run to mean anything; `max_steps` may differ
    /// (the step counter continues from the captured value and is checked
    /// against the restoring run's budget).
    pub fn restore(
        prog: &'p AsmProgram,
        opts: MachOptions,
        hook: H,
        snap: &MachSnapshot,
    ) -> Machine<'p, H> {
        Machine::restore_with_decoded(prog, None, opts, hook, snap)
    }

    /// Like [`Machine::restore`], but reusing a shared pre-decoded program
    /// (pass `None` to decode inline).
    pub fn restore_with_decoded(
        prog: &'p AsmProgram,
        decoded: Option<Arc<DecodedProgram>>,
        opts: MachOptions,
        hook: H,
        snap: &MachSnapshot,
    ) -> Machine<'p, H> {
        let decoded = ensure_decoded(prog, decoded);
        Machine {
            prog,
            st: MachState {
                regs: snap.regs,
                xmm: snap.xmm,
                flags: snap.flags,
                mem: Memory::from_snapshot(&snap.mem),
                console: snap.console.clone(),
            },
            hook,
            opts,
            rip: snap.rip,
            steps: snap.steps,
            restored_steps: snap.steps,
            steps_quiescent: 0,
            decoded,
            counts: None,
        }
    }

    /// Runs to completion, trap, or budget exhaustion.
    pub fn run(&mut self) -> RunResult {
        let status = self
            .drive(u64::MAX)
            .expect("a u64::MAX pause point is unreachable");
        self.result(status)
    }

    fn result(&self, status: RunStatus) -> RunResult {
        RunResult {
            status,
            steps: self.steps,
            output: self.st.console.contents().to_string(),
        }
    }

    /// Runs until `pause_at` instructions have retired or the program
    /// stops; `None` means paused at the boundary. The decoded table is
    /// fetched once, outside the loop, so the hot path pays no per-step
    /// `Arc` deref.
    fn drive(&mut self, pause_at: u64) -> Option<RunStatus> {
        let dec = Arc::clone(&self.decoded);
        let code: &[DecInst] = &dec.code;
        // The quiescent fast loop is only legal while retire counting is
        // off: counts are bumped inside retire(), which the fast loop
        // compiles out. Only `run_with_snapshots` counts, and it never
        // drives.
        debug_assert!(self.counts.is_none(), "drive while counting retires");
        let stop = loop {
            if self.steps >= pause_at {
                return None;
            }
            let r = match self.hook.quiescence() {
                Quiescence::Active => self.step_decoded(code),
                Quiescence::Forever => self.step_quiescent(code, pause_at, None).map(|_| ()),
                Quiescence::UntilSite(s) => match self.step_quiescent(code, pause_at, Some(s)) {
                    // Stopped just before the watched site: run one evented
                    // step, then re-query the hook's phase.
                    Ok(true) => self.step_decoded(code),
                    other => other.map(|_| ()),
                },
            };
            if let Err(s) = r {
                break s;
            }
        };
        Some(stop.status())
    }

    /// Runs like [`Machine::run`], capturing a snapshot at the first
    /// instruction boundary once every `interval` retired instructions
    /// (`interval` is clamped to at least 1). Returns the captured
    /// snapshots alongside the result; memory pages are shared between
    /// consecutive snapshots where unchanged.
    pub fn run_with_snapshots(&mut self, interval: u64) -> (RunResult, Vec<MachSnapshot>) {
        let interval = interval.max(1);
        let mut next_at = interval;
        self.counts = Some(vec![0u64; self.prog.insts.len()]);
        let dec = Arc::clone(&self.decoded);
        let mut snaps: Vec<MachSnapshot> = Vec::new();
        let status = loop {
            if self.steps >= next_at {
                let prev_mem = snaps.last().map(|s| &s.mem);
                snaps.push(MachSnapshot {
                    regs: self.st.regs,
                    xmm: self.st.xmm,
                    flags: self.st.flags,
                    mem: self.st.mem.snapshot(prev_mem),
                    console: self.st.console.clone(),
                    rip: self.rip,
                    steps: self.steps,
                    counts: self.counts.as_ref().expect("counting enabled").clone(),
                });
                while next_at <= self.steps {
                    next_at += interval;
                }
            }
            if let Err(s) = self.step_decoded(&dec.code) {
                break s.status();
            }
        };
        self.counts = None;
        (self.result(status), snaps)
    }

    /// Runs like [`Machine::run`], but pauses at the first instruction
    /// boundary where the retired-instruction counter has reached `until`
    /// — the same boundary rule [`Machine::run_with_snapshots`] captures
    /// at, so a faulty run paused at a golden checkpoint's step count is
    /// directly comparable to that checkpoint.
    ///
    /// Returns `None` if paused (the program is still live; call again
    /// with a later target, or [`Machine::run`] to run to completion), or
    /// `Some(result)` if the program finished/trapped/exhausted its budget
    /// before reaching the pause point.
    pub fn run_until(&mut self, until: u64) -> Option<RunResult> {
        let status = self.drive(until)?;
        Some(self.result(status))
    }

    /// Runs the *reference core* — one `match` over the source
    /// instruction per step, the semantics that define the machine —
    /// with the same pause rule and return contract as
    /// [`Machine::run_until`]; pass `u64::MAX` to run to completion. It
    /// fires the same retire events in the same order as the decoded
    /// core but never consults [`AsmHook::quiescence`].
    ///
    /// This is the oracle the decoded core is checked against. Its only
    /// callers are the lockstep tests (`tests/tests/dispatch.rs`); no
    /// production path calls it.
    pub fn run_reference_until(&mut self, until: u64) -> Option<RunResult> {
        let stop = loop {
            if self.steps >= until {
                return None;
            }
            if let Err(s) = self.step() {
                break s;
            }
        };
        Some(self.result(stop.status()))
    }

    /// Instructions retired so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Steps retired through the quiescent fast loop (0 when the hook
    /// never reported itself inert).
    pub fn steps_quiescent(&self) -> u64 {
        self.steps_quiescent
    }

    /// The step count inherited from the snapshot this machine was
    /// [`Machine::restore`]d from (0 for a fresh machine). The difference
    /// `steps() - restored_steps()` is the work this machine actually
    /// executed.
    pub fn restored_steps(&self) -> u64 {
        self.restored_steps
    }

    /// The live memory (for page-compare and restore-copy counters).
    pub fn memory(&self) -> &Memory {
        &self.st.mem
    }

    /// The console (program output so far).
    pub fn console(&self) -> &Console {
        &self.st.console
    }

    /// Consumes the machine, returning the hook.
    pub fn into_hook(self) -> H {
        self.hook
    }

    /// The hook, for mid-run inspection (e.g. between [`Machine::run_until`]
    /// pauses, to decide whether a convergence check is worthwhile).
    pub fn hook(&self) -> &H {
        &self.hook
    }

    /// Convergence check: exact comparison of the live architectural
    /// state against a golden checkpoint (registers, XMM, FLAGS, RIP,
    /// memory bytes, console, step counter). `true` here means the
    /// remaining execution is step-for-step identical to the golden run
    /// from this checkpoint on. The registers, where a faulty run that
    /// reaches a checkpoint with a settled fault almost always still
    /// differs, go before the console and memory.
    pub fn state_equals_snapshot(&self, snap: &MachSnapshot) -> bool {
        self.steps == snap.steps
            && self.rip == snap.rip
            && self.st.regs == snap.regs
            && self.st.xmm == snap.xmm
            && self.st.flags == snap.flags
            && self.st.console.contents() == snap.console.contents()
            && self.st.mem.equals_snapshot(&snap.mem)
    }

    /// Captures the live state for [`Machine::equals_capture`]: its cost
    /// is the memory pages written since this machine was created or
    /// restored.
    pub fn capture(&self) -> MachCapture {
        MachCapture {
            regs: self.st.regs,
            xmm: self.st.xmm,
            flags: self.st.flags,
            mem: self.st.mem.capture(),
            console_len: self.st.console.len(),
            rip: self.rip,
        }
    }

    /// True when the live state equals `capture`, taken earlier in this
    /// run, in everything but the retired-instruction counter: RIP, GPRs,
    /// XMM, FLAGS, console length and memory bytes. The machine is
    /// deterministic, so a run whose hook no longer changes anything then
    /// repeats the instructions in between forever.
    pub fn equals_capture(&self, capture: &MachCapture) -> bool {
        self.rip == capture.rip
            && self.st.regs == capture.regs
            && self.st.xmm == capture.xmm
            && self.st.flags == capture.flags
            && self.st.console.len() == capture.console_len
            && self.st.mem.equals_snapshot(&capture.mem)
    }

    /// Component-granular divergence of the live state from a golden
    /// checkpoint, for per-injection divergence timelines:
    ///
    /// * [`component::FRAMES`] — control position differs: RIP or the
    ///   retired-instruction clock.
    /// * [`component::REGS`] — a general-purpose or XMM register differs.
    /// * [`component::FLAGS`] — the FLAGS word differs.
    /// * [`component::CONSOLE`] — printed output differs.
    /// * [`component::MEM`] — one or more 4 KiB pages or the allocation
    ///   layout differ; `pages` counts the diverged pages.
    ///
    /// Every comparison is exact, so [`Divergence::clean`] means
    /// byte-identical state.
    pub fn divergence_from(&self, snap: &MachSnapshot) -> Divergence {
        let mut components = 0u8;
        if self.steps != snap.steps || self.rip != snap.rip {
            components |= component::FRAMES;
        }
        if self.st.regs != snap.regs || self.st.xmm != snap.xmm {
            components |= component::REGS;
        }
        if self.st.flags != snap.flags {
            components |= component::FLAGS;
        }
        if self.st.console.contents() != snap.console.contents() {
            components |= component::CONSOLE;
        }
        let pages = self.st.mem.diverged_pages(&snap.mem);
        if pages > 0 || !self.st.mem.layout_matches_snapshot(&snap.mem) {
            components |= component::MEM;
        }
        Divergence { components, pages }
    }

    /// Bumps the retire-count vector (when counting) and delivers the
    /// retire event — the single retire point shared by both cores.
    #[inline]
    fn retire(&mut self, idx: usize) {
        if let Some(c) = &mut self.counts {
            c[idx] += 1;
        }
        self.hook.on_retire(idx, &mut self.st);
    }

    /// One step of the reference core. Reached only through
    /// [`Machine::run_reference_until`].
    fn step(&mut self) -> Result<(), Stop> {
        self.steps += 1;
        if self.steps > self.opts.max_steps {
            return Err(Stop::Budget);
        }
        let idx = self.rip;
        let prog = self.prog;
        let Some(inst) = prog.insts.get(idx) else {
            return Err(Trap::BadJump { target: idx as u64 }.into());
        };
        self.rip += 1; // default fall-through; control flow overrides
        self.exec_inst(inst)?;
        self.retire(idx);
        Ok(())
    }

    /// Executes one instruction's state transition (everything between
    /// fetch and retire) — the reference semantics, shared by the
    /// reference core and the decoded core's `Generic` fallback.
    #[allow(clippy::too_many_lines)]
    fn exec_inst(&mut self, inst: &Inst) -> Result<(), Stop> {
        match *inst {
            Inst::Mov { width, dst, src } => {
                let v = self.read_operand(width, &src)?;
                self.write_operand(width, &dst, v)?;
            }
            Inst::Movsx { width, dst, src } => {
                let raw = self.read_operand(width, &src)?;
                let bits = width.bytes() * 8;
                let v = if bits == 64 {
                    raw
                } else {
                    (((raw << (64 - bits)) as i64) >> (64 - bits)) as u64
                };
                self.st.set_reg(dst, v);
            }
            Inst::Lea { dst, addr } => {
                let a = self.effective_addr(&addr);
                self.st.set_reg(dst, a);
            }
            Inst::Alu { op, dst, src } => {
                let a = self.st.reg(dst);
                let b = self.read_operand(Width::B8, &src)?;
                let (result, fl) = alu_exec(op, a, b);
                self.st.set_reg(dst, result);
                self.st.flags = fl;
            }
            Inst::Shift { op, dst, src } => {
                let a = self.st.reg(dst);
                let count = (self.read_operand(Width::B8, &src)? & 63) as u32;
                let (result, carry) = match op {
                    ShiftOp::Shl => {
                        let r = a << count;
                        let c = count > 0 && (a >> (64 - count)) & 1 != 0;
                        (r, c)
                    }
                    ShiftOp::Shr => {
                        let r = a >> count;
                        let c = count > 0 && (a >> (count - 1)) & 1 != 0;
                        (r, c)
                    }
                    ShiftOp::Sar => {
                        let r = ((a as i64) >> count) as u64;
                        let c = count > 0 && ((a as i64) >> (count - 1)) & 1 != 0;
                        (r, c)
                    }
                };
                self.st.set_reg(dst, result);
                let mut fl = flags::logic_flags(result);
                if carry {
                    fl |= 1 << flags::CF;
                }
                self.st.flags = fl;
            }
            Inst::Neg { dst } => {
                let v = self.st.reg(dst);
                let r = 0u64.wrapping_sub(v);
                self.st.set_reg(dst, r);
                self.st.flags = flags::sub_flags(0, v, r);
            }
            Inst::Cqo => {
                let rax = self.st.reg(Reg::Rax);
                self.st.set_reg(Reg::Rdx, ((rax as i64) >> 63) as u64);
            }
            Inst::Idiv { src } => {
                let divisor = self.read_operand(Width::B8, &src)? as i64;
                if divisor == 0 {
                    return Err(Trap::DivByZero.into());
                }
                let dividend = (i128::from(self.st.reg(Reg::Rdx) as i64) << 64)
                    | i128::from(self.st.reg(Reg::Rax));
                let q = dividend / i128::from(divisor);
                if q > i128::from(i64::MAX) || q < i128::from(i64::MIN) {
                    return Err(Trap::DivByZero.into()); // x86 #DE on overflow
                }
                let r = dividend % i128::from(divisor);
                self.st.set_reg(Reg::Rax, q as u64);
                self.st.set_reg(Reg::Rdx, r as u64);
            }
            Inst::Cmp { lhs, rhs } => {
                let a = self.read_operand(Width::B8, &lhs)?;
                let b = self.read_operand(Width::B8, &rhs)?;
                self.st.flags = flags::sub_flags(a, b, a.wrapping_sub(b));
            }
            Inst::Test { lhs, rhs } => {
                let a = self.read_operand(Width::B8, &lhs)?;
                let b = self.read_operand(Width::B8, &rhs)?;
                self.st.flags = flags::logic_flags(a & b);
            }
            Inst::Setcc { cond, dst } => {
                let v = u64::from(cond.eval(self.st.flags & ALL_FLAGS));
                self.st.set_reg(dst, v);
            }
            Inst::Jmp { target } => {
                self.jump(target)?;
            }
            Inst::Jcc { cond, target } => {
                if cond.eval(self.st.flags & ALL_FLAGS) {
                    self.jump(target)?;
                }
            }
            Inst::Call { func } => {
                let ret = self.rip as u64;
                self.push(ret)?;
                let f = self.prog.funcs.get(func as usize).ok_or(Trap::BadJump {
                    target: u64::from(func),
                })?;
                self.rip = f.entry as usize;
            }
            Inst::CallExt { ext } => self.call_ext(ext)?,
            Inst::Ret => {
                let ret = self.pop()?;
                if ret == RET_SENTINEL {
                    return Err(Stop::Finished);
                }
                if ret >= self.prog.insts.len() as u64 {
                    return Err(Trap::BadJump { target: ret }.into());
                }
                self.rip = ret as usize;
            }
            Inst::Push { src } => {
                let v = self.read_operand(Width::B8, &src)?;
                self.push(v)?;
            }
            Inst::Pop { dst } => {
                let v = self.pop()?;
                self.st.set_reg(dst, v);
            }
            Inst::Movsd { dst, src } => {
                let bits = match src {
                    XOperand::Xmm(x) => self.st.xmm[x.index()][0],
                    XOperand::Mem(m) => {
                        let a = self.effective_addr(&m);
                        self.st.mem.read_uint(a, 8)?
                    }
                };
                match dst {
                    XOperand::Xmm(x) => self.st.xmm[x.index()][0] = bits,
                    XOperand::Mem(m) => {
                        let a = self.effective_addr(&m);
                        self.st.mem.write_uint(a, bits, 8)?;
                    }
                }
            }
            Inst::Sse { op, dst, src } => {
                let b = self.read_xoperand(&src)?;
                let a = self.st.xmm_f64(dst);
                self.st.set_xmm_f64(dst, sse_exec(op, a, b));
            }
            Inst::Ucomisd { lhs, rhs } => {
                let a = self.st.xmm_f64(lhs);
                let b = self.read_xoperand(&rhs)?;
                self.st.flags = flags::ucomisd_flags(a, b);
            }
            Inst::Cvtsi2sd { dst, src } => {
                let v = self.read_operand(Width::B8, &src)? as i64;
                self.st.set_xmm_f64(dst, v as f64);
            }
            Inst::Cvttsd2si { dst, src } => {
                let v = self.read_xoperand(&src)?;
                self.st.set_reg(dst, cvttsd2si(v) as u64);
            }
            Inst::MovqRX { dst, src } => {
                self.st.xmm[dst.index()][0] = self.st.reg(src);
            }
            Inst::MovqXR { dst, src } => {
                let bits = self.st.xmm[src.index()][0];
                self.st.set_reg(dst, bits);
            }
        }
        Ok(())
    }

    /// The decoded twin of `Machine::step`: one step through the decoded
    /// table. Observable semantics are identical to the reference core.
    #[inline]
    fn step_decoded(&mut self, table: &[DecInst]) -> Result<(), Stop> {
        self.step_decoded_impl::<true>(table)
    }

    /// The quiescent fast loop: `step_decoded` monomorphized with retire
    /// dispatch (hook calls and retire counting) compiled out — legal
    /// exactly while the hook reports itself inert (see [`Quiescence`])
    /// and counting is off. Runs until the pause boundary or a stop. With
    /// a watch index, stops *just before* instruction `w` and returns
    /// `true`.
    fn step_quiescent(
        &mut self,
        table: &[DecInst],
        pause_at: u64,
        watch: Option<usize>,
    ) -> Result<bool, Stop> {
        let s0 = self.steps;
        let r = loop {
            if self.steps >= pause_at {
                break Ok(false);
            }
            if watch == Some(self.rip) {
                break Ok(true);
            }
            if let Err(e) = self.step_decoded_impl::<false>(table) {
                break Err(e);
            }
        };
        self.steps_quiescent += self.steps - s0;
        r
    }

    #[inline]
    fn step_decoded_impl<const EVENTS: bool>(&mut self, table: &[DecInst]) -> Result<(), Stop> {
        self.steps += 1;
        if self.steps > self.opts.max_steps {
            return Err(Stop::Budget);
        }
        let idx = self.rip;
        let Some(&d) = table.get(idx) else {
            return Err(Trap::BadJump { target: idx as u64 }.into());
        };
        self.rip += 1; // default fall-through; control flow overrides
        match d {
            DecInst::MovRR { dst, src } => {
                let v = self.st.reg(src);
                self.st.set_reg(dst, v);
            }
            DecInst::MovRI { dst, imm } => {
                self.st.set_reg(dst, imm);
            }
            DecInst::MovLoad { width, dst, m } => {
                let a = self.effective_addr(&m);
                // `read_uint` zero-extends from `width` bytes, so the
                // narrow-write mask is already satisfied.
                let v = self.st.mem.read_uint(a, width.bytes())?;
                self.st.set_reg(dst, v);
            }
            DecInst::MovStoreR { width, m, src } => {
                let a = self.effective_addr(&m);
                let v = self.st.reg(src);
                self.st.mem.write_uint(a, v, width.bytes())?;
            }
            DecInst::MovStoreI { width, m, imm } => {
                let a = self.effective_addr(&m);
                self.st.mem.write_uint(a, imm, width.bytes())?;
            }
            DecInst::Lea { dst, m } => {
                let a = self.effective_addr(&m);
                self.st.set_reg(dst, a);
            }
            DecInst::AluRR { op, dst, src } => {
                let a = self.st.reg(dst);
                let b = self.st.reg(src);
                let (result, fl) = alu_exec(op, a, b);
                self.st.set_reg(dst, result);
                self.st.flags = fl;
            }
            DecInst::AluRI { op, dst, imm } => {
                let a = self.st.reg(dst);
                let (result, fl) = alu_exec(op, a, imm);
                self.st.set_reg(dst, result);
                self.st.flags = fl;
            }
            DecInst::AluRM { op, dst, m } => {
                let a = self.st.reg(dst);
                let b = self.st.mem.read_uint(self.effective_addr(&m), 8)?;
                let (result, fl) = alu_exec(op, a, b);
                self.st.set_reg(dst, result);
                self.st.flags = fl;
            }
            DecInst::CmpRR { lhs, rhs } => {
                let a = self.st.reg(lhs);
                let b = self.st.reg(rhs);
                self.st.flags = flags::sub_flags(a, b, a.wrapping_sub(b));
            }
            DecInst::CmpRI { lhs, imm } => {
                let a = self.st.reg(lhs);
                self.st.flags = flags::sub_flags(a, imm, a.wrapping_sub(imm));
            }
            DecInst::CmpRM { lhs, m } => {
                let a = self.st.reg(lhs);
                let b = self.st.mem.read_uint(self.effective_addr(&m), 8)?;
                self.st.flags = flags::sub_flags(a, b, a.wrapping_sub(b));
            }
            DecInst::TestRR { lhs, rhs } => {
                let a = self.st.reg(lhs);
                let b = self.st.reg(rhs);
                self.st.flags = flags::logic_flags(a & b);
            }
            DecInst::MovsdXX { dst, src } => {
                self.st.xmm[dst.index()][0] = self.st.xmm[src.index()][0];
            }
            DecInst::MovsdXM { dst, m } => {
                let bits = self.st.mem.read_uint(self.effective_addr(&m), 8)?;
                self.st.xmm[dst.index()][0] = bits;
            }
            DecInst::MovsdMX { m, src } => {
                let a = self.effective_addr(&m);
                self.st.mem.write_uint(a, self.st.xmm[src.index()][0], 8)?;
            }
            DecInst::SseXX { op, dst, src } => {
                let b = self.st.xmm_f64(src);
                let a = self.st.xmm_f64(dst);
                self.st.set_xmm_f64(dst, sse_exec(op, a, b));
            }
            DecInst::SseXM { op, dst, m } => {
                let b = f64::from_bits(self.st.mem.read_uint(self.effective_addr(&m), 8)?);
                let a = self.st.xmm_f64(dst);
                self.st.set_xmm_f64(dst, sse_exec(op, a, b));
            }
            DecInst::Jmp { target } => {
                self.jump(target)?;
            }
            DecInst::Jcc { cond, target } => {
                if cond.eval(self.st.flags & ALL_FLAGS) {
                    self.jump(target)?;
                }
            }
            DecInst::Generic => {
                let prog = self.prog;
                let inst = &prog.insts[idx];
                self.exec_inst(inst)?;
            }
        }
        if EVENTS {
            self.retire(idx);
        }
        Ok(())
    }

    fn jump(&mut self, target: u32) -> Result<(), Stop> {
        if target as usize >= self.prog.insts.len() {
            return Err(Trap::BadJump {
                target: u64::from(target),
            }
            .into());
        }
        self.rip = target as usize;
        Ok(())
    }

    fn effective_addr(&self, m: &MemRef) -> u64 {
        let mut a = m.disp as u64;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.st.reg(b));
        }
        if let Some(i) = m.index {
            a = a.wrapping_add(self.st.reg(i).wrapping_mul(u64::from(m.scale)));
        }
        a
    }

    fn read_operand(&self, width: Width, op: &Operand) -> Result<u64, Trap> {
        Ok(match op {
            Operand::Reg(r) => self.st.reg(*r),
            Operand::Imm(v) => *v as u64,
            Operand::Mem(m) => {
                let a = self.effective_addr(m);
                self.st.mem.read_uint(a, width.bytes())?
            }
        })
    }

    fn write_operand(&mut self, width: Width, op: &Operand, v: u64) -> Result<(), Trap> {
        match op {
            // Narrow register writes zero-extend (declared mov semantics).
            Operand::Reg(r) => {
                let v = match width {
                    Width::B8 => v,
                    w => v & ((1u64 << (w.bytes() * 8)) - 1),
                };
                self.st.set_reg(*r, v);
            }
            Operand::Imm(_) => panic!("write to immediate operand"),
            Operand::Mem(m) => {
                let a = self.effective_addr(m);
                self.st.mem.write_uint(a, v, width.bytes())?;
            }
        }
        Ok(())
    }

    fn read_xoperand(&self, op: &XOperand) -> Result<f64, Trap> {
        Ok(match op {
            XOperand::Xmm(x) => self.st.xmm_f64(*x),
            XOperand::Mem(m) => {
                let a = self.effective_addr(m);
                f64::from_bits(self.st.mem.read_uint(a, 8)?)
            }
        })
    }

    fn push(&mut self, v: u64) -> Result<(), Trap> {
        let rsp = self.st.reg(Reg::Rsp).wrapping_sub(8);
        // Below the stack region lies the guard gap: the write traps, which
        // we report as the canonical stack-overflow signal.
        match self.st.mem.write_uint(rsp, v, 8) {
            Ok(()) => {
                self.st.set_reg(Reg::Rsp, rsp);
                Ok(())
            }
            Err(Trap::Unmapped { addr }) => {
                let in_guard = self
                    .st
                    .mem
                    .stack()
                    .is_some_and(|s| addr < s.start && addr + GUARD_SIZE >= s.start);
                Err(if in_guard {
                    Trap::StackOverflow
                } else {
                    Trap::Unmapped { addr }
                })
            }
            Err(e) => Err(e),
        }
    }

    fn pop(&mut self) -> Result<u64, Trap> {
        let rsp = self.st.reg(Reg::Rsp);
        let v = self.st.mem.read_uint(rsp, 8)?;
        self.st.set_reg(Reg::Rsp, rsp.wrapping_add(8));
        Ok(v)
    }

    fn call_ext(&mut self, ext: ExtFn) -> Result<(), Stop> {
        match ext {
            ExtFn::PrintI64 => {
                let v = self.st.reg(Reg::Rdi) as i64;
                self.st.console.print_i64(v);
            }
            ExtFn::PrintF64 => {
                let v = self.st.xmm_f64(Xmm(0));
                self.st.console.print_f64(v);
            }
            ExtFn::PrintChar => {
                let v = self.st.reg(Reg::Rdi) as i64;
                self.st.console.print_char(v);
            }
            ExtFn::Abort => return Err(Trap::Aborted.into()),
            f => {
                let x = self.st.xmm_f64(Xmm(0));
                let r = match f {
                    ExtFn::Sqrt => x.sqrt(),
                    ExtFn::Fabs => x.abs(),
                    ExtFn::Floor => x.floor(),
                    ExtFn::Sin => x.sin(),
                    ExtFn::Cos => x.cos(),
                    ExtFn::Exp => x.exp(),
                    ExtFn::Log => x.ln(),
                    _ => unreachable!(),
                };
                self.st.set_xmm_f64(Xmm(0), r);
            }
        }
        Ok(())
    }
}

/// Computes an ALU op's result and resulting FLAGS — the one definition
/// shared by the reference `Inst::Alu` arm and the decoded
/// `AluRR`/`AluRI`/`AluRM` variants, so the two cores cannot drift.
#[inline(always)]
fn alu_exec(op: AluOp, a: u64, b: u64) -> (u64, u64) {
    match op {
        AluOp::Add => {
            let r = a.wrapping_add(b);
            (r, flags::add_flags(a, b, r))
        }
        AluOp::Sub => {
            let r = a.wrapping_sub(b);
            (r, flags::sub_flags(a, b, r))
        }
        AluOp::Imul => {
            let wide = i128::from(a as i64) * i128::from(b as i64);
            let r = wide as u64;
            let mut fl = flags::logic_flags(r);
            if wide != i128::from(r as i64) {
                fl |= (1 << flags::CF) | (1 << flags::OF);
            }
            (r, fl)
        }
        AluOp::And => {
            let r = a & b;
            (r, flags::logic_flags(r))
        }
        AluOp::Or => {
            let r = a | b;
            (r, flags::logic_flags(r))
        }
        AluOp::Xor => {
            let r = a ^ b;
            (r, flags::logic_flags(r))
        }
    }
}

/// Computes a scalar-double op's result — the one definition shared by
/// the reference `Inst::Sse` arm and the decoded `SseXX`/`SseXM`
/// variants.
#[inline(always)]
fn sse_exec(op: SseOp, a: f64, b: f64) -> f64 {
    match op {
        SseOp::Addsd => a + b,
        SseOp::Subsd => a - b,
        SseOp::Mulsd => a * b,
        SseOp::Divsd => a / b,
        SseOp::Sqrtsd => b.sqrt(),
    }
}

/// x86 `cvttsd2si` semantics: truncate toward zero; NaN and out-of-range
/// produce the integer-indefinite value `i64::MIN`.
fn cvttsd2si(v: f64) -> i64 {
    if v.is_nan() {
        return i64::MIN;
    }
    let t = v.trunc();
    if t < i64::MIN as f64 || t > i64::MAX as f64 {
        return i64::MIN;
    }
    t as i64
}

/// Convenience: runs a program with no hook.
///
/// # Errors
///
/// Returns the trap if machine setup fails (globals exceed capacity).
pub fn run_program(prog: &AsmProgram, opts: MachOptions) -> Result<RunResult, Trap> {
    let mut m = Machine::new(prog, opts, NopAsmHook)?;
    Ok(m.run())
}
