//! The trap taxonomy shared by the IR interpreter and the assembly
//! emulator.
//!
//! Both execution levels report the *same* trap kinds for the same logical
//! errors, so crash-rate comparisons between injection levels are
//! apples-to-apples (see DESIGN.md §4.1).

use std::error::Error;
use std::fmt;

/// A hardware-exception-like runtime failure. In the fault-injection study
/// any trap terminates the run and the outcome is classified as a *crash*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trap {
    /// Access through a null (or near-null guard page) address.
    NullDeref {
        /// The faulting address.
        addr: u64,
    },
    /// Access to an address outside every live region.
    Unmapped {
        /// The faulting address.
        addr: u64,
    },
    /// Access that starts inside a region but runs past its end.
    OutOfBounds {
        /// The faulting address.
        addr: u64,
    },
    /// Integer division by zero (and `INT_MIN / -1` overflow, which raises
    /// the same exception on x86).
    DivByZero,
    /// Control transfer to an address that is not a valid instruction
    /// location (corrupted return address or branch target).
    BadJump {
        /// The bad target.
        target: u64,
    },
    /// The stack pointer left the stack region.
    StackOverflow,
    /// Call depth exceeded the configured limit (IR-level proxy for stack
    /// exhaustion).
    CallDepthExceeded,
    /// The allocator ran out of simulated memory.
    OutOfMemory,
    /// An `unreachable` instruction was executed.
    UnreachableExecuted,
    /// The program called `abort()`.
    Aborted,
}

impl Trap {
    /// Short machine-readable mnemonic (used in reports).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Trap::NullDeref { .. } => "null-deref",
            Trap::Unmapped { .. } => "unmapped",
            Trap::OutOfBounds { .. } => "out-of-bounds",
            Trap::DivByZero => "div-by-zero",
            Trap::BadJump { .. } => "bad-jump",
            Trap::StackOverflow => "stack-overflow",
            Trap::CallDepthExceeded => "call-depth",
            Trap::OutOfMemory => "out-of-memory",
            Trap::UnreachableExecuted => "unreachable",
            Trap::Aborted => "abort",
        }
    }

    /// True for traps caused by a memory access (the analogue of SIGSEGV).
    pub fn is_memory_fault(self) -> bool {
        matches!(
            self,
            Trap::NullDeref { .. } | Trap::Unmapped { .. } | Trap::OutOfBounds { .. }
        )
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::NullDeref { addr } => write!(f, "null dereference at {addr:#x}"),
            Trap::Unmapped { addr } => write!(f, "access to unmapped address {addr:#x}"),
            Trap::OutOfBounds { addr } => write!(f, "out-of-bounds access at {addr:#x}"),
            Trap::DivByZero => write!(f, "integer division by zero"),
            Trap::BadJump { target } => write!(f, "jump to invalid target {target:#x}"),
            Trap::StackOverflow => write!(f, "stack overflow"),
            Trap::CallDepthExceeded => write!(f, "call depth exceeded"),
            Trap::OutOfMemory => write!(f, "simulated memory exhausted"),
            Trap::UnreachableExecuted => write!(f, "unreachable executed"),
            Trap::Aborted => write!(f, "program aborted"),
        }
    }
}

impl Error for Trap {}

/// Why a program run stopped — shared by the IR interpreter and the
/// assembly emulator so outcome classification is identical at both levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The program ran to completion.
    Finished,
    /// A trap terminated the program (classified as a *crash*).
    Trapped(Trap),
    /// The dynamic-instruction budget was exhausted (classified as a
    /// *hang*).
    BudgetExceeded,
}

impl RunStatus {
    /// True if the program ran to completion.
    pub fn finished(self) -> bool {
        self == RunStatus::Finished
    }
}

/// The result of running a program at either level: why it stopped, how
/// many dynamic instructions it executed (IR) or retired (asm), and its
/// console output.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Why execution stopped.
    pub status: RunStatus,
    /// Dynamic instructions executed.
    pub steps: u64,
    /// Program output.
    pub output: String,
}

impl RunResult {
    /// True if the program ran to completion.
    pub fn finished(&self) -> bool {
        self.status.finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_mnemonics() {
        assert_eq!(
            Trap::NullDeref { addr: 8 }.to_string(),
            "null dereference at 0x8"
        );
        assert_eq!(Trap::DivByZero.mnemonic(), "div-by-zero");
        assert!(Trap::Unmapped { addr: 1 }.is_memory_fault());
        assert!(!Trap::DivByZero.is_memory_fault());
    }
}
