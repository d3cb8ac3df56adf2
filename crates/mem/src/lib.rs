//! # fiq-mem — shared memory model, trap taxonomy, and console
//!
//! Both execution substrates of the fault-injection study — the IR
//! interpreter (`fiq-interp`) and the assembly emulator (`fiq-asm`) — run
//! on this crate's [`Memory`], raise the same [`Trap`]s, and print through
//! the same [`Console`]. This guarantees that a given logical error (bad
//! address, division by zero, corrupted output) is classified identically
//! at both levels, which the paper's crash/SDC comparison depends on.
//!
//! ```
//! use fiq_mem::{Memory, RegionKind};
//!
//! let mut mem = Memory::new();
//! let addr = mem.alloc(64, 8, RegionKind::Global)?;
//! mem.write_uint(addr, 7, 8)?;
//! assert_eq!(mem.read_uint(addr, 8)?, 7);
//! assert!(mem.read_uint(0, 8).is_err()); // null guard traps
//! # Ok::<(), fiq_mem::Trap>(())
//! ```

#![warn(missing_docs)]

mod console;
mod divergence;
mod memory;
mod quiescence;
mod trap;

pub use console::Console;
pub use divergence::{component, Divergence};
pub use memory::{
    MemSnapshot, Memory, Region, RegionKind, DEFAULT_CAPACITY, DEFAULT_STACK_SIZE, NULL_GUARD,
    SNAPSHOT_PAGE,
};
pub use quiescence::Quiescence;
pub use trap::{RunResult, RunStatus, Trap};
