//! Component-granular state divergence between a live run and a golden
//! checkpoint.
//!
//! Convergence detection answers "is the faulty state *identical* to the
//! golden checkpoint?" as a boolean. Divergence timelines need the finer
//! question: *which parts* differ, and by how much. [`Divergence`] is the
//! shared answer format for both execution substrates — a small bitmap
//! naming the architectural components that differ plus the number of
//! diverged 4 KiB memory pages.
//!
//! Every component is compared exactly, with the byte compares early exit
//! uses ([`crate::Memory::diverged_pages`] reads only the pages the
//! restored memory may have changed), so [`Divergence::clean`] — "fully
//! converged", which ends a timeline — means byte-identical state.

/// Bit flags naming which architectural components diverge from a golden
/// checkpoint. The same bit means the closest equivalent at either level
/// so timelines from both injectors are directly comparable.
pub mod component {
    /// Mapped memory: one or more 4 KiB pages differ, or the allocation
    /// layout (region table, cursor, stack mapping) differs.
    pub const MEM: u8 = 1 << 0;
    /// Console output differs from the capture point.
    pub const CONSOLE: u8 = 1 << 1;
    /// Register state: SSA slot / argument values at the IR level,
    /// general-purpose + XMM registers at the assembly level.
    pub const REGS: u8 = 1 << 2;
    /// FLAGS differ (assembly level only; the IR level has no FLAGS).
    pub const FLAGS: u8 = 1 << 3;
    /// Control position: frame-stack structure (frame list, instruction
    /// pointers, stack pointer, step clock) at the IR level; RIP and the
    /// step clock at the assembly level.
    pub const FRAMES: u8 = 1 << 4;

    /// Short name per bit, in bit order (for reports and debugging).
    pub const NAMES: [(u8, &str); 5] = [
        (MEM, "mem"),
        (CONSOLE, "console"),
        (REGS, "regs"),
        (FLAGS, "flags"),
        (FRAMES, "frames"),
    ];
}

/// One divergence observation: which components differ from a golden
/// checkpoint, and across how many memory pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Divergence {
    /// Bitmap of diverged components (see [`component`]).
    pub components: u8,
    /// Number of 4 KiB pages whose content differs (pages mapped on only
    /// one side count as diverged).
    pub pages: u32,
}

impl Divergence {
    /// True when nothing diverges — the live state is byte-identical to
    /// the checkpoint.
    pub fn clean(&self) -> bool {
        self.components == 0
    }

    /// Human-readable component list, e.g. `"mem+regs"`; `"clean"` when
    /// nothing diverges.
    pub fn describe(&self) -> String {
        if self.clean() {
            return "clean".into();
        }
        let mut names = Vec::new();
        for (bit, name) in component::NAMES {
            if self.components & bit != 0 {
                names.push(name);
            }
        }
        names.join("+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_names_set_bits_in_order() {
        let d = Divergence {
            components: component::MEM | component::FRAMES,
            pages: 3,
        };
        assert_eq!(d.describe(), "mem+frames");
        assert_eq!(Divergence::default().describe(), "clean");
        assert!(Divergence::default().clean());
    }
}
