//! Register file definitions.

use std::fmt;

/// General-purpose 64-bit registers (x86-64 names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Reg {
    Rax,
    Rcx,
    Rdx,
    Rbx,
    Rsp,
    Rbp,
    Rsi,
    Rdi,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

impl Reg {
    /// All sixteen GPRs in encoding order.
    pub const ALL: [Reg; 16] = [
        Reg::Rax,
        Reg::Rcx,
        Reg::Rdx,
        Reg::Rbx,
        Reg::Rsp,
        Reg::Rbp,
        Reg::Rsi,
        Reg::Rdi,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// Encoding index (0..16). The mask is the identity on the sixteen
    /// discriminants; it tells the compiler the index is in range, so a
    /// register-file access `regs[r.index()]` carries no bounds check.
    #[inline]
    pub fn index(self) -> usize {
        self as usize & 15
    }

    /// Integer-argument registers of the calling convention, in order.
    pub const ARGS: [Reg; 6] = [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::Rcx, Reg::R8, Reg::R9];

    /// Callee-saved registers (preserved across calls).
    pub const CALLEE_SAVED: [Reg; 5] = [Reg::Rbx, Reg::R12, Reg::R13, Reg::R14, Reg::R15];

    /// True if the callee must preserve this register.
    pub fn is_callee_saved(self) -> bool {
        matches!(
            self,
            Reg::Rbx | Reg::Rbp | Reg::R12 | Reg::R13 | Reg::R14 | Reg::R15
        )
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Reg::Rax => "rax",
            Reg::Rcx => "rcx",
            Reg::Rdx => "rdx",
            Reg::Rbx => "rbx",
            Reg::Rsp => "rsp",
            Reg::Rbp => "rbp",
            Reg::Rsi => "rsi",
            Reg::Rdi => "rdi",
            Reg::R8 => "r8",
            Reg::R9 => "r9",
            Reg::R10 => "r10",
            Reg::R11 => "r11",
            Reg::R12 => "r12",
            Reg::R13 => "r13",
            Reg::R14 => "r14",
            Reg::R15 => "r15",
        };
        f.write_str(s)
    }
}

/// An XMM (128-bit SSE) register. Double-precision arithmetic uses only the
/// low 64 bits — the basis of PINFI's XMM pruning heuristic (paper Fig 2b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Xmm(pub u8);

impl Xmm {
    /// Number of XMM registers.
    pub const COUNT: u8 = 16;

    /// Floating-point argument registers of the calling convention.
    pub const ARGS: [Xmm; 8] = [
        Xmm(0),
        Xmm(1),
        Xmm(2),
        Xmm(3),
        Xmm(4),
        Xmm(5),
        Xmm(6),
        Xmm(7),
    ];

    /// Encoding index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Xmm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xmm{}", self.0)
    }
}

/// A location fault injection can target: a GPR, an XMM register, or a set
/// of FLAGS bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegId {
    /// A general-purpose register.
    Gpr(Reg),
    /// An XMM register.
    Xmm(Xmm),
    /// FLAGS bits, as a mask over the FLAGS register.
    Flags(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_stable() {
        assert_eq!(Reg::Rax.index(), 0);
        assert_eq!(Reg::R15.index(), 15);
        assert_eq!(Reg::ALL.len(), 16);
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn callee_saved_set() {
        assert!(Reg::Rbx.is_callee_saved());
        assert!(Reg::Rbp.is_callee_saved());
        assert!(!Reg::Rax.is_callee_saved());
        assert!(!Reg::Rdi.is_callee_saved());
    }

    #[test]
    fn display() {
        assert_eq!(Reg::Rsp.to_string(), "rsp");
        assert_eq!(Xmm(3).to_string(), "xmm3");
    }
}
