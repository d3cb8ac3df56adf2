//! The FLAGS register: bit positions, condition codes, and flag
//! computation.
//!
//! Bit positions match real x86 (`CF`=0, `PF`=2, `ZF`=6, `SF`=7, `OF`=11),
//! and each condition code knows exactly which bits it reads — the basis of
//! PINFI's flag-bit pruning heuristic (paper Fig 2a): when injecting into a
//! compare instruction, only the bits the following conditional jump
//! actually reads are candidate targets.

use std::fmt;

/// Carry flag bit position.
pub const CF: u32 = 0;
/// Parity flag bit position.
pub const PF: u32 = 2;
/// Zero flag bit position.
pub const ZF: u32 = 6;
/// Sign flag bit position.
pub const SF: u32 = 7;
/// Overflow flag bit position.
pub const OF: u32 = 11;

/// Mask of all flag bits this machine models.
pub const ALL_FLAGS: u64 = (1 << CF) | (1 << PF) | (1 << ZF) | (1 << SF) | (1 << OF);

/// x86 condition codes used by `jcc`/`setcc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal (ZF).
    E,
    /// Not equal (ZF).
    Ne,
    /// Signed less (SF≠OF).
    L,
    /// Signed less-or-equal (ZF ∨ SF≠OF).
    Le,
    /// Signed greater (¬ZF ∧ SF=OF).
    G,
    /// Signed greater-or-equal (SF=OF).
    Ge,
    /// Unsigned below (CF).
    B,
    /// Unsigned below-or-equal (CF ∨ ZF).
    Be,
    /// Unsigned above (¬CF ∧ ¬ZF).
    A,
    /// Unsigned above-or-equal (¬CF).
    Ae,
    /// Parity set (used for NaN checks after `ucomisd`).
    P,
    /// Parity clear.
    Np,
}

impl Cond {
    /// The mask of FLAGS bits this condition reads.
    pub fn depends_mask(self) -> u64 {
        match self {
            Cond::E | Cond::Ne => 1 << ZF,
            Cond::L | Cond::Ge => (1 << SF) | (1 << OF),
            Cond::Le | Cond::G => (1 << ZF) | (1 << SF) | (1 << OF),
            Cond::B | Cond::Ae => 1 << CF,
            Cond::Be | Cond::A => (1 << CF) | (1 << ZF),
            Cond::P | Cond::Np => 1 << PF,
        }
    }

    /// Evaluates the condition against a FLAGS value.
    #[inline]
    pub fn eval(self, flags: u64) -> bool {
        let bit = |b: u32| flags & (1 << b) != 0;
        match self {
            Cond::E => bit(ZF),
            Cond::Ne => !bit(ZF),
            Cond::L => bit(SF) != bit(OF),
            Cond::Ge => bit(SF) == bit(OF),
            Cond::Le => bit(ZF) || bit(SF) != bit(OF),
            Cond::G => !bit(ZF) && bit(SF) == bit(OF),
            Cond::B => bit(CF),
            Cond::Ae => !bit(CF),
            Cond::Be => bit(CF) || bit(ZF),
            Cond::A => !bit(CF) && !bit(ZF),
            Cond::P => bit(PF),
            Cond::Np => !bit(PF),
        }
    }

    /// The logically negated condition.
    pub fn negated(self) -> Cond {
        match self {
            Cond::E => Cond::Ne,
            Cond::Ne => Cond::E,
            Cond::L => Cond::Ge,
            Cond::Ge => Cond::L,
            Cond::Le => Cond::G,
            Cond::G => Cond::Le,
            Cond::B => Cond::Ae,
            Cond::Ae => Cond::B,
            Cond::Be => Cond::A,
            Cond::A => Cond::Be,
            Cond::P => Cond::Np,
            Cond::Np => Cond::P,
        }
    }

    /// Printer mnemonic suffix ("e", "ne", "l", …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::E => "e",
            Cond::Ne => "ne",
            Cond::L => "l",
            Cond::Le => "le",
            Cond::G => "g",
            Cond::Ge => "ge",
            Cond::B => "b",
            Cond::Be => "be",
            Cond::A => "a",
            Cond::Ae => "ae",
            Cond::P => "p",
            Cond::Np => "np",
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Computes SF/ZF/PF from a 64-bit result (the "logic op" flag update,
/// which also clears CF and OF).
pub fn logic_flags(result: u64) -> u64 {
    let mut f = 0u64;
    if result == 0 {
        f |= 1 << ZF;
    }
    if result >> 63 != 0 {
        f |= 1 << SF;
    }
    if (result as u8).count_ones().is_multiple_of(2) {
        f |= 1 << PF;
    }
    f
}

/// Full flag update for `lhs + rhs = result`.
pub fn add_flags(lhs: u64, rhs: u64, result: u64) -> u64 {
    let mut f = logic_flags(result);
    if result < lhs {
        f |= 1 << CF;
    }
    // Signed overflow: operands share a sign that differs from the result's.
    let sign = 1u64 << 63;
    if (lhs ^ result) & (rhs ^ result) & sign != 0 {
        f |= 1 << OF;
    }
    f
}

/// Full flag update for `lhs - rhs = result` (also used by `cmp`).
pub fn sub_flags(lhs: u64, rhs: u64, result: u64) -> u64 {
    let mut f = logic_flags(result);
    if lhs < rhs {
        f |= 1 << CF;
    }
    let sign = 1u64 << 63;
    if (lhs ^ rhs) & (lhs ^ result) & sign != 0 {
        f |= 1 << OF;
    }
    f
}

/// Flag update after `ucomisd lhs, rhs` (x86 semantics: unordered sets
/// ZF=PF=CF=1; less sets CF; equal sets ZF; SF/OF cleared).
pub fn ucomisd_flags(lhs: f64, rhs: f64) -> u64 {
    if lhs.is_nan() || rhs.is_nan() {
        (1 << ZF) | (1 << PF) | (1 << CF)
    } else if lhs < rhs {
        1 << CF
    } else if lhs == rhs {
        1 << ZF
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval_matches_cmp_semantics() {
        // cmp 3, 5 (3 - 5): signed less, unsigned below.
        let f = sub_flags(3, 5, 3u64.wrapping_sub(5));
        assert!(Cond::L.eval(f));
        assert!(Cond::B.eval(f));
        assert!(Cond::Ne.eval(f));
        assert!(!Cond::G.eval(f));
        // cmp -1, 1 (signed less, unsigned above).
        let f = sub_flags(u64::MAX, 1, u64::MAX.wrapping_sub(1));
        assert!(Cond::L.eval(f));
        assert!(Cond::A.eval(f));
        // cmp 7, 7.
        let f = sub_flags(7, 7, 0);
        assert!(Cond::E.eval(f));
        assert!(Cond::Le.eval(f));
        assert!(Cond::Ge.eval(f));
        assert!(!Cond::L.eval(f));
    }

    #[test]
    fn signed_overflow_detected() {
        // i64::MAX + 1 overflows.
        let f = add_flags(i64::MAX as u64, 1, (i64::MAX as u64).wrapping_add(1));
        assert!(f & (1 << OF) != 0);
        // i64::MIN - 1 overflows.
        let f = sub_flags(i64::MIN as u64, 1, (i64::MIN as u64).wrapping_sub(1));
        assert!(f & (1 << OF) != 0);
        // Small values don't.
        let f = add_flags(1, 2, 3);
        assert!(f & (1 << OF) == 0);
    }

    #[test]
    fn negation_involutive() {
        for c in [
            Cond::E,
            Cond::Ne,
            Cond::L,
            Cond::Le,
            Cond::G,
            Cond::Ge,
            Cond::B,
            Cond::Be,
            Cond::A,
            Cond::Ae,
            Cond::P,
            Cond::Np,
        ] {
            assert_eq!(c.negated().negated(), c);
            // The negated condition evaluates oppositely on any flags.
            for flags in [0u64, ALL_FLAGS, 1 << ZF, 1 << CF, (1 << SF) | (1 << OF)] {
                assert_ne!(c.eval(flags), c.negated().eval(flags));
            }
            assert_eq!(c.depends_mask(), c.negated().depends_mask());
        }
    }

    #[test]
    fn ucomisd_nan_sets_unordered_bits() {
        let f = ucomisd_flags(f64::NAN, 1.0);
        assert!(Cond::P.eval(f));
        assert!(Cond::B.eval(f)); // CF set: "below" is true for NaN
        let f = ucomisd_flags(1.0, 2.0);
        assert!(Cond::B.eval(f));
        assert!(!Cond::P.eval(f));
        let f = ucomisd_flags(2.0, 2.0);
        assert!(Cond::E.eval(f));
    }

    #[test]
    fn depends_masks_match_paper_examples() {
        // jl reads SF and OF (the paper's Fig 2a simplifies to OF).
        assert_eq!(Cond::L.depends_mask(), (1 << SF) | (1 << OF));
        assert_eq!(Cond::E.depends_mask(), 1 << ZF);
        assert_eq!(Cond::A.depends_mask(), (1 << CF) | (1 << ZF));
    }
}
