//! Fault-injection outcomes and classification.

use fiq_mem::RunStatus;
use std::fmt;

/// The outcome of one fault-injection run (paper §V, "Failure
/// categorization").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The fault was activated but the output matched the golden run.
    Benign,
    /// Silent Data Corruption: the program finished with wrong output.
    Sdc,
    /// The program was terminated by a trap (hardware-exception analogue).
    Crash,
    /// The program exceeded its dynamic-instruction budget.
    Hang,
    /// The corrupted value was never read before being overwritten; the
    /// run is excluded from the percentages, as in the paper.
    NotActivated,
}

impl Outcome {
    /// Short label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Benign => "benign",
            Outcome::Sdc => "sdc",
            Outcome::Crash => "crash",
            Outcome::Hang => "hang",
            Outcome::NotActivated => "not-activated",
        }
    }

    /// The inverse of [`Outcome::name`], used when reading record files.
    pub fn from_name(name: &str) -> Option<Outcome> {
        match name {
            "benign" => Some(Outcome::Benign),
            "sdc" => Some(Outcome::Sdc),
            "crash" => Some(Outcome::Crash),
            "hang" => Some(Outcome::Hang),
            "not-activated" => Some(Outcome::NotActivated),
            _ => None,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Classifies one injection run.
///
/// `activated` is the injector's activation-tracking verdict (the
/// corrupted destination was read before being fully overwritten).
pub fn classify(status: RunStatus, output: &str, golden: &str, activated: bool) -> Outcome {
    match status {
        RunStatus::Trapped(_) => Outcome::Crash,
        RunStatus::BudgetExceeded => Outcome::Hang,
        RunStatus::Finished => {
            if output != golden {
                Outcome::Sdc
            } else if activated {
                Outcome::Benign
            } else {
                Outcome::NotActivated
            }
        }
    }
}

/// Aggregated outcome counts for one experiment cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Benign (activated, output correct).
    pub benign: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// Crashes.
    pub crash: u64,
    /// Hangs.
    pub hang: u64,
    /// Not-activated runs (excluded from percentages).
    pub not_activated: u64,
}

impl OutcomeCounts {
    /// Adds one outcome.
    pub fn record(&mut self, o: Outcome) {
        self.record_n(o, 1);
    }

    /// Adds `n` occurrences of one outcome (class-weighted recording for
    /// exact collapsed campaigns; `record_n(o, 1)` ≡ `record(o)`).
    pub fn record_n(&mut self, o: Outcome, n: u64) {
        match o {
            Outcome::Benign => self.benign += n,
            Outcome::Sdc => self.sdc += n,
            Outcome::Crash => self.crash += n,
            Outcome::Hang => self.hang += n,
            Outcome::NotActivated => self.not_activated += n,
        }
    }

    /// Number of *activated* runs (the percentage denominator).
    pub fn activated(&self) -> u64 {
        self.benign + self.sdc + self.crash + self.hang
    }

    /// Total runs recorded.
    pub fn total(&self) -> u64 {
        self.activated() + self.not_activated
    }

    /// SDC percentage among activated faults (0–100).
    pub fn sdc_pct(&self) -> f64 {
        percentage(self.sdc, self.activated())
    }

    /// Crash percentage among activated faults (0–100).
    pub fn crash_pct(&self) -> f64 {
        percentage(self.crash, self.activated())
    }

    /// Benign percentage among activated faults (0–100).
    pub fn benign_pct(&self) -> f64 {
        percentage(self.benign, self.activated())
    }

    /// Hang percentage among activated faults (0–100).
    pub fn hang_pct(&self) -> f64 {
        percentage(self.hang, self.activated())
    }

    /// Merges another set of counts into this one.
    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.benign += other.benign;
        self.sdc += other.sdc;
        self.crash += other.crash;
        self.hang += other.hang;
        self.not_activated += other.not_activated;
    }
}

fn percentage(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// The result of one injection run: the classification plus how many
/// dynamic instructions the faulty run executed (recorded per injection
/// by the campaign engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionRun {
    /// The coarse classification.
    pub outcome: Outcome,
    /// Dynamic instructions executed by the faulty run. When the run
    /// early-exited, this is the *reconstructed* full count
    /// (`faulty_steps + golden_steps − checkpoint_steps`), identical to
    /// what the full run would have reported.
    pub steps: u64,
    /// The run was cut short by golden-state convergence detection (the
    /// outcome and steps are provably those of the full run; this flag is
    /// observability only and is never written to records).
    pub early_exit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiq_mem::Trap;

    #[test]
    fn classification_rules() {
        assert_eq!(
            classify(RunStatus::Finished, "1\n", "1\n", true),
            Outcome::Benign
        );
        assert_eq!(
            classify(RunStatus::Finished, "2\n", "1\n", true),
            Outcome::Sdc
        );
        assert_eq!(
            classify(RunStatus::Finished, "1\n", "1\n", false),
            Outcome::NotActivated
        );
        assert_eq!(
            classify(RunStatus::Trapped(Trap::DivByZero), "", "1\n", true),
            Outcome::Crash
        );
        assert_eq!(
            classify(RunStatus::BudgetExceeded, "", "1\n", true),
            Outcome::Hang
        );
    }

    #[test]
    fn counts_and_percentages() {
        let mut c = OutcomeCounts::default();
        for _ in 0..6 {
            c.record(Outcome::Benign);
        }
        for _ in 0..1 {
            c.record(Outcome::Sdc);
        }
        for _ in 0..3 {
            c.record(Outcome::Crash);
        }
        for _ in 0..10 {
            c.record(Outcome::NotActivated);
        }
        assert_eq!(c.activated(), 10);
        assert_eq!(c.total(), 20);
        assert!((c.sdc_pct() - 10.0).abs() < 1e-9);
        assert!((c.crash_pct() - 30.0).abs() < 1e-9);
        assert!((c.benign_pct() - 60.0).abs() < 1e-9);

        let mut d = OutcomeCounts::default();
        d.record(Outcome::Hang);
        c.merge(&d);
        assert_eq!(c.activated(), 11);
    }

    #[test]
    fn empty_counts_have_zero_percentages() {
        let c = OutcomeCounts::default();
        assert_eq!(c.sdc_pct(), 0.0);
        assert_eq!(c.activated(), 0);
    }
}
