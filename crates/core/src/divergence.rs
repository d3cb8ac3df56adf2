//! Per-injection divergence timelines: the fault-propagation record a
//! faulty run leaves behind as it crosses the golden checkpoint stream.
//!
//! Early-exit convergence answers "did the faulty run converge back to
//! golden?" as a boolean. A [`Timeline`] keeps the whole story: at every
//! golden checkpoint the run crosses after its fault is injected, one
//! [`TimelineEntry`] records *which* state components and *how many*
//! 4 KiB pages diverge (see [`fiq_mem::Divergence`]). From the entries
//! fall out the observables the paper's §III motivates — when corruption
//! was *born* (first diverged checkpoint), how far it *spread* (peak page
//! count), and when, if ever, it was *masked* (first provably-clean
//! checkpoint after birth).
//!
//! ## Recording rules (and why timelines are deterministic)
//!
//! * **Entries start at the injection.** Checkpoints crossed before the
//!   fault is applied are skipped: the pre-injection run *is* the golden
//!   run, so those entries would always be clean — and fast-forward
//!   restores a snapshot strictly before the injection occurrence, so
//!   skipping them is exactly what makes timelines byte-identical with
//!   fast-forward on or off.
//! * **A clean entry closes the timeline.** [`Divergence::clean`] is
//!   byte-exact (substrates confirm it against the snapshot), and state
//!   equality at a checkpoint means the rest of the run mirrors golden —
//!   every later entry would be clean too. Closing at the first clean
//!   observation keeps timelines identical whether or not early-exit
//!   truncates the run there: with early exit on the run stops at the
//!   first *settled* clean checkpoint; with it off the run continues but
//!   the timeline has already ended. (A clean observation can precede a
//!   settled verdict — see DESIGN §4h — which is why the timeline's
//!   masking point is state-based, not verdict-based.)
//! * **Observation never steers.** Recording reads the paused state and
//!   consumes no RNG; the records channel is byte-identical with the
//!   feature on or off.

use crate::json::{Fields, ObjWriter};
use crate::outcome::Outcome;
use fiq_mem::Divergence;

/// Divergence-stream format version (bumped on schema changes).
pub const DIVERGENCE_VERSION: u64 = 1;

/// One checkpoint observation in a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Index of the golden checkpoint in the cell's snapshot list.
    pub checkpoint: u64,
    /// The checkpoint's golden step clock.
    pub steps: u64,
    /// Diverged-component bitmap ([`fiq_mem::component`]).
    pub components: u8,
    /// Number of diverged 4 KiB pages.
    pub pages: u32,
}

impl TimelineEntry {
    /// True when any component diverges at this checkpoint.
    pub fn diverged(&self) -> bool {
        self.components != 0
    }
}

/// The per-injection divergence timeline collected by the drive loops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Checkpoint observations, in crossing order. At most one entry is
    /// clean, and only as the final entry (a clean observation closes the
    /// timeline).
    pub entries: Vec<TimelineEntry>,
    closed: bool,
}

impl Timeline {
    /// An empty, open timeline.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// False once a clean entry has been recorded: state equality means
    /// the rest of the run mirrors golden, so there is nothing left to
    /// observe.
    pub fn open(&self) -> bool {
        !self.closed
    }

    /// Records one checkpoint observation; a clean one closes the
    /// timeline.
    pub fn record(&mut self, checkpoint: u64, steps: u64, d: Divergence) {
        debug_assert!(self.open(), "no entries after a clean observation");
        self.entries.push(TimelineEntry {
            checkpoint,
            steps,
            components: d.components,
            pages: d.pages,
        });
        if d.clean() {
            self.closed = true;
        }
    }

    /// Birth checkpoint: the first checkpoint at which any divergence was
    /// observed. `None` when the fault never reached a checkpoint while
    /// diverged (masked between checkpoints, or the run ended first).
    pub fn birth(&self) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.diverged())
            .map(|e| e.checkpoint)
    }

    /// Peak spread: the largest diverged-page count across all entries.
    pub fn peak_pages(&self) -> u32 {
        self.entries.iter().map(|e| e.pages).max().unwrap_or(0)
    }

    /// Masking checkpoint: the clean entry that closed the timeline, when
    /// divergence had been observed before it. `None` when never born or
    /// never observed clean again.
    pub fn masked_at(&self) -> Option<u64> {
        self.birth()?;
        let last = self.entries.last().expect("birth implies entries");
        (!last.diverged()).then_some(last.checkpoint)
    }

    /// Propagation distance in checkpoints: from birth through the last
    /// diverged entry, inclusive (1 = visible at exactly one checkpoint).
    /// 0 when never born.
    pub fn distance(&self) -> u64 {
        let Some(born) = self.birth() else { return 0 };
        let last = self
            .entries
            .iter()
            .rev()
            .find(|e| e.diverged())
            .expect("birth implies a diverged entry");
        last.checkpoint - born + 1
    }

    /// Checkpoints from birth to masking (`masked_at − birth`); `None`
    /// when the timeline never masked.
    pub fn mask_time(&self) -> Option<u64> {
        Some(self.masked_at()? - self.birth().expect("masked implies born"))
    }
}

/// Appends one per-task timeline line for the `--divergence` stream to
/// `out`. The outcome travels with the line so the report's propagation
/// funnels need no join against the records file (and survive either
/// stream being truncated independently).
#[allow(clippy::too_many_arguments)]
pub(crate) fn timeline_line(
    out: &mut String,
    label: &str,
    tool: &str,
    category: &str,
    task: u64,
    injection: u64,
    outcome: Outcome,
    tl: &Timeline,
) {
    let mut w = ObjWriter::open(out);
    w.str("record", "timeline")
        .u64("task", task)
        .str("cell", label)
        .u64("injection", injection)
        .str("tool", tool)
        .str("category", category)
        .str("outcome", outcome.name())
        .opt_u64("birth", tl.birth())
        .u64("peak_pages", u64::from(tl.peak_pages()))
        .opt_u64("masked", tl.masked_at())
        .u64("distance", tl.distance())
        .u64_rows(
            "entries",
            tl.entries.iter().map(|e| {
                [
                    e.checkpoint,
                    e.steps,
                    u64::from(e.components),
                    u64::from(e.pages),
                ]
            }),
        );
    w.close();
}

/// Validates one timeline line during resume, requiring `task ==
/// expected_index`. Returns `false` on anything malformed (the resume
/// loader truncates there, mirroring the records channel's torn-tail
/// tolerance).
pub(crate) fn parse_timeline(line: &str, expected_index: usize) -> bool {
    let Ok(v) = Fields::parse(line) else {
        return false;
    };
    v.str("record") == Some("timeline")
        && v.u64("task") == Some(expected_index as u64)
        && v.str("outcome")
            .is_some_and(|o| Outcome::from_name(o).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::tests::arb_text;
    use crate::json::Json;
    use fiq_mem::component;
    use proptest::prelude::*;

    /// The timeline line as built before the object writer: a `Json`
    /// tree, rendered by its `Display`.
    fn timeline_tree(label: &str, task: u64, injection: u64, tl: &Timeline) -> String {
        let entries = tl
            .entries
            .iter()
            .map(|e| {
                Json::Arr(vec![
                    Json::u64(e.checkpoint),
                    Json::u64(e.steps),
                    Json::u64(u64::from(e.components)),
                    Json::u64(u64::from(e.pages)),
                ])
            })
            .collect();
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::u64);
        Json::Obj(vec![
            ("record".into(), Json::str("timeline")),
            ("task".into(), Json::u64(task)),
            ("cell".into(), Json::str(label)),
            ("injection".into(), Json::u64(injection)),
            ("tool".into(), Json::str("pinfi")),
            ("category".into(), Json::str("all")),
            ("outcome".into(), Json::str(Outcome::Hang.name())),
            ("birth".into(), opt(tl.birth())),
            ("peak_pages".into(), Json::u64(u64::from(tl.peak_pages()))),
            ("masked".into(), opt(tl.masked_at())),
            ("distance".into(), Json::u64(tl.distance())),
            ("entries".into(), Json::Arr(entries)),
        ])
        .to_string()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The timeline writer emits the tree's bytes for any label and
        /// any entries (born, masked or neither), and resume's reader
        /// accepts the line at its own task index only.
        #[test]
        fn timeline_line_matches_tree(
            label in arb_text(),
            task in any::<u64>(),
            injection in any::<u64>(),
            raw in prop::collection::vec((any::<u64>(), 0u8..32, any::<u32>()), 0..5),
        ) {
            let mut tl = Timeline::new();
            for (i, &(steps, components, pages)) in raw.iter().enumerate() {
                if tl.open() {
                    tl.record(i as u64, steps, Divergence { components, pages });
                }
            }
            let mut line = String::new();
            timeline_line(&mut line, &label, "pinfi", "all", task, injection, Outcome::Hang, &tl);
            prop_assert_eq!(&line, &timeline_tree(&label, task, injection, &tl));
            let index = (task % (1 << 40)) as usize;
            prop_assert_eq!(parse_timeline(&line, index), task == index as u64);
        }
    }

    fn d(components: u8, pages: u32) -> Divergence {
        Divergence { components, pages }
    }

    #[test]
    fn born_spread_masked_lifecycle() {
        let mut tl = Timeline::new();
        tl.record(2, 200, d(component::REGS, 0));
        tl.record(3, 300, d(component::MEM | component::REGS, 4));
        tl.record(4, 400, d(component::MEM, 1));
        tl.record(5, 500, d(0, 0));
        assert!(!tl.open());
        assert_eq!(tl.birth(), Some(2));
        assert_eq!(tl.peak_pages(), 4);
        assert_eq!(tl.masked_at(), Some(5));
        assert_eq!(tl.distance(), 3);
        assert_eq!(tl.mask_time(), Some(3));
    }

    #[test]
    fn never_born_and_never_masked_edges() {
        let empty = Timeline::new();
        assert_eq!(empty.birth(), None);
        assert_eq!(empty.distance(), 0);
        assert_eq!(empty.masked_at(), None);

        // Masked before the first crossed checkpoint: one clean entry.
        let mut immediate = Timeline::new();
        immediate.record(1, 100, d(0, 0));
        assert!(!immediate.open());
        assert_eq!(immediate.birth(), None);
        assert_eq!(immediate.masked_at(), None);

        // Diverged to the end (SDC-shaped): no masking point.
        let mut sdc = Timeline::new();
        sdc.record(1, 100, d(component::MEM, 2));
        sdc.record(2, 200, d(component::MEM, 2));
        assert!(sdc.open());
        assert_eq!(sdc.birth(), Some(1));
        assert_eq!(sdc.masked_at(), None);
        assert_eq!(sdc.mask_time(), None);
        assert_eq!(sdc.distance(), 2);
    }

    #[test]
    fn timeline_line_round_trips_through_json() {
        let mut tl = Timeline::new();
        tl.record(3, 300, d(component::MEM, 2));
        tl.record(4, 400, d(0, 0));
        let mut line = String::new();
        timeline_line(
            &mut line,
            "ocean",
            "llfi",
            "cmp",
            7,
            3,
            Outcome::Benign,
            &tl,
        );
        let v = Json::parse(&line).expect("line parses");
        assert_eq!(v.get("task").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("birth").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("masked").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("distance").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("entries").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert!(parse_timeline(&line, 7));
        assert!(!parse_timeline(&line, 8), "task index must match");
        assert!(!parse_timeline("{torn", 7));

        // Never-born timelines serialize birth/masked as null.
        let mut line = String::new();
        timeline_line(
            &mut line,
            "ocean",
            "llfi",
            "cmp",
            0,
            0,
            Outcome::Benign,
            &Timeline::new(),
        );
        let v = Json::parse(&line).expect("line parses");
        assert_eq!(v.get("birth"), Some(&Json::Null));
        assert_eq!(v.get("masked"), Some(&Json::Null));
    }
}
