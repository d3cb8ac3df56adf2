//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory and are written out as JSONL when the run ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Spans whose name starts with `bench.`
//! are the benchmark's own grouping; their self time is reported as the
//! `unattributed` row of the ledger. [`CALIBRATE`] spans hold the
//! benchmark's own re-runs, which are not part of the workload: they get
//! no row and their time is left out of the wall time, so the rows always
//! sum to the wall time.

use fiq_core::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of a span around re-runs made only to calibrate a difference. It
/// has no child spans.
pub const CALIBRATE: &str = "bench.calibrate";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer (or `bench.` grouping) name.
    pub name: String,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Campaign (repetition or submission) the span belongs to.
    pub campaign: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread of benchmark code.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, campaign: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            campaign,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Seconds covered by the most recently closed span named `name`.
    pub fn last_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e9)
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Each span's self time: its duration minus the union of its children's
/// intervals, clipped to the span. Overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let (lo, hi) = (lo.max(reach), hi.min(s.end_ns));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time per layer in nanoseconds, with the `bench.` grouping spans
/// folded into one `unattributed` row. The rows sum to [`wall_ns`].
pub fn ledger(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut rows = BTreeMap::new();
    rows.insert("unattributed".to_string(), 0);
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if s.name == CALIBRATE {
            continue;
        }
        let row = if s.name.starts_with("bench.") {
            "unattributed"
        } else {
            s.name.as_str()
        };
        *rows.entry(row.to_string()).or_insert(0) += t;
    }
    rows
}

/// Appends another recorder's spans, shifting their parent indices so
/// they still point at their own parents.
pub fn append(all: &mut Vec<Span>, more: &[Span]) {
    let offset = all.len();
    all.extend(more.iter().map(|s| Span {
        parent: s.parent.map(|p| p + offset),
        ..s.clone()
    }));
}

/// Wall time of the root spans less the [`CALIBRATE`] spans, in
/// nanoseconds.
pub fn wall_ns(spans: &[Span]) -> u64 {
    let total = |keep: &dyn Fn(&Span) -> bool| -> u64 {
        spans
            .iter()
            .filter(|s| keep(s))
            .map(Span::duration_ns)
            .sum()
    };
    total(&|s| s.parent.is_none()) - total(&|s| s.name == CALIBRATE)
}

/// One JSONL line per span, tagged with the workload.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let self_ns = self_times(spans);
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut line = Json::Obj(vec![
                ("workload".into(), Json::str(workload)),
                ("id".into(), Json::u64(id as u64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                ),
                ("name".into(), Json::str(s.name.clone())),
                ("campaign".into(), Json::u64(s.campaign)),
                ("start_ns".into(), Json::u64(s.start_ns)),
                ("end_ns".into(), Json::u64(s.end_ns)),
                ("self_ns".into(), Json::u64(self_ns[id])),
            ])
            .to_string();
            line.push('\n');
            line
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            campaign: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_from_their_parent_only() {
        let spans = vec![
            span("bench.workload", None, 0, 100),
            span("bench.setup", Some(0), 10, 60),
            span("frontend.compile", Some(1), 10, 30),
            span("profile.golden_llfi", Some(1), 35, 55),
            span("engine.exec_llfi", Some(0), 60, 95),
        ];
        assert_eq!(self_times(&spans), vec![15, 10, 20, 20, 35]);
        let rows = ledger(&spans);
        assert_eq!(rows["unattributed"], 25);
        assert_eq!(rows["frontend.compile"], 20);
        assert_eq!(rows.values().sum::<u64>(), wall_ns(&spans));
    }

    #[test]
    fn calibration_spans_are_left_out_of_rows_and_wall() {
        let spans = vec![
            span("bench.campaign", None, 0, 100),
            span("engine.exec_llfi", Some(0), 10, 40),
            span(CALIBRATE, Some(0), 40, 90),
        ];
        let rows = ledger(&spans);
        assert_eq!(wall_ns(&spans), 50);
        assert_eq!(rows["unattributed"], 20);
        assert!(!rows.contains_key(CALIBRATE));
        assert_eq!(rows.values().sum::<u64>(), wall_ns(&spans));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("bench.campaign", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
            // Starts before and ends after the parent: clipped.
            span("c", Some(0), 90, 120),
            // Fully inside an earlier child.
            span("d", Some(0), 20, 40),
        ];
        // Covered: [10, 70) and [90, 100) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn appended_recorders_keep_their_own_parents() {
        let one = vec![
            span("bench.workload", None, 0, 100),
            span("engine.exec_llfi", Some(0), 10, 90),
        ];
        let mut all = one.clone();
        append(&mut all, &one);
        assert_eq!(all[3].parent, Some(2));
        let rows = ledger(&all);
        assert_eq!(rows["unattributed"], 40);
        assert_eq!(rows.values().sum::<u64>(), wall_ns(&all));
    }

    #[test]
    fn recorder_nests_and_closes_spans() {
        let mut tr = Tracer::default();
        tr.span("bench.workload", 3, |tr| {
            tr.span("frontend.compile", 3, |_| ());
            tr.span("opt.optimize", 3, |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.campaign == 3));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(ledger(spans).values().sum::<u64>(), wall_ns(spans));
        assert_eq!(to_jsonl("w", spans).lines().count(), 3);
    }
}
