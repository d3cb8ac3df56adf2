//! # fiq-telemetry — sharded campaign metrics
//!
//! Observability primitives for the campaign engine, built for the
//! work-stealing hot path:
//!
//! * **Sharded counters and histograms** — every worker owns a private
//!   shard and records with relaxed atomic increments; there are no
//!   hot-path locks and no cross-core cache-line ping-pong. Totals are
//!   computed at *read* time by summing shards, which is exact because
//!   addition is commutative.
//! * **Two scopes** — `engine` metrics (one instance) and `cell` metrics
//!   (one instance per experiment cell), both declared up front in a
//!   [`HubSpec`] so the wire format is self-describing.
//!
//! A merged [`HubSnapshot`] is the only thing a run reports: counters
//! and histograms add, so shards, runs and campaign shards combine by
//! one commutative merge. The crate is dependency-free (std only) and
//! does not serialize anything itself: the campaign engine owns the
//! encoding.

#![warn(missing_docs)]

mod hist;

pub use hist::{bucket_hi, bucket_lo, bucket_of, HistData, Histogram, HIST_BUCKETS};

use std::sync::atomic::{AtomicU64, Ordering};

/// The metric schema: counter and histogram names for both scopes,
/// fixed for the lifetime of a hub. Indices into these slices are the
/// metric identifiers used by [`WorkerHandle`].
#[derive(Debug, Clone, Copy)]
pub struct HubSpec {
    /// Engine-scope counter names.
    pub counters: &'static [&'static str],
    /// Engine-scope histogram names.
    pub hists: &'static [&'static str],
    /// Cell-scope counter names (one instance per cell).
    pub cell_counters: &'static [&'static str],
    /// Cell-scope histogram names (one instance per cell).
    pub cell_hists: &'static [&'static str],
}

/// One worker's private shard: counters and histograms. Only the owning
/// worker writes it; readers sum across shards.
struct Shard {
    counters: Box<[AtomicU64]>,
    hists: Box<[Histogram]>,
    /// Flattened `[cell][metric]` cell counters.
    cell_counters: Box<[AtomicU64]>,
    /// Flattened `[cell][metric]` cell histograms.
    cell_hists: Box<[Histogram]>,
}

impl Shard {
    fn new(spec: &HubSpec, cells: usize) -> Shard {
        let atomic = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        let hists = |n: usize| (0..n).map(|_| Histogram::new()).collect();
        Shard {
            counters: atomic(spec.counters.len()),
            hists: hists(spec.hists.len()),
            cell_counters: atomic(spec.cell_counters.len() * cells),
            cell_hists: hists(spec.cell_hists.len() * cells),
        }
    }
}

/// The campaign-wide telemetry hub: one shard per worker. Create it
/// sized to the worker pool, hand each worker its [`WorkerHandle`], then
/// read merged totals during or after the run.
pub struct TelemetryHub {
    spec: &'static HubSpec,
    cells: usize,
    shards: Vec<Shard>,
}

impl TelemetryHub {
    /// Creates a hub with `workers` shards covering `cells` cells.
    pub fn new(spec: &'static HubSpec, workers: usize, cells: usize) -> TelemetryHub {
        let workers = workers.max(1);
        TelemetryHub {
            spec,
            cells,
            shards: (0..workers).map(|_| Shard::new(spec, cells)).collect(),
        }
    }

    /// The metric schema this hub was created with.
    pub fn spec(&self) -> &'static HubSpec {
        self.spec
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The recording handle for worker `w` (indices past the shard count
    /// alias the last shard rather than panicking).
    pub fn worker(&self, w: usize) -> WorkerHandle<'_> {
        WorkerHandle {
            hub: self,
            worker: w.min(self.shards.len() - 1),
        }
    }

    /// Live total of one engine-scope counter (sum over shards).
    pub fn counter_total(&self, counter: usize) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counters[counter].load(Ordering::Relaxed))
            .sum()
    }

    /// Live total of one cell-scope counter.
    pub fn cell_counter_total(&self, cell: usize, counter: usize) -> u64 {
        let idx = cell * self.spec.cell_counters.len() + counter;
        self.shards
            .iter()
            .map(|s| s.cell_counters[idx].load(Ordering::Relaxed))
            .sum()
    }

    /// Per-worker values of one engine-scope counter (e.g. tasks claimed
    /// per worker — the campaign's steal distribution).
    pub fn per_worker(&self, counter: usize) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.counters[counter].load(Ordering::Relaxed))
            .collect()
    }

    /// Merges every shard into a point-in-time snapshot.
    pub fn merged(&self) -> HubSnapshot {
        let nc = self.spec.cell_counters.len();
        let nh = self.spec.cell_hists.len();
        let mut snap = HubSnapshot {
            counters: vec![0; self.spec.counters.len()],
            hists: vec![HistData::default(); self.spec.hists.len()],
            cells: (0..self.cells)
                .map(|_| CellSnapshot {
                    counters: vec![0; nc],
                    hists: vec![HistData::default(); nh],
                })
                .collect(),
        };
        for shard in &self.shards {
            for (total, c) in snap.counters.iter_mut().zip(shard.counters.iter()) {
                *total += c.load(Ordering::Relaxed);
            }
            for (total, h) in snap.hists.iter_mut().zip(shard.hists.iter()) {
                total.merge(&h.snapshot());
            }
            for (cell, out) in snap.cells.iter_mut().enumerate() {
                for m in 0..nc {
                    out.counters[m] += shard.cell_counters[cell * nc + m].load(Ordering::Relaxed);
                }
                for m in 0..nh {
                    out.hists[m].merge(&shard.cell_hists[cell * nh + m].snapshot());
                }
            }
        }
        snap
    }
}

/// A worker's recording handle: cheap to copy, every method lock-free.
#[derive(Clone, Copy)]
pub struct WorkerHandle<'a> {
    hub: &'a TelemetryHub,
    worker: usize,
}

impl WorkerHandle<'_> {
    fn shard(&self) -> &Shard {
        &self.hub.shards[self.worker]
    }

    /// This handle's worker index.
    pub fn index(&self) -> usize {
        self.worker
    }

    /// Adds to an engine-scope counter.
    #[inline]
    pub fn add(&self, counter: usize, n: u64) {
        self.shard().counters[counter].fetch_add(n, Ordering::Relaxed);
    }

    /// Records into an engine-scope histogram.
    #[inline]
    pub fn record(&self, hist: usize, v: u64) {
        self.shard().hists[hist].record(v);
    }

    /// Adds to a cell-scope counter.
    #[inline]
    pub fn cell_add(&self, cell: usize, counter: usize, n: u64) {
        let idx = cell * self.hub.spec.cell_counters.len() + counter;
        self.shard().cell_counters[idx].fetch_add(n, Ordering::Relaxed);
    }

    /// Records into a cell-scope histogram.
    #[inline]
    pub fn cell_record(&self, cell: usize, hist: usize, v: u64) {
        let idx = cell * self.hub.spec.cell_hists.len() + hist;
        self.shard().cell_hists[idx].record(v);
    }
}

/// A merged point-in-time view of every shard.
#[derive(Debug, Clone)]
pub struct HubSnapshot {
    /// Engine-scope counter totals, parallel to [`HubSpec::counters`].
    pub counters: Vec<u64>,
    /// Engine-scope histograms, parallel to [`HubSpec::hists`].
    pub hists: Vec<HistData>,
    /// Per-cell metrics.
    pub cells: Vec<CellSnapshot>,
}

/// One cell's merged metrics.
#[derive(Debug, Clone)]
pub struct CellSnapshot {
    /// Counter totals, parallel to [`HubSpec::cell_counters`].
    pub counters: Vec<u64>,
    /// Histograms, parallel to [`HubSpec::cell_hists`].
    pub hists: Vec<HistData>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    static SPEC: HubSpec = HubSpec {
        counters: &["tasks"],
        hists: &["batch"],
        cell_counters: &["hits", "misses"],
        cell_hists: &["lat"],
    };

    #[test]
    fn shards_merge_to_exact_totals() {
        let hub = TelemetryHub::new(&SPEC, 3, 2);
        for w in 0..3 {
            let h = hub.worker(w);
            h.add(0, 10 + w as u64);
            h.cell_add(1, 0, 2);
            h.cell_record(0, 0, 1 << w);
            h.record(0, 64);
        }
        assert_eq!(hub.counter_total(0), 33);
        assert_eq!(hub.cell_counter_total(1, 0), 6);
        assert_eq!(hub.per_worker(0), vec![10, 11, 12]);
        let snap = hub.merged();
        assert_eq!(snap.counters[0], 33);
        assert_eq!(snap.cells[1].counters[0], 6);
        assert_eq!(snap.cells[1].counters[1], 0);
        assert_eq!(snap.cells[0].hists[0].count(), 3);
        assert_eq!(snap.cells[0].hists[0].sum, 1 + 2 + 4);
        assert_eq!(snap.hists[0].count(), 3);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let hub = Arc::new(TelemetryHub::new(&SPEC, 4, 1));
        std::thread::scope(|s| {
            for w in 0..4 {
                let hub = Arc::clone(&hub);
                s.spawn(move || {
                    let h = hub.worker(w);
                    for i in 0..10_000u64 {
                        h.add(0, 1);
                        h.cell_add(0, 1, 1);
                        if i % 100 == 0 {
                            h.cell_record(0, 0, i);
                        }
                    }
                });
            }
        });
        assert_eq!(hub.counter_total(0), 40_000);
        assert_eq!(hub.cell_counter_total(0, 1), 40_000);
        assert_eq!(hub.merged().cells[0].hists[0].count(), 400);
    }
}
