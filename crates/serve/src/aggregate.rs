//! The central stream aggregator: merges per-shard spools into the
//! campaign's canonical record / divergence / telemetry streams.
//!
//! ## Records and divergence: validated concatenation
//!
//! Record and divergence lines carry *global* task indices, and each
//! shard writes its contiguous range in global order through the
//! engine's reorder buffer. Merging is therefore header surgery, not
//! data transformation: write the campaign-wide header (the shard
//! headers minus their `shard`/`shards`/`task_lo`/`task_hi` fields),
//! then append every shard's body verbatim, in shard order. Each shard
//! spool is validated first — its header must be exactly the header the
//! plan would write for that shard, and its body must hold exactly one
//! line per task of the shard's range — so a stale, foreign, torn or
//! overlong spool is a merge error, not a merged stream that silently
//! misses or repeats tasks. The result is byte-identical to the
//! single-process stream at any shard count.
//!
//! ## Telemetry: monoid merge
//!
//! Telemetry is not positional, so it merges as the monoid it already
//! is. Each shard spool is read with the telemetry codec
//! ([`TelemetrySummary::read`], which refuses a missing or malformed
//! value), its header is checked against the plan's header for that
//! shard (ignoring only `workers`, the rule resume applies), and it is
//! folded into the campaign with [`TelemetrySummary::merge`]: counters,
//! histograms, worker counts and summary totals add, and per-worker task
//! lines form one fleet-wide list. The codec writes the result, so the
//! merged file has exactly the layout a single-process run writes. Deterministic channels (cell
//! counters, the step-valued histograms, summary totals) merge to the
//! single-process values; order-dependent channels (wall-clock
//! histograms, steal distribution) are inherently per-run.

use crate::prepare::Prepared;
use fiq_core::telemetry::{same_campaign, TelemetrySummary};
use fiq_core::{CampaignPlan, ShardSpec};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Spool-file name for one shard's stream (`records`, `divergence`, or
/// `telemetry`).
pub fn shard_path(dir: &Path, stream: &str, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.{stream}.jsonl"))
}

/// Merged-file name for a stream.
pub fn merged_path(dir: &Path, stream: &str) -> PathBuf {
    dir.join(format!("{stream}.jsonl"))
}

/// Concatenates shard spools under the campaign-wide header, validating
/// each shard header against `expected_headers[shard]` and each shard
/// body against the one-line-per-task length of `shards[shard]`.
fn merge_concat(
    out_path: &Path,
    base_header: &str,
    dir: &Path,
    stream: &str,
    expected_headers: &[String],
    shards: &[ShardSpec],
) -> Result<(), String> {
    let out = File::create(out_path).map_err(|e| format!("create {}: {e}", out_path.display()))?;
    let mut w = BufWriter::new(out);
    let werr = |e: std::io::Error| format!("write {}: {e}", out_path.display());
    writeln!(w, "{base_header}").map_err(werr)?;
    for (expected, spec) in expected_headers.iter().zip(shards) {
        let path = shard_path(dir, stream, spec.index);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mut lines = text.lines();
        if lines.next() != Some(expected.as_str()) {
            return Err(format!(
                "{}: shard header does not match the campaign plan \
                 (stale spool from another campaign?)",
                path.display()
            ));
        }
        // One complete line per task of the shard's range: a torn tail
        // (no final newline) or a missing or extra line would otherwise
        // drop or repeat tasks in the merged stream.
        let body: Vec<&str> = lines.collect();
        let want = spec.hi - spec.lo;
        if body.len() != want || !text.ends_with('\n') {
            return Err(format!(
                "{}: shard body must hold exactly {want} complete lines for tasks {}..{}, \
                 found {} (torn or overlong spool)",
                path.display(),
                spec.lo,
                spec.hi,
                body.len()
            ));
        }
        for line in body {
            writeln!(w, "{line}").map_err(werr)?;
        }
    }
    w.flush().map_err(werr)
}

/// Merges every stream of a fully drained campaign. The merged
/// `records.jsonl` / `divergence.jsonl` are byte-identical to a
/// single-process run; `telemetry.jsonl` is the monoid merge.
pub fn merge_campaign(prepared: &Prepared, plan: &CampaignPlan, dir: &Path) -> Result<(), String> {
    let cells = prepared.cells();
    let cfg = &prepared.cfg;
    let shards = plan.shards(prepared.shards);

    let rec_headers: Vec<String> = shards
        .iter()
        .map(|&s| plan.record_header(&cells, cfg, Some(s)))
        .collect();
    merge_concat(
        &merged_path(dir, "records"),
        &plan.record_header(&cells, cfg, None),
        dir,
        "records",
        &rec_headers,
        &shards,
    )?;

    if prepared.divergence {
        let div_headers: Vec<String> = shards
            .iter()
            .map(|&s| plan.divergence_header(&cells, cfg, Some(s)))
            .collect();
        merge_concat(
            &merged_path(dir, "divergence"),
            &plan.divergence_header(&cells, cfg, None),
            dir,
            "divergence",
            &div_headers,
            &shards,
        )?;
    }

    let mut telemetry = TelemetrySummary::new(&plan.telemetry_header(&cells, cfg, 0, None))?;
    for &spec in &shards {
        let path = shard_path(dir, "telemetry", spec.index);
        let shard = TelemetrySummary::read(&path)?;
        // Shards run with different worker counts; anything else in the
        // header must be what the plan writes for this shard.
        if !same_campaign(
            &shard.header,
            &plan.telemetry_header(&cells, cfg, 0, Some(spec)),
        ) {
            return Err(format!(
                "{}: telemetry shard header does not match the campaign plan",
                path.display()
            ));
        }
        if shard.totals.is_none() {
            return Err(format!(
                "{}: telemetry shard spool has no summary line (torn spool?)",
                path.display()
            ));
        }
        telemetry
            .merge(shard)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let out_path = merged_path(dir, "telemetry");
    let out = File::create(&out_path).map_err(|e| format!("create {}: {e}", out_path.display()))?;
    let mut w = BufWriter::new(out);
    telemetry
        .write(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("write {}: {e}", out_path.display()))
}
