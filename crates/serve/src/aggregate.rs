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
//! header is validated first — it must be exactly the header the plan
//! would write for that shard — so a stale or foreign spool is a merge
//! error, not silent corruption. The result is byte-identical to the
//! single-process stream at any shard count.
//!
//! ## Telemetry: monoid merge
//!
//! Telemetry is not positional, so it merges as the monoid it already
//! is: counters add, histograms add bucketwise, summary totals add, and
//! per-worker task lines re-index onto one fleet-wide worker list.
//! Event lines concatenate in shard order. Serialization reuses each
//! shard's own lines with only the merged values patched in, so the
//! merged file's format is exactly what a single-process run writes.
//! Deterministic channels (cell counters, the step-valued histograms,
//! summary totals) merge to the single-process values; order-dependent
//! channels (wall-clock histograms, steal distribution) are inherently
//! per-run.

use crate::prepare::Prepared;
use fiq_core::json::{Fields, Json};
use fiq_core::CampaignPlan;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
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

fn read_all_lines(path: &Path) -> Result<Vec<String>, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    BufReader::new(file)
        .lines()
        .map(|l| l.map_err(|e| format!("read {}: {e}", path.display())))
        .collect()
}

/// Concatenates shard spools under the campaign-wide header, validating
/// each shard header against `expected_headers[shard]`.
fn merge_concat(
    out_path: &Path,
    base_header: &str,
    dir: &Path,
    stream: &str,
    expected_headers: &[String],
) -> Result<(), String> {
    let out = File::create(out_path).map_err(|e| format!("create {}: {e}", out_path.display()))?;
    let mut w = BufWriter::new(out);
    let werr = |e: std::io::Error| format!("write {}: {e}", out_path.display());
    writeln!(w, "{base_header}").map_err(werr)?;
    for (shard, expected) in expected_headers.iter().enumerate() {
        let path = shard_path(dir, stream, shard);
        let lines = read_all_lines(&path)?;
        let found = lines.first().map(String::as_str).unwrap_or("");
        if found != expected {
            return Err(format!(
                "{}: shard header does not match the campaign plan \
                 (stale spool from another campaign?)",
                path.display()
            ));
        }
        for line in &lines[1..] {
            writeln!(w, "{line}").map_err(werr)?;
        }
    }
    w.flush().map_err(werr)
}

/// Replaces `key`'s value in a parsed JSON object, preserving field
/// order (telemetry lines are re-serialized with only merged values
/// patched, keeping the merged file's format byte-compatible with a
/// single-process run's).
fn patch(v: &mut Json, key: &str, value: Json) {
    if let Json::Obj(fields) = v {
        for (k, fv) in fields.iter_mut() {
            if k == key {
                *fv = value;
                return;
            }
        }
    }
}

fn get_u64(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// A telemetry line's merge identity: (record, scope, cell, name).
fn line_key(v: &Json) -> (String, String, u64, String) {
    let s = |k: &str| {
        v.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    (s("record"), s("scope"), get_u64(v, "cell"), s("name"))
}

struct TelLine {
    parsed: Json,
    /// Summed counter value / hist count+sum, bucket sums.
    value: u64,
    count: u64,
    sum: u64,
    buckets: Vec<(u64, u64)>,
}

/// Strips the per-shard fields (`shard`/`shards`/`task_lo`/`task_hi`)
/// and `workers` from a parsed header for cross-shard comparison.
fn strip_shard_fields(v: &Json) -> Json {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "shard" | "shards" | "task_lo" | "task_hi" | "workers"
                    )
                })
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

fn merge_buckets(into: &mut Vec<(u64, u64)>, v: &Json) {
    for pair in v.get("buckets").and_then(Json::as_array).unwrap_or(&[]) {
        let Some(p) = pair.as_array().filter(|p| p.len() == 2) else {
            continue;
        };
        let (i, c) = (p[0].as_u64().unwrap_or(0), p[1].as_u64().unwrap_or(0));
        match into.iter_mut().find(|(bi, _)| *bi == i) {
            Some((_, bc)) => *bc += c,
            None => into.push((i, c)),
        }
    }
}

/// Merges the per-shard telemetry spools into `telemetry.jsonl`.
fn merge_telemetry(dir: &Path, expected_stripped: &Json, shard_count: usize) -> Result<(), String> {
    let mut events: Vec<String> = Vec::new();
    // First-seen order preserves the single-process summary line order
    // (HUB_SPEC order, then per-cell, then workers, then summary).
    let mut merged: Vec<((String, String, u64, String), TelLine)> = Vec::new();
    let mut worker_lines: Vec<Json> = Vec::new();
    let mut summary: Option<Json> = None;
    let mut summary_sums = [0u64; 5];
    const SUMMARY_KEYS: [&str; 5] = ["total", "done", "resumed", "fast_forwarded", "early_exited"];
    let mut workers_total = 0u64;
    let mut header_template: Option<Json> = None;

    for shard in 0..shard_count {
        let path = shard_path(dir, "telemetry", shard);
        let lines = read_all_lines(&path)?;
        let perr = |e: String| format!("{}: {e}", path.display());
        let header = Json::parse(lines.first().map(String::as_str).unwrap_or("")).map_err(perr)?;
        if &strip_shard_fields(&header) != expected_stripped {
            return Err(format!(
                "{}: telemetry shard header does not match the campaign plan",
                path.display()
            ));
        }
        workers_total += get_u64(&header, "workers");
        if header_template.is_none() {
            header_template = Some(header);
        }
        for line in &lines[1..] {
            // Event lines (one per task) are only routed, so they are read
            // without building a tree; the few summary lines are merged
            // as trees.
            let fields = Fields::parse(line).map_err(perr)?;
            if fields.str("record") == Some("event") {
                events.push(line.clone());
                continue;
            }
            let v = Json::parse(line).map_err(perr)?;
            match v.get("record").and_then(Json::as_str) {
                Some("counter") => {
                    let key = line_key(&v);
                    let value = get_u64(&v, "value");
                    match merged.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, t)) => t.value += value,
                        None => merged.push((
                            key,
                            TelLine {
                                parsed: v,
                                value,
                                count: 0,
                                sum: 0,
                                buckets: Vec::new(),
                            },
                        )),
                    }
                }
                Some("hist") => {
                    let key = line_key(&v);
                    let (count, sum) = (get_u64(&v, "count"), get_u64(&v, "sum"));
                    match merged.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, t)) => {
                            t.count += count;
                            t.sum += sum;
                            merge_buckets(&mut t.buckets, &v);
                        }
                        None => {
                            let mut buckets = Vec::new();
                            merge_buckets(&mut buckets, &v);
                            merged.push((
                                key,
                                TelLine {
                                    parsed: v,
                                    value: 0,
                                    count,
                                    sum,
                                    buckets,
                                },
                            ));
                        }
                    }
                }
                Some("worker") => worker_lines.push(v),
                Some("summary") => {
                    for (slot, key) in summary_sums.iter_mut().zip(SUMMARY_KEYS) {
                        *slot += get_u64(&v, key);
                    }
                    summary.get_or_insert(v);
                }
                _ => return Err(format!("{}: unknown telemetry line {line}", path.display())),
            }
        }
    }

    let out_path = merged_path(dir, "telemetry");
    let out = File::create(&out_path).map_err(|e| format!("create {}: {e}", out_path.display()))?;
    let mut w = BufWriter::new(out);
    let werr = |e: std::io::Error| format!("write {}: {e}", out_path.display());
    let mut header = header_template.ok_or("campaign has no telemetry shards")?;
    header = strip_all_shard_fields(header);
    patch(&mut header, "workers", Json::u64(workers_total));
    writeln!(w, "{header}").map_err(werr)?;
    for ev in &events {
        writeln!(w, "{ev}").map_err(werr)?;
    }
    for (_, mut t) in merged {
        if t.parsed.get("record").and_then(Json::as_str) == Some("counter") {
            patch(&mut t.parsed, "value", Json::u64(t.value));
        } else {
            t.buckets.sort_unstable();
            patch(&mut t.parsed, "count", Json::u64(t.count));
            patch(&mut t.parsed, "sum", Json::u64(t.sum));
            patch(
                &mut t.parsed,
                "buckets",
                Json::Arr(
                    t.buckets
                        .iter()
                        .map(|&(i, c)| Json::Arr(vec![Json::u64(i), Json::u64(c)]))
                        .collect(),
                ),
            );
        }
        writeln!(w, "{}", t.parsed).map_err(werr)?;
    }
    for (wi, mut line) in worker_lines.into_iter().enumerate() {
        patch(&mut line, "worker", Json::u64(wi as u64));
        writeln!(w, "{line}").map_err(werr)?;
    }
    if let Some(mut s) = summary {
        for (slot, key) in summary_sums.iter().zip(SUMMARY_KEYS) {
            patch(&mut s, key, Json::u64(*slot));
        }
        writeln!(w, "{s}").map_err(werr)?;
    }
    w.flush().map_err(werr)
}

/// Strips only the per-shard identity fields (keeps `workers`).
fn strip_all_shard_fields(v: Json) -> Json {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| !matches!(k.as_str(), "shard" | "shards" | "task_lo" | "task_hi"))
                .collect(),
        ),
        other => other,
    }
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
        )?;
    }

    // Shard telemetry headers differ in `workers` (worker count depends
    // on shard size), so validation compares the stripped form against
    // the plan's stripped base header.
    let base_tel = plan.telemetry_header(&cells, cfg, 0, None);
    let expected_stripped =
        strip_shard_fields(&Json::parse(&base_tel).map_err(|e| format!("telemetry header: {e}"))?);
    merge_telemetry(dir, &expected_stripped, shards.len())
}
