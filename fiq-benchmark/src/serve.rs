//! The `serve-loop` workload: one client runs a closed loop of
//! submissions against an in-process `fiq serve` daemon, waiting for each
//! campaign to settle and fetching its report before submitting the next.

use crate::reference::Reference;
use crate::stats::median;
use crate::trace::{ledger, wall_ns, Span, Tracer, CALIBRATE};
use crate::{
    check_digest, fnv1a_bodies, peak_rss_mb, set_engine_counts, Budget, Layers, Measured, Params,
};
use fiq_asm::MachOptions;
use fiq_core::json::Json;
use fiq_core::{
    plan_campaign, profile_llfi, profile_llfi_with_snapshots, profile_pinfi,
    profile_pinfi_with_snapshots, run_campaign, run_campaign_shard, CampaignReport, Category,
    Collapse, EngineOptions,
};
use fiq_interp::InterpOptions;
use fiq_serve::aggregate::{merge_campaign, merged_path, shard_path};
use fiq_serve::{client, prepare, Daemon, ServeOptions, Submission};
use fiq_workloads::CATALOG;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Shard executors of the daemon, so the two shards of a submission run
/// side by side.
const EXECUTORS: usize = 2;
/// Shards per submission; with two cells of equal size, shard 0 runs the
/// LLFI cell and shard 1 the PINFI cell.
const SHARDS: usize = 2;
/// Injections per cell of one submission.
const INJECTIONS: u32 = 40;
/// Rounds (one submission per catalog program) every run makes, however
/// short `--seconds` is. The daemon keeps every campaign it ran, so its
/// memory grows with the number of rounds, which follows the host's
/// speed: peak memory is read after this many rounds.
const MIN_ROUNDS: usize = 2;
/// The client's status poll period.
const POLL: Duration = Duration::from_millis(2);
/// The longest one submission may take to settle.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(120);

/// Submission `i` of the loop: catalog program `i mod 6`, seed `S + i`.
fn submission(i: usize, p: &Params) -> Submission {
    let slot = i % CATALOG.len();
    let w = &CATALOG[slot];
    Submission {
        name: w.name.to_string(),
        source: w.source.to_string(),
        category: Category::All,
        injections: INJECTIONS,
        seed: p.seed.wrapping_add(i as u64),
        threads: 1,
        shards: SHARDS,
        priority: 0,
        collapse: Collapse::Sampled,
        divergence: true,
        fast_forward: true,
    }
}

/// One settled submission as the client saw it.
struct Sample {
    id: u64,
    submit_s: f64,
    settle_s: f64,
    turnaround_s: f64,
    /// Planned tasks per cell, `[llfi, pinfi]`.
    cell_tasks: [u64; 2],
    extra_attempts: u64,
}

impl Sample {
    fn tasks(&self) -> u64 {
        self.cell_tasks.iter().sum()
    }
}

/// Starts a daemon on a free port, runs `f` against its address, and
/// shuts the daemon down and joins its threads whatever `f` returned.
fn with_daemon<T>(data_dir: &Path, f: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
    let daemon = Daemon::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.to_path_buf(),
        executors: EXECUTORS,
    })?;
    let addr = daemon.addr().to_string();
    let out = f(&addr);
    let shut = client::shutdown(&addr);
    daemon.join();
    let out = out?;
    shut?;
    Ok(out)
}

/// Submits, waits for the campaign to settle, and fetches its report,
/// with a span around each call.
fn submit_one(
    addr: &str,
    i: usize,
    p: &Params,
    tr: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<Sample, String> {
    let c = i as u64;
    let sub = submission(i, p);
    let (id, detail, report) = tr.span("bench.submission", c, |tr| -> Result<_, String> {
        let resp = tr.span("serve.submit", c, |_| client::submit(addr, &sub))?;
        let id = resp
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("submit response has no campaign id")?;
        let detail = tr.span("serve.settle", c, |_| {
            client::wait_settled(addr, id, POLL, SETTLE_TIMEOUT)
        })?;
        let report = tr.span("serve.fetch_report", c, |_| client::report(addr, id))?;
        Ok((id, detail, report))
    })?;
    if detail.get("status").and_then(Json::as_str) != Some("done") {
        problems.push(format!("campaign {id} did not finish: {detail}"));
    }
    let extra_attempts = detail
        .get("shard_states")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|s| s.get("attempts").and_then(Json::as_u64))
        .map(|a| a.saturating_sub(1))
        .sum();
    let mut cell_tasks = [0; 2];
    for cell in report
        .get("cells")
        .and_then(Json::as_array)
        .unwrap_or_default()
    {
        let field = |k: &str| cell.get(k).and_then(Json::as_u64).unwrap_or(0);
        if field("executed") != field("planned") {
            problems.push(format!(
                "campaign {id}: outcomes do not sum to planned in {cell}"
            ));
        }
        let tool = usize::from(cell.get("tool").and_then(Json::as_str) == Some("pinfi"));
        cell_tasks[tool] += field("planned");
    }
    Ok(Sample {
        id,
        submit_s: tr.last_secs("serve.submit"),
        settle_s: tr.last_secs("serve.settle"),
        turnaround_s: tr.last_secs("bench.submission"),
        cell_tasks,
        extra_attempts,
    })
}

/// The untraced measurement: rounds of the closed loop while another
/// round fits in `--seconds`, at least [`MIN_ROUNDS`]. Every submission
/// has its own seed, so a run covers as many distinct plans as it can.
/// Each submission's host times are scaled to the nominal host speed
/// measured just before and after it, for the reasons given in
/// [`crate::inproc::measure`]; set-up time is the median submit round
/// trip, and the other metrics combine all submissions.
pub fn measure(p: &Params) -> Result<Measured, String> {
    let data_dir = p.work.join("daemon");
    let mut problems = Vec::new();
    let mut reference = Reference::new(EXECUTORS);
    reference.sample();
    let mut rounds = 0;
    let mut peak = 0.0;
    let mut budget = Budget::new(p.seconds);
    let samples = with_daemon(&data_dir, |addr| {
        let mut tr = Tracer::default();
        let mut samples = Vec::new();
        while rounds < MIN_ROUNDS || budget.another_fits() {
            budget.time(|| -> Result<(), String> {
                for _ in 0..CATALOG.len() {
                    samples.push(submit_one(addr, samples.len(), p, &mut tr, &mut problems)?);
                    reference.sample();
                }
                Ok(())
            })?;
            rounds += 1;
            if rounds == MIN_ROUNDS {
                peak = peak_rss_mb()?;
            }
        }
        Ok(samples)
    })?;

    let scaled = |f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        samples
            .iter()
            .enumerate()
            .map(|(i, s)| f(s) * reference.scale(i))
            .collect()
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let (submit, settle, turnaround) = (
        scaled(&|s| s.submit_s),
        scaled(&|s| s.settle_s),
        scaled(&|s| s.turnaround_s),
    );
    let n = samples.len() as f64;
    let tasks = samples.iter().map(|s| s.tasks() as f64).sum::<f64>();
    let metrics = vec![
        ("setup_s", median(&submit)),
        ("campaign_s", sum(&settle) / n),
        ("tasks_per_s", tasks / sum(&settle)),
        ("points_per_s", tasks / (sum(&submit) + sum(&settle))),
        ("turnaround_ms", sum(&turnaround) / n * 1e3),
        ("peak_rss_mb", peak),
    ];
    let extra: u64 = samples.iter().map(|s| s.extra_attempts).sum();
    let mut notes = vec![
        format!(
            "serve-loop: {} submissions in {} rounds, {extra} extra shard attempts",
            samples.len(),
            rounds,
        ),
        format!(
            "serve-loop: per submission [turnaround s, host-time scale]: {:?}",
            samples
                .iter()
                .enumerate()
                .map(|(i, s)| [s.turnaround_s, reference.scale(i)].map(|v| (v * 1e4).round() / 1e4))
                .collect::<Vec<_>>()
        ),
    ];

    let campaign_dir = |s: &Sample| data_dir.join(format!("c{}", s.id));
    let merged: Vec<PathBuf> = samples[..CATALOG.len()]
        .iter()
        .flat_map(|s| ["records", "divergence"].map(|k| merged_path(&campaign_dir(s), k)))
        .collect();
    check_digest(
        "serve-loop",
        p,
        fnv1a_bodies(&merged)?,
        &mut problems,
        &mut notes,
    );
    let last = samples.len() - 1;
    for i in [0, last] {
        check_against_in_process(i, p, &campaign_dir(&samples[i]), &mut problems)?;
    }
    Ok(Measured {
        attempted: samples.len() as u64 + tasks as u64,
        failed: extra,
        problems,
        metrics,
        notes,
        spans: Vec::new(),
    })
}

/// The daemon's merged records and divergence must be byte-identical to
/// one in-process engine run over the same prepared cells.
fn check_against_in_process(
    i: usize,
    p: &Params,
    dir: &Path,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let prepared = prepare(&submission(i, p))?;
    let reference = p.work.join("reference");
    std::fs::create_dir_all(&reference)
        .map_err(|e| format!("create {}: {e}", reference.display()))?;
    let records = merged_path(&reference, "records");
    let divergence = merged_path(&reference, "divergence");
    let opts = EngineOptions {
        records: Some(&records),
        divergence: Some(&divergence),
        fast_forward: prepared.fast_forward,
        early_exit: prepared.early_exit,
        collapse: prepared.collapse,
        ..EngineOptions::default()
    };
    run_campaign(&prepared.cells(), &prepared.cfg, &opts)?;
    for (ours, theirs) in [
        (&records, merged_path(dir, "records")),
        (&divergence, merged_path(dir, "divergence")),
    ] {
        let read =
            |path: &Path| std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()));
        if read(ours)? != read(&theirs)? {
            problems.push(format!(
                "submission {i}: {} differs from an in-process run",
                theirs.display()
            ));
        }
    }
    Ok(())
}

/// One replayed shard.
struct ReplayShard {
    /// 0 for an LLFI shard, 1 for a PINFI one, `None` for a mixed shard.
    tool: Option<usize>,
    /// Seconds of its engine call as the daemon makes it.
    exec_s: f64,
    /// Seconds of its engine call without telemetry, with the streams on
    /// and with them off.
    streams_s: [f64; 2],
}

/// One replayed submission's layer times, in seconds.
struct Replay {
    prepare_s: f64,
    plan_s: f64,
    shards: Vec<ReplayShard>,
    merge_s: f64,
    report_s: f64,
    stream_bytes: u64,
    /// The spool directory.
    dir: PathBuf,
}

/// Replays submission `i` in-process as the daemon runs it, with spans:
/// prepare, plan, each shard, merge and report. Right after each shard, a
/// [`CALIBRATE`] span runs it again without telemetry, with the streams on
/// and then off, so both timings meet the host conditions of the first.
fn replay(i: usize, p: &Params, tr: &mut Tracer) -> Result<Replay, String> {
    let c = i as u64;
    let sub = submission(i, p);
    let dir = p.work.join("replay").join(format!("c{i}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let replay = tr.span("bench.replay", c, |tr| -> Result<Replay, String> {
        let prepared = tr.span("serve.prepare", c, |_| prepare(&sub))?;
        let cells = prepared.cells();
        let plan = tr.span("engine.plan", c, |_| {
            plan_campaign(&cells, &prepared.cfg, prepared.collapse)
        })?;
        let llfi_tasks = plan.planned()[0] as usize;
        let mut shards = Vec::new();
        for spec in plan.shards(prepared.shards) {
            // The daemon's run writes the shard's spools and telemetry;
            // calibration runs write scratch files.
            let run = |telemetry: bool, streams: bool| {
                let path = |kind: &str| match telemetry {
                    true => shard_path(&dir, kind, spec.index),
                    false => dir.join(format!("calibrate.{kind}.jsonl")),
                };
                let (records, tel, div) = (path("records"), path("telemetry"), path("divergence"));
                let opts = EngineOptions {
                    records: streams.then_some(records.as_path()),
                    telemetry: telemetry.then_some(tel.as_path()),
                    divergence: (streams && prepared.divergence).then_some(div.as_path()),
                    fast_forward: prepared.fast_forward,
                    early_exit: prepared.early_exit,
                    collapse: prepared.collapse,
                    ..EngineOptions::default()
                };
                run_campaign_shard(&cells, &prepared.cfg, &opts, &plan, spec)
            };
            tr.span("serve.shard_exec", c, |_| run(true, true))?;
            let [on, off] = tr.span(CALIBRATE, c, |_| -> Result<_, String> {
                let time = |streams: bool| -> Result<f64, String> {
                    let t = Instant::now();
                    run(false, streams)?;
                    Ok(t.elapsed().as_secs_f64())
                };
                Ok([time(true)?, time(false)?])
            })?;
            let tool = match (spec.hi <= llfi_tasks, spec.lo >= llfi_tasks) {
                (true, _) => Some(0),
                (_, true) => Some(1),
                _ => None,
            };
            shards.push(ReplayShard {
                tool,
                exec_s: tr.last_secs("serve.shard_exec"),
                streams_s: [on, off],
            });
        }
        drop(cells);
        tr.span("serve.merge", c, |_| merge_campaign(&prepared, &plan, &dir))?;
        let records = merged_path(&dir, "records");
        let telemetry = merged_path(&dir, "telemetry");
        let divergence = merged_path(&dir, "divergence");
        tr.span("report.build", c, |_| {
            CampaignReport::build(&records, Some(&telemetry), Some(&divergence))
        })?;
        let stream_bytes = [&records, &divergence]
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        Ok(Replay {
            prepare_s: tr.last_secs("serve.prepare"),
            plan_s: tr.last_secs("engine.plan"),
            shards,
            merge_s: tr.last_secs("serve.merge"),
            report_s: tr.last_secs("report.build"),
            stream_bytes,
            dir: dir.clone(),
        })
    })?;
    Ok(replay)
}

/// Makes the calls `prepare` makes for submission `i` one by one, each in
/// a span under `tr`: `prepare` itself is one opaque call.
fn time_setup_calls(i: usize, p: &Params, tr: &mut Tracer) -> Result<(), String> {
    let c = i as u64;
    let sub = submission(i, p);
    let mut module = tr
        .span("frontend.compile", c, |_| {
            fiq_frontend::compile(&sub.name, &sub.source)
        })
        .map_err(|e| e.to_string())?;
    tr.span("opt.optimize", c, |_| fiq_opt::optimize_module(&mut module));
    let asm = tr
        .span("backend.lower", c, |_| {
            fiq_backend::lower_module(&module, Default::default())
        })
        .map_err(|e| e.to_string())?;
    let lp = tr.span("profile.golden_llfi", c, |_| {
        profile_llfi(&module, InterpOptions::default())
    })?;
    let pp = tr.span("profile.golden_pinfi", c, |_| {
        profile_pinfi(&asm, MachOptions::default())
    })?;
    tr.span("profile.snapshot", c, |_| -> Result<(), String> {
        profile_llfi_with_snapshots(
            &module,
            InterpOptions::default(),
            (lp.golden_steps / 64).max(1),
        )?;
        profile_pinfi_with_snapshots(&asm, MachOptions::default(), (pp.golden_steps / 64).max(1))?;
        Ok(())
    })
}

/// Span durations named `name`, in seconds, per campaign id.
fn per_campaign(spans: &[Span], name: &str, n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n];
    for s in spans.iter().filter(|s| s.name == name) {
        out[s.campaign as usize] += s.duration_ns() as f64 / 1e9;
    }
    out
}

/// The traced measurement: one round through the daemon untraced and
/// traced, then replayed in-process layer by layer. Layer times are
/// medians over the round's submissions.
pub fn trace(p: &Params) -> Result<Measured, String> {
    let n = CATALOG.len();
    let mut problems = Vec::new();
    let mut untraced = Tracer::default();
    let mut tr = Tracer::default();
    let samples = with_daemon(&p.work.join("daemon"), |addr| {
        for i in 0..n {
            submit_one(addr, i, p, &mut untraced, &mut problems)?;
        }
        (0..n)
            .map(|i| submit_one(addr, i, p, &mut tr, &mut problems))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let replays = (0..n)
        .map(|i| replay(i, p, &mut tr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut calib_tr = Tracer::default();
    for i in 0..n {
        time_setup_calls(i, p, &mut calib_tr)?;
    }

    let spans = tr.spans();
    let mut l = Layers::default();
    let ms_med = |v: Vec<f64>| median(&v) * 1e3;
    for name in [
        "frontend.compile",
        "opt.optimize",
        "backend.lower",
        "profile.golden_llfi",
        "profile.golden_pinfi",
        "profile.snapshot",
    ] {
        l.set(
            &format!("{name}_ms"),
            ms_med(per_campaign(calib_tr.spans(), name, n)),
        );
    }
    let golden: Vec<[f64; 2]> = (0..n)
        .map(|i| {
            ["profile.golden_llfi", "profile.golden_pinfi"]
                .map(|name| per_campaign(calib_tr.spans(), name, n)[i])
        })
        .collect();
    l.set(
        "engine.plan_ms",
        ms_med(replays.iter().map(|r| r.plan_s).collect()),
    );
    for tool in 0..2 {
        let exec: Vec<(usize, f64)> = replays
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                r.shards
                    .iter()
                    .filter(move |s| s.tool == Some(tool))
                    .map(move |s| (i, s.exec_s))
            })
            .collect();
        let name = ["engine.exec_llfi_ms", "engine.exec_pinfi_ms"][tool];
        l.set(name, ms_med(exec.iter().map(|e| e.1).collect()));
        let ratio: Vec<f64> = exec
            .iter()
            .map(|&(i, s)| s / (samples[i].cell_tasks[tool] as f64 * golden[i][tool]))
            .collect();
        let name = ["engine.task_x_golden_llfi", "engine.task_x_golden_pinfi"][tool];
        l.set(name, median(&ratio));
    }
    l.set(
        "engine.streams_ms",
        ms_med(
            replays
                .iter()
                .map(|r| {
                    r.shards
                        .iter()
                        .map(|s| s.streams_s[0] - s.streams_s[1])
                        .sum()
                })
                .collect(),
        ),
    );
    l.set(
        "engine.stream_bytes",
        median(
            &replays
                .iter()
                .map(|r| r.stream_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );

    let tel = replays
        .iter()
        .flat_map(|r| {
            (0..SHARDS).map(|s| {
                (
                    shard_path(&r.dir, "records", s),
                    shard_path(&r.dir, "telemetry", s),
                )
            })
        })
        .map(|(rec, tel)| CampaignReport::build(&rec, Some(&tel), None))
        .collect::<Result<Vec<_>, _>>()?;
    let counter = |name: &str, tool: Option<&str>| -> f64 {
        tel.iter()
            .flat_map(|t| &t.cells)
            .filter(|c| tool.is_none_or(|tool| c.tool == tool))
            .map(|c| c.counter(name) as f64)
            .sum()
    };
    set_engine_counts(&mut l, tel.iter().flat_map(|t| &t.cells));
    for (tool, (metric, name)) in [("interp.ns_per_step", "llfi"), ("asm.ns_per_step", "pinfi")]
        .into_iter()
        .enumerate()
    {
        let bare: f64 = replays
            .iter()
            .flat_map(|r| &r.shards)
            .filter(|s| s.tool == Some(tool))
            .map(|s| s.streams_s[1])
            .sum();
        l.set(metric, bare * 1e9 / counter("steps_executed", Some(name)));
    }
    l.set(
        "report.build_ms",
        ms_med(replays.iter().map(|r| r.report_s).collect()),
    );
    l.set(
        "serve.submit_ms",
        ms_med(samples.iter().map(|s| s.submit_s).collect()),
    );
    l.set(
        "serve.prepare_ms",
        ms_med(replays.iter().map(|r| r.prepare_s).collect()),
    );
    l.set(
        "serve.shard_exec_ms",
        ms_med(
            replays
                .iter()
                .flat_map(|r| r.shards.iter().map(|s| s.exec_s))
                .collect(),
        ),
    );
    l.set(
        "serve.merge_ms",
        ms_med(replays.iter().map(|r| r.merge_s).collect()),
    );
    l.set(
        "serve.extra_attempts",
        samples.iter().map(|s| s.extra_attempts as f64).sum(),
    );
    // What the daemon's turnaround spends beyond the replayed layers:
    // queue waits, HTTP round trips and the status poll. The executors
    // take the queued shards in order, so each group of `EXECUTORS`
    // shards runs side by side and the slowest of a group is on the
    // critical path.
    l.set(
        "serve.unattributed_ms",
        ms_med(
            samples
                .iter()
                .zip(&replays)
                .map(|(s, r)| {
                    let shards: f64 = r
                        .shards
                        .chunks(EXECUTORS)
                        .map(|g| g.iter().map(|s| s.exec_s).fold(0.0, f64::max))
                        .sum();
                    s.turnaround_s - (r.prepare_s + r.plan_s + shards + r.merge_s + r.report_s)
                })
                .collect(),
        ),
    );
    let rows = ledger(spans);
    l.set(
        "unattributed_ms",
        rows["unattributed"] as f64 / 1e6 / n as f64,
    );
    l.set(
        "bench.unattributed_pct",
        rows["unattributed"] as f64 * 100.0 / wall_ns(spans) as f64,
    );
    let turnaround = |t: &Tracer| median(&per_campaign(t.spans(), "bench.submission", n));
    l.set(
        "bench.trace_overhead_pct",
        (turnaround(&tr) / turnaround(&untraced) - 1.0) * 100.0,
    );
    Ok(Measured {
        attempted: samples.iter().map(Sample::tasks).sum::<u64>() + n as u64,
        failed: samples.iter().map(|s| s.extra_attempts).sum(),
        problems,
        metrics: l.into_metrics(),
        notes: Vec::new(),
        spans: spans.to_vec(),
    })
}
