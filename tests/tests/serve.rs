//! The campaign service: sharded execution must be a pure refactoring
//! of the single-process run. The merge determinism matrix (shards ×
//! threads → byte-identical records/divergence, identical report JSON,
//! identical deterministic telemetry), crash-only recovery at shard
//! granularity (a cancelled shard resumes into the same bytes), the
//! minimum-consistent-prefix reconciliation across all three streams
//! after a torn shutdown, the scheduler's priority queue, and the
//! daemon end-to-end over its TCP JSON API — submit, observe, kill a
//! worker mid-run, recover, and report.

use fiq_core::json::Json;
use fiq_core::{
    plan_campaign, run_campaign, run_campaign_shard, CampaignReport, EngineOptions, Progress,
    CANCELLED,
};
use fiq_serve::{aggregate, client, http, prepare, Daemon, Scheduler, ServeOptions, Submission};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Same store-then-reduce kernel as the divergence suite: produces
/// born, masked, and never-born timelines in one campaign, so every
/// stream has structure worth comparing byte-for-byte.
const KERNEL: &str = "
int vals[64];
int main() {
  int s = 0;
  for (int r = 0; r < 8; r += 1) {
    int seed = 3 + r;
    for (int i = 0; i < 64; i += 1) {
      seed = (seed * 1103515245 + 12345) & 2147483647;
      vals[i] = seed;
    }
    for (int i = 0; i < 64; i += 1) s += vals[i] & 1;
  }
  print_i64(s);
  return 0;
}";

/// Trivial kernel for scheduler-only tests where run cost is noise.
const TINY: &str = "int main() { print_i64(7); return 0; }";

const INJECTIONS: u32 = 7;
/// Two cells (llfi + pinfi) per campaign.
const TASKS: usize = 2 * INJECTIONS as usize;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fiq-serve-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn submission() -> Submission {
    Submission {
        name: "kernel".into(),
        source: KERNEL.into(),
        category: fiq_core::Category::All,
        injections: INJECTIONS,
        seed: 77,
        threads: 1,
        shards: 1,
        priority: 0,
        collapse: fiq_core::Collapse::Sampled,
        divergence: true,
        fast_forward: false,
    }
}

/// The engine options every run in this suite uses, varying only the
/// stream paths — mirrors what the daemon's executor passes.
struct Streams {
    records: PathBuf,
    telemetry: PathBuf,
    divergence: PathBuf,
}

impl Streams {
    fn reference(dir: &Path) -> Streams {
        Streams {
            records: dir.join("ref.records.jsonl"),
            telemetry: dir.join("ref.telemetry.jsonl"),
            divergence: dir.join("ref.divergence.jsonl"),
        }
    }

    fn shard(dir: &Path, shard: usize) -> Streams {
        Streams {
            records: aggregate::shard_path(dir, "records", shard),
            telemetry: aggregate::shard_path(dir, "telemetry", shard),
            divergence: aggregate::shard_path(dir, "divergence", shard),
        }
    }

    fn opts<'a>(&'a self, prepared: &prepare::Prepared, resume: bool) -> EngineOptions<'a> {
        EngineOptions {
            records: Some(&self.records),
            telemetry: Some(&self.telemetry),
            divergence: Some(&self.divergence),
            resume,
            fast_forward: prepared.fast_forward,
            early_exit: prepared.early_exit,
            collapse: prepared.collapse,
            ..EngineOptions::default()
        }
    }
}

/// `fiq report --json` as built from the position-carrying streams
/// (records + divergence). Telemetry is compared separately on its
/// deterministic subset, because its order-dependent channels
/// (wall-clock histograms, steal distribution) are per-run by nature.
fn report_json(records: &Path, divergence: &Path) -> String {
    CampaignReport::build(records, None, Some(divergence))
        .unwrap()
        .to_json()
        .to_string()
}

/// Cell-scope histograms covered by the determinism contract (the
/// time-valued ones are not).
const DET_HISTS: &[&str] = &[
    "task_steps",
    "exit_checkpoint",
    "exit_step",
    "div_peak_pages",
    "div_distance",
    "div_mask_time",
];

/// The deterministic telemetry channels, canonically rendered: cell
/// counters, the step-valued cell histograms, and the summary totals.
fn det_telemetry(path: &Path) -> String {
    let text = read(path);
    let mut out: Vec<String> = Vec::new();
    for line in text.lines().skip(1) {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let s = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let u = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
        match v.get("record").and_then(Json::as_str) {
            Some("counter") if s("scope") == "cell" => {
                out.push(format!(
                    "counter c{} {} = {}",
                    u("cell"),
                    s("name"),
                    u("value")
                ));
            }
            Some("hist") if s("scope") == "cell" && DET_HISTS.contains(&s("name").as_str()) => {
                let mut buckets: Vec<(u64, u64)> = v
                    .get("buckets")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|p| {
                        let p = p.as_array()?;
                        Some((p[0].as_u64()?, p[1].as_u64()?))
                    })
                    .collect();
                buckets.sort_unstable();
                out.push(format!(
                    "hist c{} {} count={} sum={} {buckets:?}",
                    u("cell"),
                    s("name"),
                    u("count"),
                    u("sum")
                ));
            }
            Some("summary") => out.push(format!(
                "summary total={} done={} resumed={} ff={} ee={}",
                u("total"),
                u("done"),
                u("resumed"),
                u("fast_forwarded"),
                u("early_exited")
            )),
            _ => {}
        }
    }
    out.sort();
    out.join("\n")
}

/// The merge determinism matrix: every (shard count, thread count)
/// combination must merge to byte-identical records and divergence, the
/// identical report JSON, and the identical deterministic telemetry —
/// all against the single-process reference run.
#[test]
fn sharded_merge_is_byte_identical_across_shard_and_thread_matrix() {
    let mut prepared = prepare(&submission()).unwrap();
    let dir = temp_dir("matrix");

    let reference = Streams::reference(&dir);
    run_campaign(
        &prepared.cells(),
        &prepared.cfg,
        &reference.opts(&prepared, false),
    )
    .unwrap();
    let ref_records = read(&reference.records);
    let ref_div = read(&reference.divergence);
    let ref_report = report_json(&reference.records, &reference.divergence);
    let ref_tel = det_telemetry(&reference.telemetry);
    assert!(!ref_tel.is_empty());

    for shards in [1usize, 2, 7] {
        for threads in [1usize, 4] {
            let case = format!("s{shards}-t{threads}");
            let cdir = temp_dir(&format!("matrix-{case}"));
            prepared.cfg.threads = threads;
            prepared.shards = shards;
            let plan = {
                let cells = prepared.cells();
                plan_campaign(&cells, &prepared.cfg, prepared.collapse).unwrap()
            };
            let mut executed = 0;
            for spec in plan.shards(shards) {
                let streams = Streams::shard(&cdir, spec.index);
                let cells = prepared.cells();
                let run = run_campaign_shard(
                    &cells,
                    &prepared.cfg,
                    &streams.opts(&prepared, false),
                    &plan,
                    spec,
                )
                .unwrap_or_else(|e| panic!("{case} shard {}: {e}", spec.index));
                executed += run.total_tasks;
            }
            assert_eq!(executed, TASKS, "{case}");
            aggregate::merge_campaign(&prepared, &plan, &cdir).unwrap();

            let records = aggregate::merged_path(&cdir, "records");
            let divergence = aggregate::merged_path(&cdir, "divergence");
            assert_eq!(read(&records), ref_records, "{case}: record bytes");
            assert_eq!(read(&divergence), ref_div, "{case}: divergence bytes");
            assert_eq!(
                report_json(&records, &divergence),
                ref_report,
                "{case}: report JSON"
            );
            assert_eq!(
                det_telemetry(&aggregate::merged_path(&cdir, "telemetry")),
                ref_tel,
                "{case}: deterministic telemetry channels"
            );
        }
    }
}

/// Crash-only recovery at shard granularity: a shard cancelled mid-run
/// (the daemon's kill path) resumes from its spools and the final merge
/// is still byte-identical to the uninterrupted single-process run.
#[test]
fn killed_shard_recovers_to_an_identical_merge() {
    let mut prepared = prepare(&submission()).unwrap();
    let dir = temp_dir("kill");

    let reference = Streams::reference(&dir);
    run_campaign(
        &prepared.cells(),
        &prepared.cfg,
        &reference.opts(&prepared, false),
    )
    .unwrap();

    prepared.cfg.threads = 2;
    prepared.shards = 2;
    let plan = {
        let cells = prepared.cells();
        plan_campaign(&cells, &prepared.cfg, prepared.collapse).unwrap()
    };
    let specs = plan.shards(2);

    // Shard 0, attempt 1: raise the cancellation flag after a few
    // completions, exactly as `POST /api/kill` does.
    let streams0 = Streams::shard(&dir, 0);
    let cancel = AtomicBool::new(false);
    let done = AtomicUsize::new(0);
    let progress = |_: Progress| {
        if done.fetch_add(1, Ordering::SeqCst) + 1 >= 3 {
            cancel.store(true, Ordering::SeqCst);
        }
    };
    let err = {
        let cells = prepared.cells();
        let opts = EngineOptions {
            progress: Some(&progress),
            cancel: Some(&cancel),
            ..streams0.opts(&prepared, false)
        };
        run_campaign_shard(&cells, &prepared.cfg, &opts, &plan, specs[0]).unwrap_err()
    };
    assert_eq!(err, CANCELLED);

    // Attempt 2: resume from the torn spools, no cancel flag.
    let resumed = {
        let cells = prepared.cells();
        run_campaign_shard(
            &cells,
            &prepared.cfg,
            &streams0.opts(&prepared, true),
            &plan,
            specs[0],
        )
        .unwrap()
    };
    assert!(
        resumed.resumed_tasks > 0,
        "the cancelled attempt must leave a resumable prefix"
    );

    let streams1 = Streams::shard(&dir, 1);
    {
        let cells = prepared.cells();
        run_campaign_shard(
            &cells,
            &prepared.cfg,
            &streams1.opts(&prepared, false),
            &plan,
            specs[1],
        )
        .unwrap();
    }

    aggregate::merge_campaign(&prepared, &plan, &dir).unwrap();
    let records = aggregate::merged_path(&dir, "records");
    let divergence = aggregate::merged_path(&dir, "divergence");
    assert_eq!(read(&records), read(&reference.records), "record bytes");
    assert_eq!(
        read(&divergence),
        read(&reference.divergence),
        "divergence bytes"
    );
    assert_eq!(
        report_json(&records, &divergence),
        report_json(&reference.records, &reference.divergence)
    );
}

/// Satellite regression: a run killed between flushes leaves the three
/// streams torn to *different* lengths. Resume must reconcile them to
/// the minimum consistent prefix — records and divergence trimmed to
/// the same task count, telemetry trimmed to at-most-once task events —
/// and re-execute the rest into byte-identical streams.
#[test]
fn torn_streams_reconcile_to_min_consistent_prefix() {
    let mut prepared = prepare(&submission()).unwrap();
    prepared.cfg.threads = 2;
    let dir = temp_dir("torn");

    let reference = Streams::reference(&dir);
    run_campaign(
        &prepared.cells(),
        &prepared.cfg,
        &reference.opts(&prepared, false),
    )
    .unwrap();
    let ref_records = read(&reference.records);
    let ref_div = read(&reference.divergence);

    // Simulate a kill between flushes: records flushed through task 6,
    // divergence through task 4, telemetry further ahead than both —
    // and, as in a real crash, with no summary section yet.
    let torn = Streams {
        records: dir.join("torn.records.jsonl"),
        telemetry: dir.join("torn.telemetry.jsonl"),
        divergence: dir.join("torn.divergence.jsonl"),
    };
    let keep = |src: &str, n: usize| -> String {
        src.lines().take(1 + n).map(|l| format!("{l}\n")).collect()
    };
    std::fs::write(&torn.records, keep(&ref_records, 7)).unwrap();
    std::fs::write(&torn.divergence, keep(&ref_div, 5)).unwrap();
    let events: String = read(&reference.telemetry)
        .lines()
        .enumerate()
        .filter(|(i, l)| {
            *i == 0
                || Json::parse(l)
                    .map(|v| v.get("record").and_then(Json::as_str) == Some("event"))
                    .unwrap_or(false)
        })
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    std::fs::write(&torn.telemetry, events).unwrap();

    let run = run_campaign(
        &prepared.cells(),
        &prepared.cfg,
        &torn.opts(&prepared, true),
    )
    .unwrap();
    assert_eq!(
        run.resumed_tasks, 5,
        "resume must take the minimum consistent prefix across streams"
    );

    // The position-carrying streams converge back to the reference.
    assert_eq!(read(&torn.records), ref_records, "record bytes");
    assert_eq!(read(&torn.divergence), ref_div, "divergence bytes");

    // Telemetry: exactly one task event per task — the events beyond
    // the resumed prefix were dropped, the re-executed ones re-logged.
    let text = read(&torn.telemetry);
    let mut seen = vec![0usize; TASKS];
    let mut summary_done = None;
    for line in text.lines().skip(1) {
        let v = Json::parse(line).unwrap();
        match v.get("record").and_then(Json::as_str) {
            Some("event") if v.get("kind").and_then(Json::as_str) == Some("task") => {
                let t = v
                    .get("fields")
                    .and_then(|f| f.get("task"))
                    .and_then(Json::as_u64)
                    .unwrap() as usize;
                seen[t] += 1;
            }
            Some("summary") => {
                summary_done = v.get("done").and_then(Json::as_u64);
                assert_eq!(v.get("resumed").and_then(Json::as_u64), Some(5));
            }
            _ => {}
        }
    }
    assert!(
        seen.iter().all(|&n| n == 1),
        "task events must be at-most-once across attempts: {seen:?}"
    );
    assert_eq!(summary_done, Some(TASKS as u64));

    // The reconciled stream joins cleanly into a report (the cross-check
    // `Σ cell tasks == done - resumed` holds after reconciliation), and
    // the degraded-latency counter introduced for shutdown races is
    // present in the schema.
    let report = CampaignReport::build(&torn.records, Some(&torn.telemetry), None).unwrap();
    let json = report.to_json().to_string();
    assert!(json.contains("latency_dropped"), "{json}");
}

/// The queue is priority-major, FIFO within a priority, shard-ordered
/// within a campaign — and closing it drains `next_job` to `None`.
#[test]
fn scheduler_orders_by_priority_then_fifo_then_shard() {
    let data_dir = temp_dir("sched");
    let sched = Scheduler::new();
    let submit = |priority: u64, shards: usize| {
        let mut sub = submission();
        sub.source = TINY.into();
        sub.injections = 2;
        sub.divergence = false;
        sub.priority = priority;
        sub.shards = shards;
        let prepared = prepare(&sub).unwrap();
        let plan = {
            let cells = prepared.cells();
            plan_campaign(&cells, &prepared.cfg, prepared.collapse).unwrap()
        };
        sched
            .submit(Arc::new(prepared), Arc::new(plan), &data_dir)
            .unwrap()
    };
    let a = submit(0, 1);
    let b = submit(7, 2);
    let c = submit(7, 1);

    // Claim every queued shard without completing any: the claim order
    // is the queue order — priority-major (B, C before A), FIFO within
    // a priority (B before C), shard-ordered within a campaign.
    let mut order = Vec::new();
    for _ in 0..4 {
        let job = sched.next_job().expect("queued work");
        order.push((job.campaign, job.shard));
    }
    assert_eq!(order, vec![(b, 0), (b, 1), (c, 0), (a, 0)]);

    // A failed attempt below MAX_ATTEMPTS re-queues the same shard.
    assert!(sched.complete(b, 0, Err("crash".into())).is_none());
    let retry = sched.next_job().expect("re-queued shard");
    assert_eq!((retry.campaign, retry.shard), (b, 0));
    assert!(retry.resume, "recovery attempts resume from the spools");

    assert!(sched.kill(999, 0).is_err(), "kill of unknown campaign");
    sched.close();
    assert!(sched.next_job().is_none(), "closed queue drains to None");
}

/// End-to-end over TCP: submit a sharded campaign to a live daemon,
/// kill one worker mid-run, watch crash-only recovery re-queue it, and
/// verify the final merged streams are byte-identical to an independent
/// single-process run of the same submission.
#[test]
fn daemon_end_to_end_with_mid_run_kill() {
    let data_dir = temp_dir("daemon");
    let daemon = Daemon::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.clone(),
        executors: 2,
    })
    .unwrap();
    let addr = daemon.addr().to_string();

    let mut sub = submission();
    sub.injections = 30;
    sub.shards = 2;
    let reply = client::submit(&addr, &sub).unwrap();
    let id = reply.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(reply.get("shards").and_then(Json::as_u64), Some(2));
    assert_eq!(reply.get("total_tasks").and_then(Json::as_u64), Some(60));

    // Fleet view knows the campaign.
    let fleet = client::status(&addr).unwrap();
    let listed = fleet.get("campaigns").and_then(Json::as_array).unwrap();
    assert!(listed
        .iter()
        .any(|c| c.get("id").and_then(Json::as_u64) == Some(id)));

    // Kill shard 0 the moment we observe it running. Polling starts
    // before the executor can get far, so the kill lands mid-run.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "shard 0 never reached running");
        let detail = client::campaign(&addr, id).unwrap();
        let states = detail.get("shard_states").and_then(Json::as_array).unwrap();
        match states[0].get("status").and_then(Json::as_str) {
            Some("running") => {
                client::kill(&addr, id, 0).unwrap();
                break;
            }
            Some("done") => panic!("shard 0 finished before the kill could land"),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }

    let detail = client::wait_settled(
        &addr,
        id,
        Duration::from_millis(10),
        Duration::from_secs(300),
    )
    .unwrap();
    assert_eq!(
        detail.get("status").and_then(Json::as_str),
        Some("done"),
        "{detail}"
    );
    let states = detail.get("shard_states").and_then(Json::as_array).unwrap();
    assert_eq!(
        states[0].get("attempts").and_then(Json::as_u64),
        Some(2),
        "the killed shard must have been recovered on a second attempt"
    );
    assert_eq!(states[1].get("attempts").and_then(Json::as_u64), Some(1));

    // The daemon's merged streams equal an independent single-process
    // run of the very same submission.
    let prepared = prepare(&sub).unwrap();
    let reference = Streams::reference(&data_dir);
    run_campaign(
        &prepared.cells(),
        &prepared.cfg,
        &reference.opts(&prepared, false),
    )
    .unwrap();
    let cdir = data_dir.join(format!("c{id}"));
    assert_eq!(
        read(&aggregate::merged_path(&cdir, "records")),
        read(&reference.records),
        "daemon-merged record bytes"
    );
    assert_eq!(
        read(&aggregate::merged_path(&cdir, "divergence")),
        read(&reference.divergence),
        "daemon-merged divergence bytes"
    );

    // The report endpoint serves the merged campaign.
    let report = client::report(&addr, id).unwrap();
    let cells = report.get("cells").and_then(Json::as_array).unwrap();
    assert_eq!(cells.len(), 2);
    assert_eq!(
        report.get("seed").and_then(Json::as_u64),
        Some(sub.seed),
        "{report}"
    );

    // Bad requests fail cleanly, not fatally.
    assert!(client::campaign(&addr, 999).is_err());
    assert!(client::report(&addr, 999).is_err());

    client::shutdown(&addr).unwrap();
    daemon.join();
}

/// Shard and thread counts are bounded where a submission enters: an
/// absurd count is a 400 from the submit endpoint, not an attempt to
/// allocate a shard spec per shard on the accept thread.
#[test]
fn oversized_shard_and_thread_counts_are_refused_at_submit() {
    let data_dir = temp_dir("bounds");
    let daemon = Daemon::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        data_dir,
        executors: 1,
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let body = |key: &str, n: &str| {
        let mut sub = submission();
        sub.source = TINY.into();
        let Json::Obj(mut fields) = sub.to_json() else {
            panic!("a submission is an object")
        };
        for (k, v) in &mut fields {
            if k == key {
                *v = Json::Num(n.into());
            }
        }
        Json::Obj(fields)
    };
    for (key, n) in [
        ("shards", "1000000000000".to_string()),
        ("shards", (prepare::MAX_SHARDS + 1).to_string()),
        ("threads", u64::MAX.to_string()),
        ("threads", (prepare::MAX_THREADS + 1).to_string()),
    ] {
        let (status, reply) =
            http::request(&addr, "POST", "/api/submit", Some(&body(key, &n))).unwrap();
        assert_eq!(status, 400, "{key}={n}: {reply}");
        let err = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(err.contains(key), "{key}={n}: {err}");
    }
    // At the limits the submission decodes; a small one still runs.
    let at_max = |key: &str, max: u64| Submission::from_json(&body(key, &max.to_string()));
    assert_eq!(
        at_max("shards", prepare::MAX_SHARDS).unwrap().shards as u64,
        prepare::MAX_SHARDS
    );
    assert_eq!(
        at_max("threads", prepare::MAX_THREADS).unwrap().threads as u64,
        prepare::MAX_THREADS
    );
    let (status, reply) =
        http::request(&addr, "POST", "/api/submit", Some(&body("shards", "2"))).unwrap();
    assert_eq!(status, 200, "{reply}");

    client::shutdown(&addr).unwrap();
    daemon.join();
}
