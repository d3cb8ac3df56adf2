//! The campaign service: sharded execution must be a pure refactoring
//! of the single-process run. The merge determinism matrix (shards ×
//! threads → byte-identical records/divergence, identical report JSON,
//! identical deterministic telemetry), crash-only recovery at shard
//! granularity (a cancelled shard resumes into the same bytes), the
//! minimum-consistent-prefix reconciliation across all three streams
//! after a torn shutdown, the scheduler's priority queue, and the
//! daemon end-to-end over its TCP JSON API — submit, observe, kill a
//! worker mid-run, recover, and report — and a stalling client that
//! must not block it.

use fiq_core::json::Json;
use fiq_core::{
    plan_campaign, run_campaign, run_campaign_shard, CampaignPlan, CampaignReport, EngineOptions,
    Progress, CANCELLED,
};
use fiq_serve::http::REQUEST_TIMEOUT;
use fiq_serve::{aggregate, client, http, prepare, Daemon, Scheduler, ServeOptions, Submission};
use std::io::{Read, Write};
use std::net::TcpStream;
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

/// Runs the suite's campaign as two shards into fresh spools under
/// `dir` and returns what the merge needs.
fn two_shard_spools(dir: &Path) -> (prepare::Prepared, CampaignPlan) {
    let mut prepared = prepare(&submission()).unwrap();
    prepared.shards = 2;
    let plan = {
        let cells = prepared.cells();
        plan_campaign(&cells, &prepared.cfg, prepared.collapse).unwrap()
    };
    for spec in plan.shards(2) {
        let streams = Streams::shard(dir, spec.index);
        let cells = prepared.cells();
        let opts = streams.opts(&prepared, false);
        run_campaign_shard(&cells, &prepared.cfg, &opts, &plan, spec).unwrap();
    }
    (prepared, plan)
}

/// A shard spool cut short — mid-line or at a line boundary — must not
/// merge: the merged stream would silently miss a task.
#[test]
fn merge_rejects_a_truncated_shard_spool() {
    let dir = temp_dir("merge-truncated");
    let (prepared, plan) = two_shard_spools(&dir);
    let spool = aggregate::shard_path(&dir, "records", 0);
    let full = read(&spool);
    let last_line = full.trim_end().rfind('\n').unwrap() + 1;
    for cut in [full.len() - 10, last_line] {
        std::fs::write(&spool, &full[..cut]).unwrap();
        let err = aggregate::merge_campaign(&prepared, &plan, &dir).unwrap_err();
        assert!(err.contains("shard-0.records"), "cut at {cut}: {err}");
    }
}

/// A shard spool with a line beyond its task range must not merge: the
/// merged stream would repeat a task.
#[test]
fn merge_rejects_a_shard_spool_with_an_appended_line() {
    let dir = temp_dir("merge-appended");
    let (prepared, plan) = two_shard_spools(&dir);
    let spool = aggregate::shard_path(&dir, "divergence", 1);
    let full = read(&spool);
    let last = full.lines().last().unwrap();
    std::fs::write(&spool, format!("{full}{last}\n")).unwrap();
    let err = aggregate::merge_campaign(&prepared, &plan, &dir).unwrap_err();
    assert!(err.contains("shard-1.divergence"), "{err}");
}

/// A telemetry spool with a value missing must not merge: reading it as
/// zero would hand the report a stream with wrong numbers.
#[test]
fn merge_rejects_a_telemetry_spool_with_a_missing_value() {
    let dir = temp_dir("merge-tel-value");
    let (prepared, plan) = two_shard_spools(&dir);
    let spool = aggregate::shard_path(&dir, "telemetry", 1);
    let full = read(&spool);
    let line = full
        .lines()
        .find(|l| l.contains(r#""scope":"cell""#) && l.contains(r#""name":"steps_executed""#))
        .expect("a cell steps_executed counter line");
    let value = line.rfind(r#","value":"#).unwrap();
    let damaged = format!("{}}}", &line[..value]);
    std::fs::write(&spool, full.replacen(line, &damaged, 1)).unwrap();
    let err = aggregate::merge_campaign(&prepared, &plan, &dir).unwrap_err();
    assert!(err.contains("shard-1.telemetry"), "{err}");
    assert!(err.contains("value"), "{err}");
}

/// Telemetry spools swapped between shards must not merge, just as
/// swapped record and divergence spools do not: each spool's header
/// names its shard.
#[test]
fn merge_rejects_swapped_telemetry_spools() {
    let dir = temp_dir("merge-tel-swap");
    let (prepared, plan) = two_shard_spools(&dir);
    let (a, b) = (
        aggregate::shard_path(&dir, "telemetry", 0),
        aggregate::shard_path(&dir, "telemetry", 1),
    );
    let (text_a, text_b) = (read(&a), read(&b));
    std::fs::write(&a, text_b).unwrap();
    std::fs::write(&b, text_a).unwrap();
    let err = aggregate::merge_campaign(&prepared, &plan, &dir).unwrap_err();
    assert!(err.contains("shard-0.telemetry"), "{err}");
}

/// Satellite regression: a run killed between flushes leaves the three
/// streams torn to *different* lengths. Resume must reconcile them to
/// the minimum consistent prefix — records and divergence trimmed to
/// the same task count, telemetry started afresh under its header — and
/// re-execute the rest into byte-identical streams.
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
    // divergence through task 4, and, as in a real crash, telemetry with
    // no end-of-run lines yet.
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
    std::fs::write(&torn.telemetry, keep(&read(&reference.telemetry), 0)).unwrap();

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

    // Telemetry: the summary counts the whole range, the kept prefix as
    // resumed.
    let text = read(&torn.telemetry);
    let mut summary_done = None;
    for line in text.lines().skip(1) {
        let v = Json::parse(line).unwrap();
        if v.get("record").and_then(Json::as_str) == Some("summary") {
            summary_done = v.get("done").and_then(Json::as_u64);
            assert_eq!(v.get("resumed").and_then(Json::as_u64), Some(5));
        }
    }
    assert_eq!(summary_done, Some(TASKS as u64));

    // The reconciled stream joins cleanly into a report (the cross-check
    // `Σ cell tasks == done - resumed` holds after reconciliation).
    CampaignReport::build(&torn.records, Some(&torn.telemetry), None).unwrap();
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

/// The daemon builds one artifact set per program and reuses it for
/// every later submission of the same name, source and checkpoint mode
/// while a campaign holds it: other seeds and categories reuse it, and
/// another checkpoint mode or another source under the same name builds
/// anew. Each campaign still merges to the bytes of an in-process run
/// over a fresh `prepare` of its own submission.
#[test]
fn repeated_programs_share_one_preparation() {
    let data_dir = temp_dir("reuse");
    let daemon = Daemon::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.clone(),
        executors: 2,
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let base = Submission {
        shards: 2,
        ..submission()
    };
    let subs = [
        (
            Submission {
                seed: 1,
                ..base.clone()
            },
            (1, 0),
        ),
        (
            Submission {
                seed: 2,
                ..base.clone()
            },
            (1, 1),
        ),
        (
            Submission {
                category: fiq_core::Category::Cmp,
                ..base.clone()
            },
            (1, 2),
        ),
        (
            Submission {
                divergence: false,
                fast_forward: false,
                ..base.clone()
            },
            (2, 2),
        ),
        (
            Submission {
                source: KERNEL.replace("3 + r", "5 + r"),
                ..base.clone()
            },
            (3, 2),
        ),
    ];
    let mut ids = Vec::new();
    for (i, (sub, (built, reused))) in subs.iter().enumerate() {
        ids.push(
            client::submit(&addr, sub)
                .unwrap()
                .get("id")
                .and_then(Json::as_u64)
                .unwrap(),
        );
        let status = client::status(&addr).unwrap();
        let prep = |k: &str| {
            status
                .get("preparations")
                .and_then(|p| p.get(k))
                .and_then(Json::as_u64)
        };
        assert_eq!(
            (prep("built"), prep("reused")),
            (Some(*built), Some(*reused)),
            "after submission {i}: {status}"
        );
    }

    for ((sub, _), id) in subs.iter().zip(ids) {
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
        let prepared = prepare(sub).unwrap();
        let dir = data_dir.join(format!("ref{id}"));
        std::fs::create_dir_all(&dir).unwrap();
        let reference = Streams::reference(&dir);
        let opts = EngineOptions {
            divergence: sub.divergence.then_some(reference.divergence.as_path()),
            ..reference.opts(&prepared, false)
        };
        run_campaign(&prepared.cells(), &prepared.cfg, &opts).unwrap();
        let cdir = data_dir.join(format!("c{id}"));
        assert_eq!(
            read(&aggregate::merged_path(&cdir, "records")),
            read(&reference.records),
            "campaign {id}: records"
        );
        if sub.divergence {
            assert_eq!(
                read(&aggregate::merged_path(&cdir, "divergence")),
                read(&reference.divergence),
                "campaign {id}: divergence"
            );
        }
    }

    client::shutdown(&addr).unwrap();
    daemon.join();
}

/// With checkpoints on, `prepare` keeps the profile its snapshot run
/// records instead of profiling the golden run a second time. That
/// profile must equal a plain profiling run exactly: `golden_steps` fixes
/// the checkpoint positions that divergence timelines encode.
#[test]
fn prepared_snapshot_profiles_equal_plain_profiles() {
    use fiq_core::{profile_llfi, profile_pinfi, Substrate};
    let programs = std::iter::once(("kernel", KERNEL))
        .chain(fiq_workloads::CATALOG.iter().map(|w| (w.name, w.source)));
    for (name, source) in programs {
        let prepared = prepare(&Submission {
            name: name.into(),
            source: source.into(),
            fast_forward: true,
            ..submission()
        })
        .unwrap();
        let cells = prepared.cells();
        assert!(cells.iter().all(|c| c.snapshots.is_some()), "{name}");
        let Substrate::Llfi { module, profile } = cells[0].substrate else {
            panic!("cell 0 is LLFI")
        };
        let plain = profile_llfi(module, fiq_interp::InterpOptions::default()).unwrap();
        assert_eq!(
            (
                profile.golden_steps,
                &profile.counts,
                &profile.golden_output
            ),
            (plain.golden_steps, &plain.counts, &plain.golden_output),
            "{name}: llfi"
        );
        let Substrate::Pinfi { prog, profile } = cells[1].substrate else {
            panic!("cell 1 is PINFI")
        };
        let plain = profile_pinfi(prog, fiq_asm::MachOptions::default()).unwrap();
        assert_eq!(
            (
                profile.golden_steps,
                &profile.counts,
                &profile.golden_output
            ),
            (plain.golden_steps, &plain.counts, &plain.golden_output),
            "{name}: pinfi"
        );
    }
}

/// Shard, thread and injection counts are bounded where a submission
/// enters: an absurd count is a 400 from the submit endpoint, not an
/// attempt to allocate a shard spec per shard on the accept thread or a
/// task per injection in the plan. A known key of the wrong JSON type
/// is a 400 too, not a silent default.
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
    let with = |key: &str, value: Json| {
        let mut sub = submission();
        sub.source = TINY.into();
        let Json::Obj(mut fields) = sub.to_json() else {
            panic!("a submission is an object")
        };
        for (k, v) in &mut fields {
            if k == key {
                *v = value.clone();
            }
        }
        Json::Obj(fields)
    };
    let body = |key: &str, n: &str| with(key, Json::Num(n.into()));
    let num = |n: u64| Json::Num(n.to_string());
    for (key, value) in [
        ("shards", Json::Num("1000000000000".into())),
        ("shards", num(prepare::MAX_SHARDS + 1)),
        ("threads", num(u64::MAX)),
        ("threads", num(prepare::MAX_THREADS + 1)),
        ("injections", num(4_000_000_000)),
        ("injections", num(prepare::MAX_INJECTIONS + 1)),
        ("injections", Json::str("500")),
        ("seed", Json::Bool(true)),
        ("divergence", Json::str("yes")),
        ("fast_forward", num(1)),
        ("category", num(3)),
        ("collapse", Json::Null),
        ("source", Json::Arr(vec![])),
    ] {
        let sent = with(key, value.clone());
        let (status, reply) = http::request(&addr, "POST", "/api/submit", Some(&sent)).unwrap();
        assert_eq!(status, 400, "{key}={value}: {reply}");
        let err = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(err.contains(key), "{key}={value}: {err}");
    }
    // At the limits the submission decodes; a small one still runs.
    let at_max = |key: &str, max: u64| Submission::from_json(&body(key, &max.to_string()));
    assert_eq!(
        u64::from(
            at_max("injections", prepare::MAX_INJECTIONS)
                .unwrap()
                .injections
        ),
        prepare::MAX_INJECTIONS
    );
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

/// The accept loop serves one connection at a time, so a client that
/// connects and sends nothing, or trickles a request one byte at a time,
/// must be cut off at the request deadline rather than stall every later
/// request. The status request waits on a channel with its own deadline,
/// so a daemon without one fails this test instead of hanging it.
#[test]
fn a_stalling_client_does_not_stall_the_daemon() {
    let daemon = Daemon::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        data_dir: temp_dir("stall"),
        executors: 1,
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    for trickle in [false, true] {
        let mut stalled = TcpStream::connect(&addr).unwrap();
        // Each byte comes well within the deadline of the one before.
        let trickler = trickle.then(|| {
            let mut w = stalled.try_clone().unwrap();
            std::thread::spawn(move || {
                for b in b"GET /api/status HTTP/1.1\r\n" {
                    if w.write_all(&[*b]).is_err() {
                        break;
                    }
                    std::thread::sleep(REQUEST_TIMEOUT / 4);
                }
            })
        });

        let started = Instant::now();
        let (tx, rx) = std::sync::mpsc::channel();
        let status_addr = addr.clone();
        let asker = std::thread::spawn(move || {
            let _ = tx.send(client::status(&status_addr));
        });
        let status = rx
            .recv_timeout(REQUEST_TIMEOUT * 10)
            .expect("status never answered while a client stalled");
        let waited = started.elapsed();
        asker.join().unwrap();
        assert!(status.is_ok(), "{status:?}");
        assert!(
            waited < REQUEST_TIMEOUT * 3,
            "trickle={trickle}: status took {waited:?} with a request deadline of {REQUEST_TIMEOUT:?}"
        );

        // The stalled client itself was answered as a malformed request.
        let mut reply = String::new();
        stalled.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
        if let Some(t) = trickler {
            t.join().unwrap();
        }
    }

    client::shutdown(&addr).unwrap();
    daemon.join();
}
