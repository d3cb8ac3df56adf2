//! The campaign queue and shard state machine.
//!
//! One [`Scheduler`] holds every submitted campaign. Each campaign is
//! split into [`fiq_core::ShardSpec`] ranges at submit time; the shards
//! enter a priority queue (highest priority first, FIFO within a
//! priority, shard order within a campaign) and executor threads claim
//! them via [`Scheduler::next_job`], which blocks until work or
//! shutdown.
//!
//! ## Crash-only recovery
//!
//! A shard that fails — a worker killed via the cancellation flag, or
//! any engine error — is re-queued with `resume` set. The engine's own
//! stream reconciliation then trims the shard's spools to the minimum
//! consistent prefix and re-executes only the lost suffix; there is no
//! separate recovery protocol to get wrong. [`MAX_ATTEMPTS`] bounds the
//! retry loop so a deterministically failing shard fails its campaign
//! instead of spinning.

use crate::prepare::Prepared;
use fiq_core::json::Json;
use fiq_core::{CampaignPlan, ShardSpec};
use std::collections::{BTreeMap, BinaryHeap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Attempts (initial run + retries) a shard gets before its campaign is
/// marked failed.
pub const MAX_ATTEMPTS: u32 = 5;

/// Lifecycle of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    Queued,
    Running,
    Done,
    Failed,
}

/// Lifecycle of one campaign. `Merging` covers the aggregation pass
/// after the last shard drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    Queued,
    Running,
    Merging,
    Done,
    Failed,
}

impl CampaignStatus {
    /// Lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            CampaignStatus::Queued => "queued",
            CampaignStatus::Running => "running",
            CampaignStatus::Merging => "merging",
            CampaignStatus::Done => "done",
            CampaignStatus::Failed => "failed",
        }
    }
}

struct ShardState {
    spec: ShardSpec,
    status: ShardStatus,
    attempts: u32,
    error: Option<String>,
    /// Raised to cancel the shard's current run at the next task
    /// boundary (crash simulation and kill requests alike).
    cancel: Arc<AtomicBool>,
}

struct Campaign {
    name: String,
    priority: u64,
    prepared: Arc<Prepared>,
    plan: Arc<CampaignPlan>,
    dir: PathBuf,
    shards: Vec<ShardState>,
    status: CampaignStatus,
    error: Option<String>,
}

/// One claimed unit of work: everything an executor needs to run a
/// shard without touching the scheduler lock.
pub struct Job {
    pub campaign: u64,
    pub shard: usize,
    /// True from the second attempt on: resume from the shard's spools.
    pub resume: bool,
    pub cancel: Arc<AtomicBool>,
    pub prepared: Arc<Prepared>,
    pub plan: Arc<CampaignPlan>,
    pub spec: ShardSpec,
    pub dir: PathBuf,
}

/// The aggregation pass for a fully drained campaign, run by whichever
/// executor completed the last shard.
pub struct MergeJob {
    pub campaign: u64,
    pub prepared: Arc<Prepared>,
    pub plan: Arc<CampaignPlan>,
    pub dir: PathBuf,
}

struct Inner {
    campaigns: BTreeMap<u64, Campaign>,
    /// Max-heap keyed (priority, FIFO submit order, shard order). The
    /// `Reverse` wrappers turn "smaller submit seq / shard index first"
    /// into max-heap order.
    queue: BinaryHeap<(u64, std::cmp::Reverse<u64>, std::cmp::Reverse<usize>)>,
    next_id: u64,
    closed: bool,
}

/// The shared campaign queue; see the module docs.
pub struct Scheduler {
    inner: Mutex<Inner>,
    ready: Condvar,
}

/// Locks `m`, taking the guard of a poisoned lock too.
pub(crate) fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Default for Scheduler {
    fn default() -> Scheduler {
        Scheduler::new()
    }
}

impl Scheduler {
    pub fn new() -> Scheduler {
        Scheduler {
            inner: Mutex::new(Inner {
                campaigns: BTreeMap::new(),
                queue: BinaryHeap::new(),
                next_id: 1,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Registers a campaign, creates its spool directory, and queues
    /// every shard. Returns the campaign id.
    pub fn submit(
        &self,
        prepared: Arc<Prepared>,
        plan: Arc<CampaignPlan>,
        data_dir: &Path,
    ) -> Result<u64, String> {
        let specs = plan.shards(prepared.shards);
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Err("daemon is shutting down".into());
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let dir = data_dir.join(format!("c{id}"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create campaign dir {}: {e}", dir.display()))?;
        let shards = specs
            .into_iter()
            .map(|spec| ShardState {
                spec,
                status: ShardStatus::Queued,
                attempts: 0,
                error: None,
                cancel: Arc::new(AtomicBool::new(false)),
            })
            .collect::<Vec<_>>();
        let priority = prepared.priority;
        for si in 0..shards.len() {
            inner
                .queue
                .push((priority, std::cmp::Reverse(id), std::cmp::Reverse(si)));
        }
        inner.campaigns.insert(
            id,
            Campaign {
                name: prepared.name.clone(),
                priority,
                prepared,
                plan,
                dir,
                shards,
                status: CampaignStatus::Queued,
                error: None,
            },
        );
        drop(inner);
        self.ready.notify_all();
        Ok(id)
    }

    /// Blocks until a shard is ready (returning its [`Job`]) or the
    /// scheduler is closed (returning `None`).
    pub fn next_job(&self) -> Option<Job> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some((_, std::cmp::Reverse(id), std::cmp::Reverse(si))) = inner.queue.pop() {
                let Some(c) = inner.campaigns.get_mut(&id) else {
                    continue;
                };
                let sh = &mut c.shards[si];
                if sh.status != ShardStatus::Queued {
                    continue;
                }
                sh.status = ShardStatus::Running;
                let resume = sh.attempts > 0;
                sh.attempts += 1;
                sh.cancel.store(false, Ordering::Relaxed);
                if c.status == CampaignStatus::Queued {
                    c.status = CampaignStatus::Running;
                }
                return Some(Job {
                    campaign: id,
                    shard: si,
                    resume,
                    cancel: Arc::clone(&sh.cancel),
                    prepared: Arc::clone(&c.prepared),
                    plan: Arc::clone(&c.plan),
                    spec: sh.spec,
                    dir: c.dir.clone(),
                });
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Records a shard attempt's outcome. A failure below
    /// [`MAX_ATTEMPTS`] re-queues the shard with resume set (crash-only
    /// recovery); at the cap it fails the campaign. When the last shard
    /// drains, the campaign moves to `Merging` and the caller receives
    /// the [`MergeJob`] to run.
    pub fn complete(
        &self,
        campaign: u64,
        shard: usize,
        result: Result<(), String>,
    ) -> Option<MergeJob> {
        let mut inner = lock(&self.inner);
        let c = inner.campaigns.get_mut(&campaign)?;
        match result {
            Ok(()) => {
                c.shards[shard].status = ShardStatus::Done;
                c.shards[shard].error = None;
                if c.shards.iter().all(|s| s.status == ShardStatus::Done) {
                    c.status = CampaignStatus::Merging;
                    return Some(MergeJob {
                        campaign,
                        prepared: Arc::clone(&c.prepared),
                        plan: Arc::clone(&c.plan),
                        dir: c.dir.clone(),
                    });
                }
            }
            Err(e) => {
                let sh = &mut c.shards[shard];
                sh.error = Some(e.clone());
                if sh.attempts < MAX_ATTEMPTS {
                    sh.status = ShardStatus::Queued;
                    let key = (
                        c.priority,
                        std::cmp::Reverse(campaign),
                        std::cmp::Reverse(shard),
                    );
                    inner.queue.push(key);
                    drop(inner);
                    self.ready.notify_all();
                    return None;
                }
                sh.status = ShardStatus::Failed;
                c.status = CampaignStatus::Failed;
                c.error = Some(format!("shard {shard}: {e}"));
            }
        }
        None
    }

    /// Records the aggregation pass's outcome, settling the campaign.
    pub fn finish_merge(&self, campaign: u64, result: Result<(), String>) {
        let mut inner = lock(&self.inner);
        if let Some(c) = inner.campaigns.get_mut(&campaign) {
            match result {
                Ok(()) => c.status = CampaignStatus::Done,
                Err(e) => {
                    c.status = CampaignStatus::Failed;
                    c.error = Some(format!("merge: {e}"));
                }
            }
        }
    }

    /// Raises a running shard's cancellation flag — the kill switch the
    /// CI smoke test and `POST /api/kill` use to simulate a worker
    /// crash. The shard fails with [`fiq_core::CANCELLED`] at its next
    /// task boundary and recovery re-queues it.
    pub fn kill(&self, campaign: u64, shard: usize) -> Result<(), String> {
        let inner = lock(&self.inner);
        let c = inner
            .campaigns
            .get(&campaign)
            .ok_or_else(|| format!("no campaign {campaign}"))?;
        let sh = c
            .shards
            .get(shard)
            .ok_or_else(|| format!("campaign {campaign} has no shard {shard}"))?;
        sh.cancel.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Closes the queue: `next_job` returns `None` once drained.
    pub fn close(&self) {
        lock(&self.inner).closed = true;
        self.ready.notify_all();
    }

    /// The campaign's spool directory, status, and divergence flag —
    /// what the report endpoint needs to read merged streams.
    pub fn campaign_paths(&self, id: u64) -> Option<(PathBuf, CampaignStatus, bool)> {
        let inner = lock(&self.inner);
        inner
            .campaigns
            .get(&id)
            .map(|c| (c.dir.clone(), c.status, c.prepared.divergence))
    }

    /// The `campaigns` list of `GET /api/status`: one summary object per
    /// campaign.
    pub fn campaigns_json(&self) -> Json {
        let inner = lock(&self.inner);
        Json::Arr(
            inner
                .campaigns
                .iter()
                .map(|(id, c)| summary_json(*id, c))
                .collect(),
        )
    }

    /// `GET /api/campaign/<id>`: the summary plus per-shard detail.
    pub fn campaign_json(&self, id: u64) -> Option<Json> {
        let inner = lock(&self.inner);
        let c = inner.campaigns.get(&id)?;
        let Json::Obj(mut fields) = summary_json(id, c) else {
            unreachable!("summary_json returns an object");
        };
        let shards = c
            .shards
            .iter()
            .map(|s| {
                let mut f = vec![
                    ("shard".into(), Json::u64(s.spec.index as u64)),
                    ("task_lo".into(), Json::u64(s.spec.lo as u64)),
                    ("task_hi".into(), Json::u64(s.spec.hi as u64)),
                    (
                        "status".into(),
                        Json::str(match s.status {
                            ShardStatus::Queued => "queued",
                            ShardStatus::Running => "running",
                            ShardStatus::Done => "done",
                            ShardStatus::Failed => "failed",
                        }),
                    ),
                    ("attempts".into(), Json::u64(u64::from(s.attempts))),
                ];
                if let Some(e) = &s.error {
                    f.push(("error".into(), Json::str(e.clone())));
                }
                Json::Obj(f)
            })
            .collect();
        // The summary already carries a `shards` *count*, and `get`
        // returns the first match — so the per-shard array needs its
        // own key.
        fields.push(("shard_states".into(), Json::Arr(shards)));
        Some(Json::Obj(fields))
    }
}

fn summary_json(id: u64, c: &Campaign) -> Json {
    let done = c
        .shards
        .iter()
        .filter(|s| s.status == ShardStatus::Done)
        .count();
    let mut fields = vec![
        ("id".into(), Json::u64(id)),
        ("name".into(), Json::str(c.name.clone())),
        ("priority".into(), Json::u64(c.priority)),
        ("status".into(), Json::str(c.status.name())),
        ("shards_done".into(), Json::u64(done as u64)),
        ("shards".into(), Json::u64(c.shards.len() as u64)),
        ("total_tasks".into(), Json::u64(c.plan.total_tasks() as u64)),
    ];
    if let Some(e) = &c.error {
        fields.push(("error".into(), Json::str(e.clone())));
    }
    Json::Obj(fields)
}
