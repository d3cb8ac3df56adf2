//! The `fiq serve` daemon: accept loop, executor fleet, and API routing.
//!
//! One thread accepts connections and serves the JSON API; `executors`
//! threads block on the [`Scheduler`] and run shards through
//! [`fiq_core::run_campaign_shard`]. Whichever executor completes a
//! campaign's last shard runs the aggregation pass inline. Shutdown is
//! cooperative: `POST /api/shutdown` closes the queue (executors drain
//! and exit) and stops the accept loop.

use crate::aggregate;
use crate::http::{read_request, respond, Request};
use crate::prepare::{Preparations, Submission};
use crate::scheduler::{CampaignStatus, Job, Scheduler};
use fiq_core::json::Json;
use fiq_core::{plan_campaign, CampaignReport, EngineOptions};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Daemon configuration.
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Directory campaign spool directories are created under.
    pub data_dir: PathBuf,
    /// Executor (shard-running) threads.
    pub executors: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:4816".into(),
            data_dir: PathBuf::from("fiq-serve-data"),
            executors: 2,
        }
    }
}

struct ServeState {
    sched: Scheduler,
    /// Artifact sets shared by live campaigns over the same program.
    preparations: Preparations,
    data_dir: PathBuf,
    shutdown: AtomicBool,
}

/// A running daemon: the accept loop, its executor fleet, and the bound
/// address. Tests start one on port 0 and drive it over the API.
pub struct Daemon {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listener and spawns the accept loop plus executors.
    pub fn start(opts: &ServeOptions) -> Result<Daemon, String> {
        std::fs::create_dir_all(&opts.data_dir)
            .map_err(|e| format!("create data dir {}: {e}", opts.data_dir.display()))?;
        let listener =
            TcpListener::bind(&opts.addr).map_err(|e| format!("bind {}: {e}", opts.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let state = Arc::new(ServeState {
            sched: Scheduler::new(),
            preparations: Preparations::default(),
            data_dir: opts.data_dir.clone(),
            shutdown: AtomicBool::new(false),
        });
        let executors = (0..opts.executors.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || executor_loop(&state))
            })
            .collect();
        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_state));
        Ok(Daemon {
            addr,
            accept: Some(accept),
            executors,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for shutdown: the accept loop exits after serving
    /// `POST /api/shutdown`, then the executor fleet drains.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

/// Runs the daemon in the foreground until `POST /api/shutdown`.
pub fn serve(opts: &ServeOptions) -> Result<(), String> {
    let daemon = Daemon::start(opts)?;
    eprintln!("fiq serve: listening on {}", daemon.addr());
    daemon.join();
    Ok(())
}

fn accept_loop(listener: &TcpListener, state: &ServeState) {
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        handle_connection(&mut stream, state);
        if state.shutdown.load(Ordering::Relaxed) {
            break;
        }
    }
}

fn handle_connection(stream: &mut TcpStream, state: &ServeState) {
    let (status, body) = match read_request(stream) {
        Ok(req) => route(&req, state),
        Err(e) => (400, error_json(&e)),
    };
    let _ = respond(stream, status, &body);
}

fn error_json(msg: &str) -> Json {
    Json::Obj(vec![("error".into(), Json::str(msg))])
}

fn route(req: &Request, state: &ServeState) -> (u16, Json) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/api/submit") => api_submit(req, state),
        ("GET", "/api/status") => (200, status_json(state)),
        ("POST", "/api/kill") => api_kill(req, state),
        ("POST", "/api/shutdown") => {
            state.shutdown.store(true, Ordering::Relaxed);
            state.sched.close();
            (200, Json::Obj(vec![("ok".into(), Json::Bool(true))]))
        }
        ("GET", path) => {
            if let Some(id) = path.strip_prefix("/api/campaign/") {
                return api_campaign(id, state);
            }
            if let Some(id) = path.strip_prefix("/api/report/") {
                return api_report(id, state);
            }
            (404, error_json(&format!("no route for GET {path}")))
        }
        (m, p) => (404, error_json(&format!("no route for {m} {p}"))),
    }
}

fn api_submit(req: &Request, state: &ServeState) -> (u16, Json) {
    let Some(body) = &req.body else {
        return (400, error_json("submit requires a JSON body"));
    };
    let result = Submission::from_json(body)
        .and_then(|sub| state.preparations.prepare(&sub))
        .and_then(|prepared| {
            let cells = prepared.cells();
            let plan = plan_campaign(&cells, &prepared.cfg, prepared.collapse)?;
            drop(cells);
            let shards = prepared.shards;
            let total = plan.total_tasks();
            let id = state
                .sched
                .submit(Arc::new(prepared), Arc::new(plan), &state.data_dir)?;
            Ok((id, shards, total))
        });
    match result {
        Ok((id, shards, total)) => (
            200,
            Json::Obj(vec![
                ("id".into(), Json::u64(id)),
                ("shards".into(), Json::u64(shards as u64)),
                ("total_tasks".into(), Json::u64(total as u64)),
            ]),
        ),
        Err(e) => (400, error_json(&e)),
    }
}

/// `GET /api/status`: the campaign list plus the preparation counters.
fn status_json(state: &ServeState) -> Json {
    Json::Obj(vec![
        ("campaigns".into(), state.sched.campaigns_json()),
        ("preparations".into(), state.preparations.to_json()),
    ])
}

fn api_kill(req: &Request, state: &ServeState) -> (u16, Json) {
    let body = req.body.as_ref().unwrap_or(&Json::Null);
    let (Some(id), Some(shard)) = (
        body.get("id").and_then(Json::as_u64),
        body.get("shard").and_then(Json::as_u64),
    ) else {
        return (400, error_json("kill requires `id` and `shard`"));
    };
    match state.sched.kill(id, shard as usize) {
        Ok(()) => (200, Json::Obj(vec![("ok".into(), Json::Bool(true))])),
        Err(e) => (404, error_json(&e)),
    }
}

fn parse_id(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad campaign id {s:?}"))
}

fn api_campaign(id: &str, state: &ServeState) -> (u16, Json) {
    match parse_id(id).map(|id| state.sched.campaign_json(id)) {
        Ok(Some(v)) => (200, v),
        Ok(None) => (404, error_json(&format!("no campaign {id}"))),
        Err(e) => (400, error_json(&e)),
    }
}

fn api_report(id: &str, state: &ServeState) -> (u16, Json) {
    let id = match parse_id(id) {
        Ok(id) => id,
        Err(e) => return (400, error_json(&e)),
    };
    let Some((dir, status, divergence)) = state.sched.campaign_paths(id) else {
        return (404, error_json(&format!("no campaign {id}")));
    };
    if status != CampaignStatus::Done {
        return (
            409,
            error_json(&format!(
                "campaign {id} is {} (report requires `done`)",
                status.name()
            )),
        );
    }
    let records = aggregate::merged_path(&dir, "records");
    let telemetry = aggregate::merged_path(&dir, "telemetry");
    let div = divergence.then(|| aggregate::merged_path(&dir, "divergence"));
    match CampaignReport::build(&records, Some(&telemetry), div.as_deref()) {
        Ok(report) => (200, report.to_json()),
        Err(e) => (500, error_json(&e)),
    }
}

fn executor_loop(state: &ServeState) {
    while let Some(job) = state.sched.next_job() {
        let result = execute_shard(&job);
        if let Some(merge) = state.sched.complete(job.campaign, job.shard, result) {
            let r = aggregate::merge_campaign(&merge.prepared, &merge.plan, &merge.dir);
            state.sched.finish_merge(merge.campaign, r);
        }
    }
}

fn execute_shard(job: &Job) -> Result<(), String> {
    let cells = job.prepared.cells();
    let records = aggregate::shard_path(&job.dir, "records", job.shard);
    let telemetry = aggregate::shard_path(&job.dir, "telemetry", job.shard);
    let divergence = job
        .prepared
        .divergence
        .then(|| aggregate::shard_path(&job.dir, "divergence", job.shard));
    let opts = EngineOptions {
        records: Some(&records),
        telemetry: Some(&telemetry),
        divergence: divergence.as_deref(),
        resume: job.resume,
        fast_forward: job.prepared.fast_forward,
        early_exit: job.prepared.early_exit,
        progress: None,
        collapse: job.prepared.collapse,
        cancel: Some(&job.cancel),
    };
    fiq_core::run_campaign_shard(&cells, &job.prepared.cfg, &opts, &job.plan, job.spec).map(|_| ())
}
