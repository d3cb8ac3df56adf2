//! Campaign-as-a-service: the `fiq serve` daemon.
//!
//! The engine's scheduler/executor split ([`fiq_core::plan_campaign`] /
//! [`fiq_core::run_campaign_shard`]) makes any contiguous task range of a
//! planned campaign independently computable: planning is sequential and
//! deterministic, record and divergence lines carry *global* task
//! indices, and tallying is commutative. This crate builds the service
//! on top of that guarantee:
//!
//! * [`prepare`] — turns a JSON [`prepare::Submission`] (inline Mini-C
//!   source or bundled workload, category, budget knobs) into
//!   compile/profile/snapshot artifacts a daemon can keep alive across
//!   shard runs. The daemon's [`Preparations`] cache shares one artifact
//!   set among the live campaigns over the same program.
//! * [`scheduler`] — the priority campaign queue and per-shard state
//!   machine. Shards are queued highest-priority-first (FIFO within a
//!   priority), executors claim them as they free up, and a failed or
//!   cancelled shard is re-queued with `resume` set — crash-only
//!   recovery via the engine's own stream reconciliation, at shard
//!   granularity.
//! * [`aggregate`] — merges per-shard record/divergence spools by
//!   validated header-stripped concatenation (byte-identical to the
//!   single-process stream at any shard count) and per-shard telemetry
//!   with the telemetry codec's monoid merge
//!   (`fiq_core::telemetry::TelemetrySummary`: counters sum, histograms
//!   add bucketwise, the summary line totals add).
//! * [`http`] + [`daemon`] + [`client`] — a dependency-free HTTP/1.1
//!   JSON API over a local TCP socket (`POST /api/submit`,
//!   `GET /api/status`, `GET /api/campaign/<id>`, `GET /api/report/<id>`,
//!   `POST /api/kill`, `POST /api/shutdown`) and the thin client the
//!   `fiq submit` / `fiq status` / `fiq report --follow` subcommands
//!   call.
//!
//! ## Determinism contract
//!
//! Merged records and divergence streams are byte-identical to the
//! single-process run for every shard count, including after a shard is
//! killed mid-run and recovered. Telemetry merges as a monoid: every
//! deterministic channel (cell counters, the step-valued histograms,
//! summary totals) equals the single-process value; order-dependent
//! channels (wall-clock histograms, the steal distribution) are
//! inherently per-run and are reported as such.

pub mod aggregate;
pub mod client;
pub mod daemon;
pub mod http;
pub mod prepare;
pub mod scheduler;

pub use daemon::{serve, Daemon, ServeOptions};
pub use prepare::{parse_category, prepare, Knobs, Preparations, Prepared, Submission};
pub use scheduler::{CampaignStatus, Scheduler, ShardStatus, MAX_ATTEMPTS};
