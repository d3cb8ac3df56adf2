//! Submission parsing and campaign preparation.
//!
//! A [`Submission`] is the one campaign spec, for `fiq campaign` and the
//! daemon alike: inline Mini-C source (or a bundled workload name the
//! client resolved), the injection category, and the budget/mode knobs,
//! built from JSON or from flags by [`Submission::build`]. [`prepare`]
//! turns it into a [`Prepared`] — *owned* compile/profile/snapshot
//! artifacts the daemon keeps alive for the campaign's whole lifetime,
//! handing borrowed [`CellSpec`] views to each shard run. Preparation
//! happens once per campaign, not once per shard: the plan drawn from
//! these artifacts is what makes every shard's records byte-compatible.

use fiq_asm::{AsmProgram, MachOptions};
use fiq_core::json::Json;
use fiq_core::{
    profile_llfi, profile_llfi_with_snapshots, profile_pinfi, profile_pinfi_with_snapshots,
    CampaignConfig, Category, CellSpec, Collapse, LlfiProfile, PinfiProfile, SnapshotCache,
    Substrate,
};
use fiq_interp::InterpOptions;
use fiq_ir::Module;
use std::sync::Arc;

/// Most shards one submission may ask for. The plan allocates one shard
/// spec per shard on the accept thread, so the count is bounded before
/// anything is built from it.
pub const MAX_SHARDS: u64 = 1024;

/// Most worker threads per shard executor one submission may ask for.
pub const MAX_THREADS: u64 = 1024;

/// Most injections per cell one submission may ask for: the plan holds
/// one task per injection per cell, so the count is bounded before
/// anything is planned. The same per-cell bound exact collapse applies
/// to its fault space.
pub const MAX_INJECTIONS: u64 = fiq_core::MAX_EXACT_INSTANCES;

/// A campaign submission as it travels over the API.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Display name (workload or source-file stem); also the cell label.
    pub name: String,
    /// Mini-C source text. The client inlines file contents; bundled
    /// workload names are resolved on either side.
    pub source: String,
    /// Instruction category under injection.
    pub category: Category,
    /// Injections per cell under sampled planning.
    pub injections: u32,
    /// Campaign seed.
    pub seed: u64,
    /// Worker threads per shard executor (0 = auto).
    pub threads: usize,
    /// Shard count the campaign is split into.
    pub shards: usize,
    /// Queue priority: higher runs first (FIFO within a priority).
    pub priority: u64,
    /// Planning mode (sampled or exact collapse).
    pub collapse: Collapse,
    /// Capture per-injection divergence timelines.
    pub divergence: bool,
    /// Restore profiling checkpoints instead of replaying golden
    /// prefixes (output-invariant; wall-clock only).
    pub fast_forward: bool,
}

/// Parses a category name as the CLI spells it.
pub fn parse_category(s: &str) -> Result<Category, String> {
    Category::ALL
        .into_iter()
        .find(|c| c.name() == s)
        .ok_or_else(|| format!("unknown category `{s}`"))
}

/// Where a submission's knobs come from: the JSON wire form or the `fiq`
/// command line. A lookup is `Ok(None)` (or `false`) when the knob is
/// absent and an error naming the knob when it is malformed.
pub trait Knobs {
    /// A text knob (`category`, `collapse`).
    fn text(&self, key: &str) -> Result<Option<&str>, String>;
    /// A non-negative integer knob.
    fn number(&self, key: &str) -> Result<Option<u64>, String>;
    /// A boolean knob (`divergence`, `fast_forward`).
    fn switch(&self, key: &str) -> Result<bool, String>;
}

impl Knobs for Json {
    fn text(&self, key: &str) -> Result<Option<&str>, String> {
        typed(self, key, "a string", Json::as_str)
    }

    fn number(&self, key: &str) -> Result<Option<u64>, String> {
        typed(self, key, "a non-negative integer", Json::as_u64)
    }

    fn switch(&self, key: &str) -> Result<bool, String> {
        let as_bool = |j: &Json| match j {
            Json::Bool(b) => Some(*b),
            _ => None,
        };
        Ok(typed(self, key, "a boolean", as_bool)?.unwrap_or(false))
    }
}

impl Submission {
    /// The one campaign spec builder: `knobs` over the defaults, with
    /// every count checked against its limit before anything is compiled
    /// or planned. Only the thread default depends on the caller.
    pub fn build(
        name: String,
        source: String,
        knobs: &impl Knobs,
        default_threads: u64,
    ) -> Result<Submission, String> {
        let category = match knobs.text("category")? {
            Some(s) => parse_category(s)?,
            None => Category::All,
        };
        let collapse = match knobs.text("collapse")? {
            Some(s) => Collapse::parse(s)
                .ok_or_else(|| format!("unknown collapse mode `{s}` (sampled|exact)"))?,
            None => Collapse::Sampled,
        };
        let bounded = |key: &str, default: u64, max: u64| -> Result<u64, String> {
            let n = knobs.number(key)?.unwrap_or(default);
            if n > max {
                return Err(format!("`{key}` is {n}, above the limit of {max}"));
            }
            Ok(n)
        };
        let injections = bounded("injections", 200, MAX_INJECTIONS)?;
        let threads = bounded("threads", default_threads, MAX_THREADS)?;
        let shards = bounded("shards", 1, MAX_SHARDS)?;
        Ok(Submission {
            name,
            source,
            category,
            injections: u32::try_from(injections).expect("MAX_INJECTIONS fits in u32"),
            seed: knobs.number("seed")?.unwrap_or(42),
            threads: usize::try_from(threads).expect("MAX_THREADS fits in usize"),
            shards: usize::try_from(shards)
                .expect("MAX_SHARDS fits in usize")
                .max(1),
            priority: knobs.number("priority")?.unwrap_or(0),
            collapse,
            divergence: knobs.switch("divergence")?,
            fast_forward: knobs.switch("fast_forward")?,
        })
    }

    /// The wire form sent to `POST /api/submit`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(self.name.clone())),
            ("source".into(), Json::str(self.source.clone())),
            ("category".into(), Json::str(self.category.name())),
            ("injections".into(), Json::u64(u64::from(self.injections))),
            ("seed".into(), Json::u64(self.seed)),
            ("threads".into(), Json::u64(self.threads as u64)),
            ("shards".into(), Json::u64(self.shards as u64)),
            ("priority".into(), Json::u64(self.priority)),
            (
                "collapse".into(),
                Json::str(match self.collapse {
                    Collapse::Sampled => "sampled",
                    Collapse::Exact => "exact",
                }),
            ),
            ("divergence".into(), Json::Bool(self.divergence)),
            ("fast_forward".into(), Json::Bool(self.fast_forward)),
        ])
    }

    /// Parses the wire form; absent knobs take their defaults. A knob of
    /// the wrong JSON type, or a count above its limit, is an error.
    pub fn from_json(v: &Json) -> Result<Submission, String> {
        let name = v.text("name")?.ok_or("submission missing `name`")?;
        let source = match v.text("source")? {
            Some(s) => s,
            None => {
                fiq_workloads::by_name(name)
                    .ok_or_else(|| {
                        format!("submission has no `source` and `{name}` is not a bundled workload")
                    })?
                    .source
            }
        };
        Submission::build(name.to_string(), source.to_string(), v, 1)
    }
}

/// Reads `key` from a submission object through `get`: `Ok(None)` when
/// absent, an error naming the key and the expected `kind` when present
/// with another JSON type.
fn typed<'a, T>(
    v: &'a Json,
    key: &str,
    kind: &str,
    get: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => get(x)
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be {kind}")),
    }
}

/// Owned campaign artifacts: everything a shard run borrows, kept alive
/// by the daemon for the campaign's lifetime.
pub struct Prepared {
    /// Cell label and display name.
    pub name: String,
    /// Category both cells inject into.
    pub category: Category,
    /// Engine configuration shared by every shard.
    pub cfg: CampaignConfig,
    /// Planning mode.
    pub collapse: Collapse,
    /// Whether shard runs stream divergence timelines.
    pub divergence: bool,
    /// Fast-forward through profiling checkpoints.
    pub fast_forward: bool,
    /// Early-exit at converged checkpoints: on exactly when snapshots
    /// exist.
    pub early_exit: bool,
    /// Shard count the campaign is split into.
    pub shards: usize,
    /// Queue priority carried over from the submission.
    pub priority: u64,
    module: Module,
    prog: AsmProgram,
    llfi_profile: LlfiProfile,
    pinfi_profile: PinfiProfile,
    llfi_snaps: Option<Arc<SnapshotCache>>,
    pinfi_snaps: Option<Arc<SnapshotCache>>,
}

impl Prepared {
    /// The two-cell (LLFI × PINFI) grid every shard runs, borrowing
    /// this campaign's owned artifacts. Must be identical for planning
    /// and for every shard run — it is, because it is derived from the
    /// same owned state every time.
    pub fn cells(&self) -> Vec<CellSpec<'_>> {
        vec![
            CellSpec {
                label: self.name.clone(),
                category: self.category,
                substrate: Substrate::Llfi {
                    module: &self.module,
                    profile: &self.llfi_profile,
                },
                snapshots: self.llfi_snaps.clone(),
            },
            CellSpec {
                label: self.name.clone(),
                category: self.category,
                substrate: Substrate::Pinfi {
                    prog: &self.prog,
                    profile: &self.pinfi_profile,
                },
                snapshots: self.pinfi_snaps.clone(),
            },
        ]
    }
}

/// Compiles, lowers, profiles, and (when divergence or fast-forward ask
/// for checkpoints) snapshots a submission: the once-per-campaign
/// expensive half that both `fiq campaign` and the daemon run before the
/// engine.
pub fn prepare(sub: &Submission) -> Result<Prepared, String> {
    let mut module = fiq_frontend::compile(&sub.name, &sub.source).map_err(|e| e.to_string())?;
    fiq_opt::optimize_module(&mut module);
    let prog = fiq_backend::lower_module(&module, fiq_backend::LowerOptions::default())
        .map_err(|e| e.to_string())?;
    let (lopts, mopts) = (InterpOptions::default(), MachOptions::default());
    let want_snapshots = sub.fast_forward || sub.divergence;
    let (llfi_profile, pinfi_profile, llfi_snaps, pinfi_snaps) = if want_snapshots {
        // Auto interval: 64 evenly spaced checkpoints across the golden
        // run. A hook-free run learns its length; the snapshot run is
        // the profile.
        let interval = |steps: u64| (steps / 64).max(1);
        let l_run = fiq_interp::run_module(&module, lopts).map_err(|e| e.to_string())?;
        let p_run = fiq_asm::run_program(&prog, mopts).map_err(|e| e.to_string())?;
        let (lp, ls) = profile_llfi_with_snapshots(&module, lopts, interval(l_run.steps))?;
        let (pp, ps) = profile_pinfi_with_snapshots(&prog, mopts, interval(p_run.steps))?;
        (
            lp,
            pp,
            Some(Arc::new(SnapshotCache::Llfi(ls))),
            Some(Arc::new(SnapshotCache::Pinfi(ps))),
        )
    } else {
        (
            profile_llfi(&module, lopts)?,
            profile_pinfi(&prog, mopts)?,
            None,
            None,
        )
    };
    Ok(Prepared {
        name: sub.name.clone(),
        category: sub.category,
        cfg: CampaignConfig {
            injections: sub.injections,
            seed: sub.seed,
            threads: sub.threads,
            ..CampaignConfig::default()
        },
        collapse: sub.collapse,
        divergence: sub.divergence,
        fast_forward: sub.fast_forward,
        early_exit: want_snapshots,
        shards: sub.shards,
        priority: sub.priority,
        module,
        prog,
        llfi_profile,
        pinfi_profile,
        llfi_snaps,
        pinfi_snaps,
    })
}
