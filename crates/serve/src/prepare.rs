//! Submission parsing and campaign preparation.
//!
//! A [`Submission`] is the wire form of "run this campaign": inline
//! Mini-C source (or a bundled workload name the client resolved), the
//! injection category, and the budget/mode knobs. [`prepare`] turns it
//! into a [`Prepared`] — *owned* compile/profile/snapshot artifacts the
//! daemon keeps alive for the campaign's whole lifetime, handing
//! borrowed [`CellSpec`] views to each shard run. Preparation happens
//! once per campaign, not once per shard: the plan drawn from these
//! artifacts is what makes every shard's records byte-compatible.

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

impl Submission {
    /// A submission for a bundled workload with default knobs.
    pub fn for_workload(name: &str) -> Result<Submission, String> {
        let w = fiq_workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        Ok(Submission {
            name: name.to_string(),
            source: w.source.to_string(),
            category: Category::All,
            injections: 200,
            seed: 42,
            threads: 1,
            shards: 1,
            priority: 0,
            collapse: Collapse::Sampled,
            divergence: false,
            fast_forward: false,
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
        let string = |key: &str| typed(v, key, "a string", Json::as_str);
        let name = string("name")?
            .ok_or("submission missing `name`")?
            .to_string();
        let source = match string("source")? {
            Some(s) => s.to_string(),
            None => fiq_workloads::by_name(&name)
                .ok_or_else(|| {
                    format!("submission has no `source` and `{name}` is not a bundled workload")
                })?
                .source
                .to_string(),
        };
        let u = |key: &str, default: u64| -> Result<u64, String> {
            Ok(typed(v, key, "a non-negative integer", Json::as_u64)?.unwrap_or(default))
        };
        let flag = |key: &str| -> Result<bool, String> {
            let as_bool = |j: &Json| match j {
                Json::Bool(b) => Some(*b),
                _ => None,
            };
            Ok(typed(v, key, "a boolean", as_bool)?.unwrap_or(false))
        };
        let category = match string("category")? {
            Some(s) => parse_category(s)?,
            None => Category::All,
        };
        let collapse = match string("collapse")? {
            Some(s) => Collapse::parse(s).ok_or_else(|| format!("unknown collapse mode `{s}`"))?,
            None => Collapse::Sampled,
        };
        let bounded = |key: &str, default: u64, max: u64| -> Result<u64, String> {
            let n = u(key, default)?;
            if n > max {
                return Err(format!("`{key}` is {n}, above the limit of {max}"));
            }
            Ok(n)
        };
        let injections = bounded("injections", 200, MAX_INJECTIONS)?;
        let threads = bounded("threads", 1, MAX_THREADS)?;
        let shards = bounded("shards", 1, MAX_SHARDS)?;
        Ok(Submission {
            name,
            source,
            category,
            injections: u32::try_from(injections).expect("MAX_INJECTIONS fits in u32"),
            seed: u("seed", 42)?,
            threads: usize::try_from(threads).expect("MAX_THREADS fits in usize"),
            shards: usize::try_from(shards)
                .expect("MAX_SHARDS fits in usize")
                .max(1),
            priority: u("priority", 0)?,
            collapse,
            divergence: flag("divergence")?,
            fast_forward: flag("fast_forward")?,
        })
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
    /// Early-exit at converged checkpoints (on whenever snapshots
    /// exist, mirroring the CLI default).
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
/// for checkpoints) snapshots a submission — the once-per-campaign
/// expensive half, mirroring what `fiq campaign` does before calling
/// the engine.
pub fn prepare(sub: &Submission) -> Result<Prepared, String> {
    let mut module = fiq_frontend::compile(&sub.name, &sub.source).map_err(|e| e.to_string())?;
    fiq_opt::optimize_module(&mut module);
    let prog = fiq_backend::lower_module(&module, fiq_backend::LowerOptions::default())
        .map_err(|e| e.to_string())?;
    let llfi_profile = profile_llfi(&module, InterpOptions::default())?;
    let pinfi_profile = profile_pinfi(&prog, MachOptions::default())?;
    let want_snapshots = sub.fast_forward || sub.divergence;
    let (llfi_snaps, pinfi_snaps) = if want_snapshots {
        // Auto interval: 64 evenly spaced checkpoints across the golden
        // run, the same default as `fiq campaign`.
        let l_iv = (llfi_profile.golden_steps / 64).max(1);
        let p_iv = (pinfi_profile.golden_steps / 64).max(1);
        let (_, ls) = profile_llfi_with_snapshots(&module, InterpOptions::default(), l_iv)?;
        let (_, ps) = profile_pinfi_with_snapshots(&prog, MachOptions::default(), p_iv)?;
        (
            Some(Arc::new(SnapshotCache::Llfi(ls))),
            Some(Arc::new(SnapshotCache::Pinfi(ps))),
        )
    } else {
        (None, None)
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
