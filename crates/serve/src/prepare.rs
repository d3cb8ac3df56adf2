//! Submission parsing and campaign preparation.
//!
//! A [`Submission`] is the one campaign spec, for `fiq campaign` and the
//! daemon alike: inline Mini-C source (or a bundled workload name the
//! client resolved), the injection category, and the budget/mode knobs,
//! built from JSON or from flags by [`Submission::build`]. [`prepare`]
//! turns it into a [`Prepared`]: the per-submission knobs over an
//! `Arc`-shared set of compile/profile/snapshot artifacts that the daemon
//! keeps alive for the campaign's whole lifetime, handing borrowed
//! [`CellSpec`] views to each shard run. Preparation happens once per
//! campaign, not once per shard: the plan drawn from these artifacts is
//! what makes every shard's records byte-compatible. The artifacts depend
//! only on the program and on whether checkpoints are captured, so the
//! daemon's [`Preparations`] cache lets every live campaign over the same
//! program share one set.

use crate::scheduler::lock;
use fiq_asm::{AsmProgram, MachOptions};
use fiq_core::json::Json;
use fiq_core::{
    profile_llfi, profile_llfi_with_snapshots, profile_pinfi, profile_pinfi_with_snapshots,
    CampaignConfig, Category, CellSpec, Collapse, LlfiProfile, PinfiProfile, SnapshotCache,
    Substrate,
};
use fiq_interp::InterpOptions;
use fiq_ir::Module;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};

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

/// One campaign: the per-submission knobs over an `Arc`-shared set of
/// artifacts the source determines (module, program, golden profiles,
/// snapshot caches). The daemon keeps it alive for the campaign's
/// lifetime and hands borrowed [`CellSpec`] views to each shard run.
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
    artifacts: Arc<Artifacts>,
}

/// What [`ArtifactKey`] determines: the compiled module and program,
/// both golden profiles and, when asked for, both snapshot caches. Every
/// campaign over the same key can share one set, whatever its category,
/// seed or budget.
struct Artifacts {
    module: Module,
    prog: AsmProgram,
    llfi_profile: LlfiProfile,
    pinfi_profile: PinfiProfile,
    llfi_snaps: Option<Arc<SnapshotCache>>,
    pinfi_snaps: Option<Arc<SnapshotCache>>,
}

/// Everything the artifact build reads from a submission: the module
/// name, the source, and whether checkpoints are captured.
#[derive(PartialEq, Eq, Hash)]
struct ArtifactKey {
    name: String,
    source: String,
    snapshots: bool,
}

impl ArtifactKey {
    fn of(sub: &Submission) -> ArtifactKey {
        ArtifactKey {
            name: sub.name.clone(),
            source: sub.source.clone(),
            snapshots: sub.fast_forward || sub.divergence,
        }
    }
}

impl Prepared {
    fn new(sub: &Submission, artifacts: Arc<Artifacts>) -> Prepared {
        Prepared {
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
            early_exit: artifacts.llfi_snaps.is_some(),
            shards: sub.shards,
            priority: sub.priority,
            artifacts,
        }
    }

    /// The two-cell (LLFI × PINFI) grid every shard runs, borrowing
    /// this campaign's artifacts. Must be identical for planning and for
    /// every shard run — it is, because it is derived from the same
    /// state every time.
    pub fn cells(&self) -> Vec<CellSpec<'_>> {
        let a = &*self.artifacts;
        vec![
            CellSpec {
                label: self.name.clone(),
                category: self.category,
                substrate: Substrate::Llfi {
                    module: &a.module,
                    profile: &a.llfi_profile,
                },
                snapshots: a.llfi_snaps.clone(),
            },
            CellSpec {
                label: self.name.clone(),
                category: self.category,
                substrate: Substrate::Pinfi {
                    prog: &a.prog,
                    profile: &a.pinfi_profile,
                },
                snapshots: a.pinfi_snaps.clone(),
            },
        ]
    }
}

/// Compiles, lowers, profiles, and (when divergence or fast-forward ask
/// for checkpoints) snapshots a submission: the expensive half that both
/// `fiq campaign` and the daemon run before the engine. Always builds
/// afresh; the daemon goes through [`Preparations::prepare`], which
/// shares the result with later submissions of the same program.
///
/// Compilation, optimization and lowering run in order on the caller's
/// thread. Then the LLFI chain (its golden runs) stays on the caller's
/// thread while the PINFI chain runs beside it on a scoped thread. When
/// both chains fail, the LLFI chain's error is the one returned.
pub fn prepare(sub: &Submission) -> Result<Prepared, String> {
    Ok(Prepared::new(sub, Arc::new(build(&ArtifactKey::of(sub))?)))
}

/// Builds the artifact set from `key` alone, so the key is everything the
/// build reads and two equal keys build equal sets.
fn build(key: &ArtifactKey) -> Result<Artifacts, String> {
    let mut module = fiq_frontend::compile(&key.name, &key.source).map_err(|e| e.to_string())?;
    fiq_opt::optimize_module(&mut module);
    let prog = fiq_backend::lower_module(&module, fiq_backend::LowerOptions::default())
        .map_err(|e| e.to_string())?;
    let (llfi, pinfi) = std::thread::scope(|s| {
        let pinfi = s.spawn(|| pinfi_chain(&prog, key.snapshots));
        let llfi = llfi_chain(&module, key.snapshots);
        let pinfi = pinfi
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (llfi, pinfi)
    });
    let (llfi_profile, llfi_snaps) = llfi?;
    let (pinfi_profile, pinfi_snaps) = pinfi?;
    Ok(Artifacts {
        module,
        prog,
        llfi_profile,
        pinfi_profile,
        llfi_snaps,
        pinfi_snaps,
    })
}

/// Auto checkpoint interval: 64 evenly spaced checkpoints across a
/// golden run of `steps` steps.
fn interval(steps: u64) -> u64 {
    (steps / 64).max(1)
}

/// The LLFI golden profile and, with `snapshots`, its checkpoints: a
/// hook-free run learns the golden length, and the snapshot run is the
/// profile.
fn llfi_chain(
    module: &Module,
    snapshots: bool,
) -> Result<(LlfiProfile, Option<Arc<SnapshotCache>>), String> {
    let opts = InterpOptions::default();
    if !snapshots {
        return Ok((profile_llfi(module, opts)?, None));
    }
    let steps = fiq_interp::run_module(module, opts)
        .map_err(|e| e.to_string())?
        .steps;
    let (profile, snaps) = profile_llfi_with_snapshots(module, opts, interval(steps))?;
    Ok((profile, Some(Arc::new(SnapshotCache::Llfi(snaps)))))
}

/// [`llfi_chain`] for the PINFI substrate.
fn pinfi_chain(
    prog: &AsmProgram,
    snapshots: bool,
) -> Result<(PinfiProfile, Option<Arc<SnapshotCache>>), String> {
    let opts = MachOptions::default();
    if !snapshots {
        return Ok((profile_pinfi(prog, opts)?, None));
    }
    let steps = fiq_asm::run_program(prog, opts)
        .map_err(|e| e.to_string())?
        .steps;
    let (profile, snaps) = profile_pinfi_with_snapshots(prog, opts, interval(steps))?;
    Ok((profile, Some(Arc::new(SnapshotCache::Pinfi(snaps)))))
}

/// The daemon's artifact cache: a map from everything the build reads
/// (name, source, whether checkpoints are captured) to the artifact set
/// some live campaign already holds. A submission whose key is still
/// alive reuses that set. The cache holds only [`Weak`] references, so a
/// set lives exactly as long as the campaigns holding it and the cache
/// adds no memory. Dead entries are pruned on insert.
#[derive(Default)]
pub struct Preparations {
    inner: Mutex<Cache>,
}

#[derive(Default)]
struct Cache {
    live: HashMap<ArtifactKey, Weak<Artifacts>>,
    built: u64,
    reused: u64,
}

impl Preparations {
    /// [`prepare`], reusing the artifacts of a live campaign over the
    /// same program. The build runs outside the lock, so two concurrent
    /// misses on one key may both build; the later insert wins.
    pub fn prepare(&self, sub: &Submission) -> Result<Prepared, String> {
        let key = ArtifactKey::of(sub);
        let mut cache = lock(&self.inner);
        if let Some(artifacts) = cache.live.get(&key).and_then(Weak::upgrade) {
            cache.reused += 1;
            return Ok(Prepared::new(sub, artifacts));
        }
        drop(cache);
        let artifacts = Arc::new(build(&key)?);
        let mut cache = lock(&self.inner);
        cache.live.retain(|_, set| set.strong_count() > 0);
        cache.live.insert(key, Arc::downgrade(&artifacts));
        cache.built += 1;
        Ok(Prepared::new(sub, artifacts))
    }

    /// Artifact sets built and reused so far, for `GET /api/status`:
    /// `{"built": B, "reused": R}`.
    pub fn to_json(&self) -> Json {
        let cache = lock(&self.inner);
        Json::Obj(vec![
            ("built".into(), Json::u64(cache.built)),
            ("reused".into(), Json::u64(cache.reused)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCE: &str =
        "int main() { int s = 0; for (int i = 0; i < 9; i += 1) s += i; print_i64(s); return 0; }";

    fn sub(seed: u64) -> Submission {
        Submission {
            name: "sum".into(),
            source: SOURCE.into(),
            category: Category::All,
            injections: 3,
            seed,
            threads: 1,
            shards: 1,
            priority: 0,
            collapse: Collapse::Sampled,
            divergence: false,
            fast_forward: true,
        }
    }

    fn counts(cache: &Preparations) -> (u64, u64) {
        let c = lock(&cache.inner);
        (c.built, c.reused)
    }

    fn live(cache: &Preparations) -> usize {
        let c = lock(&cache.inner);
        c.live.values().filter(|set| set.strong_count() > 0).count()
    }

    #[test]
    fn dropped_preparations_are_rebuilt_and_the_cache_keeps_nothing_alive() {
        let cache = Preparations::default();
        let first = cache.prepare(&sub(1)).unwrap();
        let second = cache.prepare(&sub(2)).unwrap();
        assert!(Arc::ptr_eq(&first.artifacts, &second.artifacts));
        assert_eq!((second.cfg.seed, second.early_exit), (2, true));
        assert_eq!(counts(&cache), (1, 1));
        assert_eq!(Arc::strong_count(&first.artifacts), 2);

        let set = Arc::downgrade(&first.artifacts);
        drop((first, second));
        assert_eq!(set.strong_count(), 0, "the cache holds a strong reference");
        assert_eq!(live(&cache), 0);

        let third = cache.prepare(&sub(3)).unwrap();
        assert_eq!(counts(&cache), (2, 1));
        assert_eq!(live(&cache), 1);
        assert_eq!(lock(&cache.inner).live.len(), 1, "dead entries are pruned");
        drop(third);
    }

    #[test]
    fn a_failed_build_leaves_no_entry() {
        let cache = Preparations::default();
        let mut broken = sub(1);
        broken.source = "int main() { return }".into();
        assert!(cache.prepare(&broken).is_err());
        broken.source = "int main() { int z = 0; print_i64(7 / z); return 0; }".into();
        let err = cache.prepare(&broken).err().unwrap();
        assert!(err.contains("golden IR run did not finish"), "{err}");
        assert_eq!(counts(&cache), (0, 0));
        assert!(lock(&cache.inner).live.is_empty());
    }
}
