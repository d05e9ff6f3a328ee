//! Deterministic fault injection: the [`FaultPlan`] and its
//! process-wide [`checkpoint`] hooks.
//!
//! Every recovery path in the pipeline — budget trips, the whole-graph
//! fallback, arena unwinding, parser error returns — is code that only
//! runs when something goes wrong, which means it is exactly the code
//! ordinary tests never execute. A `FaultPlan` makes "something goes
//! wrong" reproducible: it names a checkpoint site and an ordinal, and
//! the `k`-th time execution reaches that site the plan injects a typed
//! failure ([`DviclError::BudgetExceeded`], [`DviclError::Cancelled`],
//! or a [`DviclError::Parse`]) precisely there.
//!
//! The plan is configured from a spec string (CLI `--fault-plan`, env
//! `DVICL_FAULT_PLAN`): a comma-separated list of arms, each
//! `<action>@<site>:<k>` —
//!
//! * `action` — `trip` (work-cap exhaustion), `cancel` (cooperative
//!   cancellation), `alloc` (arena memory-ceiling hit), or `parse`
//!   (truncated-input parser failure);
//! * `site` — a [`Site`] name (`govern.spend`, `core.build_node`, ...;
//!   the full map is [`Site`], also in DESIGN.md §11) or `*` for "any
//!   checkpoint". A name that is not in [`Site::ALL`] is rejected;
//! * `k` — the 1-based hit ordinal at which the arm fires, counted per
//!   site (or across all sites for `*`). Each arm fires exactly once.
//!
//! With no plan installed a [`checkpoint`] call is a single relaxed
//! atomic load — the hooks are free in production. With a plan
//! installed every hit is also *counted*, which is how the fault-sweep
//! harness discovers the checkpoint space: install an empty plan, run
//! the pipeline once, read [`hit_counts`], then enumerate `(site, k)`
//! injection points from the observed totals.

use crate::error::{DviclError, ParseError, ParseErrorKind, Resource};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

dvicl_obs::catalog! {
    /// A fault-injection checkpoint: one named place in the pipeline
    /// where an installed [`FaultPlan`] may inject a typed error.
    /// [`checkpoint`] takes only a `Site`, so every site that code
    /// passes is declared here, in name order. The `crate.place` names
    /// are how plan specs and `fault_injected` events spell a site.
    ///
    /// ```
    /// assert_eq!(dvicl_govern::Site::CoreBuildNode.name(), "core.build_node");
    /// ```
    pub enum Site {
        /// Each IR search-tree node (`canon::Search::dfs`).
        CanonDfs => "canon.dfs",
        /// Each child-subgraph carve (`core::SubArena::try_induced_child`,
        /// where the `alloc` ceiling also lives).
        CoreArenaCarve => "core.arena_carve",
        /// Each AutoTree build recursion step.
        CoreBuildNode => "core.build_node",
        /// Each non-singleton leaf labeling (CombineCL).
        CoreLeafIr => "core.leaf_ir",
        /// SSM analysis and enumeration entry.
        CoreSsm => "core.ssm",
        /// Every `Budget::spend`, i.e. all governed loops.
        GovernSpend => "govern.spend",
        /// Each data line of the edge-list parser.
        GraphEdgeLine => "graph.edge_line",
        /// Each graph6 decode.
        GraphGraph6 => "graph.graph6",
        /// Each fingerprint-index ingestion.
        IndexInsert => "index.insert",
        /// Each DVIX1 record read.
        IndexLoad => "index.load",
        /// Each budgeted refinement after an individualization.
        RefineIndividualize => "refine.individualize",
        /// Each budgeted refinement of an input coloring.
        RefineRefine => "refine.refine",
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which typed failure an arm injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Work-cap exhaustion: `BudgetExceeded { resource: WorkUnits }`.
    Trip,
    /// Cooperative cancellation: `Cancelled`.
    Cancel,
    /// Arena memory-ceiling hit: `BudgetExceeded { resource: Memory }`.
    Alloc,
    /// Parser failure: `Parse` with [`ParseErrorKind::Truncated`].
    Parse,
}

impl FaultAction {
    /// The spec-string name of this action.
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Trip => "trip",
            FaultAction::Cancel => "cancel",
            FaultAction::Alloc => "alloc",
            FaultAction::Parse => "parse",
        }
    }

    fn to_error(self, site: Site, hit: u64) -> DviclError {
        match self {
            FaultAction::Trip => DviclError::BudgetExceeded {
                resource: Resource::WorkUnits,
                spent: hit,
            },
            FaultAction::Cancel => DviclError::Cancelled,
            FaultAction::Alloc => DviclError::BudgetExceeded {
                resource: Resource::Memory,
                spent: hit,
            },
            FaultAction::Parse => DviclError::Parse(ParseError::new(
                ParseErrorKind::Truncated,
                format!("injected fault at {site}"),
            )),
        }
    }
}

/// One arm of a plan: inject `action` at the `k`-th hit of `site`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultArm {
    /// The failure to inject.
    pub action: FaultAction,
    /// The checkpoint site this arm watches; `None` is the `*`
    /// wildcard, which counts hits across all sites.
    pub site: Option<Site>,
    /// The 1-based hit ordinal at which to fire.
    pub k: u64,
}

impl FaultArm {
    fn parse(spec: &str) -> Result<FaultArm, DviclError> {
        let bad = || {
            DviclError::invalid(format!(
                "invalid fault arm '{spec}' (expected <action>@<site>:<k>)"
            ))
        };
        let (action, rest) = spec.split_once('@').ok_or_else(bad)?;
        let (site, k) = rest.rsplit_once(':').ok_or_else(bad)?;
        let action = match action.trim() {
            "trip" => FaultAction::Trip,
            "cancel" => FaultAction::Cancel,
            "alloc" => FaultAction::Alloc,
            "parse" => FaultAction::Parse,
            other => {
                return Err(DviclError::invalid(format!(
                    "invalid fault action '{other}' (expected trip, cancel, alloc, or parse)"
                )))
            }
        };
        let site = match site.trim() {
            "" => return Err(bad()),
            "*" => None,
            name => Some(
                Site::ALL
                    .iter()
                    .copied()
                    .find(|s| s.name() == name)
                    .ok_or_else(|| {
                        let known: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
                        DviclError::invalid(format!(
                            "unknown fault site '{name}' in arm '{spec}' (expected * or one of: {})",
                            known.join(", ")
                        ))
                    })?,
            ),
        };
        let k: u64 = k.trim().parse().map_err(|_| bad())?;
        if k == 0 {
            return Err(DviclError::invalid(format!(
                "invalid fault arm '{spec}': hit ordinal is 1-based, k must be >= 1"
            )));
        }
        Ok(FaultArm { action, site, k })
    }
}

/// A parsed fault-injection plan: zero or more [`FaultArm`]s.
///
/// An empty plan injects nothing but still counts checkpoint hits —
/// that is probe mode, used by the sweep harness to discover how many
/// injection points a given workload exposes.
///
/// ```
/// use dvicl_govern::{FaultAction, FaultPlan, Site};
/// let plan = FaultPlan::parse("trip@govern.spend:3, cancel@*:10").unwrap();
/// assert_eq!(plan.arms.len(), 2);
/// assert_eq!(plan.arms[0].action, FaultAction::Trip);
/// assert_eq!(plan.arms[0].site, Some(Site::GovernSpend));
/// assert_eq!(plan.arms[1].site, None);
/// assert!(FaultPlan::parse("explode@govern.spend:1").is_err());
/// assert!(FaultPlan::parse("trip@govern.spendd:1").is_err());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The arms, in spec order. Earlier arms win when several match the
    /// same hit.
    pub arms: Vec<FaultArm>,
}

impl FaultPlan {
    /// An empty (probe-mode) plan: counts hits, injects nothing.
    pub fn probe() -> FaultPlan {
        FaultPlan::default()
    }

    /// A single-arm plan — the sweep harness builds these in a loop.
    pub fn one(action: FaultAction, site: Site, k: u64) -> FaultPlan {
        FaultPlan {
            arms: vec![FaultArm {
                action,
                site: Some(site),
                k,
            }],
        }
    }

    /// Parses a spec string: comma-separated `<action>@<site>:<k>` arms.
    /// An empty (or all-whitespace) spec is the probe plan. A site must
    /// be `*` or a name in [`Site::ALL`]; anything else is
    /// [`DviclError::InvalidInput`].
    pub fn parse(spec: &str) -> Result<FaultPlan, DviclError> {
        let mut arms = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            arms.push(FaultArm::parse(part)?);
        }
        Ok(FaultPlan { arms })
    }
}

/// Mutable per-installation state, behind one mutex: hit counts per
/// site (indexed by `Site as usize`), the cross-site total (what `*`
/// arms count against), and which arms have already fired.
#[derive(Debug)]
struct State {
    counts: Vec<u64>,
    total: u64,
    fired: Vec<bool>,
}

#[derive(Debug)]
struct Installed {
    plan: FaultPlan,
    state: Mutex<State>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<Installed>> = RwLock::new(None);

/// Installs `plan` process-wide, replacing any previous plan and
/// resetting all hit counts. Checkpoints start counting (and possibly
/// injecting) immediately.
pub fn install(plan: FaultPlan) {
    let fired = vec![false; plan.arms.len()];
    let installed = Installed {
        plan,
        state: Mutex::new(State {
            counts: vec![0; Site::ALL.len()],
            total: 0,
            fired,
        }),
    };
    *PLAN.write().unwrap_or_else(PoisonError::into_inner) = Some(installed);
    ACTIVE.store(true, Ordering::Release);
}

/// Removes the installed plan; checkpoints return to their free
/// fast path.
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    *PLAN.write().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Whether a plan is currently installed (probe or injecting).
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Installs a plan from the `DVICL_FAULT_PLAN` environment variable, if
/// set. Returns `Ok(true)` when a plan was installed, `Ok(false)` when
/// the variable is absent, and a typed error for a malformed spec.
pub fn install_from_env() -> Result<bool, DviclError> {
    match std::env::var("DVICL_FAULT_PLAN") {
        Ok(spec) => {
            install(FaultPlan::parse(&spec)?);
            Ok(true)
        }
        Err(_) => Ok(false),
    }
}

/// Per-site checkpoint hit counts since the last [`install`], in site
/// name order, for the sites hit at least once. Empty when no plan is
/// installed.
pub fn hit_counts() -> Vec<(Site, u64)> {
    let guard = PLAN.read().unwrap_or_else(PoisonError::into_inner);
    match guard.as_ref() {
        Some(inst) => {
            let state = inst.state.lock().unwrap_or_else(PoisonError::into_inner);
            Site::ALL
                .iter()
                .map(|&s| (s, state.counts[s as usize]))
                .filter(|&(_, c)| c > 0)
                .collect()
        }
        None => Vec::new(),
    }
}

/// A named fault-injection point. Free (one relaxed atomic load) unless
/// a plan is installed; with a plan installed, counts the hit and
/// injects the matching arm's typed error, if any.
///
/// The checkpoint map is [`Site`] (also in DESIGN.md §11).
#[inline]
pub fn checkpoint(site: Site) -> Result<(), DviclError> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Ok(());
    }
    checkpoint_slow(site)
}

#[cold]
#[inline(never)]
fn checkpoint_slow(site: Site) -> Result<(), DviclError> {
    let guard = PLAN.read().unwrap_or_else(PoisonError::into_inner);
    let Some(inst) = guard.as_ref() else {
        return Ok(());
    };
    let mut state = inst.state.lock().unwrap_or_else(PoisonError::into_inner);
    state.total += 1;
    let total = state.total;
    state.counts[site as usize] += 1;
    let site_hits = state.counts[site as usize];
    for (i, arm) in inst.plan.arms.iter().enumerate() {
        if state.fired[i] {
            continue;
        }
        let hit = match arm.site {
            None => total,
            Some(s) if s == site => site_hits,
            Some(_) => continue,
        };
        if hit == arm.k {
            state.fired[i] = true;
            let action = arm.action;
            drop(state);
            drop(guard);
            report_injection(site, action, hit);
            return Err(action.to_error(site, hit));
        }
    }
    Ok(())
}

/// Reports an injected fault to the observability layer. Off the hot
/// path — this runs at most once per arm per installation.
#[cold]
#[inline(never)]
fn report_injection(site: Site, action: FaultAction, hit: u64) {
    dvicl_obs::bump(dvicl_obs::Counter::FaultInjections);
    dvicl_obs::emit(
        "fault_injected",
        &[
            ("site", dvicl_obs::Value::Str(site.name().to_string())),
            ("action", dvicl_obs::Value::Str(action.name().to_string())),
            ("hit", dvicl_obs::Value::U64(hit)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_grammar_and_rejects_garbage() {
        let plan = FaultPlan::parse(" trip@core.build_node:2 ,parse@graph.edge_line:1").unwrap();
        assert_eq!(plan.arms.len(), 2);
        assert_eq!(plan.arms[0].site, Some(Site::CoreBuildNode));
        assert_eq!(plan.arms[0].k, 2);
        assert_eq!(plan.arms[1].action, FaultAction::Parse);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::probe());
        for bad in [
            "trip",
            "trip@canon.dfs",
            "trip@canon.dfs:zero",
            "trip@:1",
            "trip@canon.dfs:0",
            "explode@canon.dfs:1",
            "trip@canon.dfs:1,,oops",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?} gave {err:?}");
        }
    }

    #[test]
    fn parse_rejects_unknown_sites_and_lists_the_valid_ones() {
        for bad in ["trip@core.buildnode:1", "cancel@x:1", "trip@canon.dfs:1,alloc@core:2"] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(matches!(err, DviclError::InvalidInput(_)), "{bad:?} gave {err:?}");
            let msg = err.to_string();
            for site in Site::ALL {
                assert!(msg.contains(site.name()), "{bad:?}: {msg} does not list {site}");
            }
        }
        for site in Site::ALL {
            let plan = FaultPlan::parse(&format!("trip@{site}:1")).unwrap();
            assert_eq!(plan.arms[0].site, Some(*site));
        }
    }

    #[test]
    fn site_and_phase_names_are_crate_place_and_unique() {
        // The first segment names a workspace crate: a directory beside
        // this crate under `crates/`.
        let crates_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let crates: Vec<String> = std::fs::read_dir(crates_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        let segment_ok = |seg: &str| {
            !seg.is_empty()
                && seg
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        };
        let sites: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
        let phases: Vec<&str> = dvicl_obs::Phase::ALL.iter().map(|p| p.name()).collect();
        for names in [&sites, &phases] {
            for name in names {
                let segments: Vec<&str> = name.split('.').collect();
                assert!(segments.len() >= 2, "{name}: expected crate.place");
                assert!(
                    segments.iter().all(|s| segment_ok(s)),
                    "{name}: segments must be [a-z0-9_]+"
                );
                assert!(
                    crates.iter().any(|c| c == segments[0]),
                    "{name}: no crate `{}`",
                    segments[0]
                );
            }
            let mut unique = names.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), names.len(), "duplicate names in {names:?}");
        }
        let mut sorted = sites.clone();
        sorted.sort_unstable();
        assert_eq!(sites, sorted, "sites must be declared in name order");
    }

    #[test]
    fn checkpoint_is_free_without_a_plan() {
        let _g = crate::serial_test();
        clear();
        assert!(!is_active());
        for _ in 0..1000 {
            checkpoint(Site::GovernSpend).unwrap();
        }
        assert!(hit_counts().is_empty());
    }

    #[test]
    fn probe_plan_counts_without_injecting() {
        let _g = crate::serial_test();
        install(FaultPlan::probe());
        for _ in 0..3 {
            checkpoint(Site::CoreBuildNode).unwrap();
        }
        checkpoint(Site::RefineRefine).unwrap();
        assert_eq!(
            hit_counts(),
            vec![(Site::CoreBuildNode, 3), (Site::RefineRefine, 1)]
        );
        clear();
    }

    #[test]
    fn arm_fires_at_exactly_the_kth_hit_and_only_once() {
        let _g = crate::serial_test();
        install(FaultPlan::one(FaultAction::Trip, Site::CanonDfs, 3));
        checkpoint(Site::CanonDfs).unwrap();
        checkpoint(Site::CoreLeafIr).unwrap(); // other sites don't count
        checkpoint(Site::CanonDfs).unwrap();
        let err = checkpoint(Site::CanonDfs).unwrap_err();
        assert_eq!(
            err,
            DviclError::BudgetExceeded {
                resource: Resource::WorkUnits,
                spent: 3
            }
        );
        // One-shot: the 4th hit passes.
        checkpoint(Site::CanonDfs).unwrap();
        clear();
    }

    #[test]
    fn wildcard_counts_across_sites_and_actions_map_to_errors() {
        let _g = crate::serial_test();
        install(FaultPlan::parse("cancel@*:2").unwrap());
        checkpoint(Site::RefineRefine).unwrap();
        assert_eq!(checkpoint(Site::CanonDfs), Err(DviclError::Cancelled));
        clear();

        install(FaultPlan::one(FaultAction::Alloc, Site::CoreArenaCarve, 1));
        assert!(matches!(
            checkpoint(Site::CoreArenaCarve),
            Err(DviclError::BudgetExceeded {
                resource: Resource::Memory,
                ..
            })
        ));
        clear();

        install(FaultPlan::one(FaultAction::Parse, Site::GraphEdgeLine, 1));
        let err = checkpoint(Site::GraphEdgeLine).unwrap_err();
        match &err {
            DviclError::Parse(p) => {
                assert_eq!(p.kind, ParseErrorKind::Truncated);
                assert!(p.detail.contains("graph.edge_line"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        clear();
    }

    #[test]
    fn install_resets_counts_and_fired_state() {
        let _g = crate::serial_test();
        install(FaultPlan::one(FaultAction::Cancel, Site::CoreSsm, 1));
        assert!(checkpoint(Site::CoreSsm).is_err());
        install(FaultPlan::one(FaultAction::Cancel, Site::CoreSsm, 1));
        assert!(checkpoint(Site::CoreSsm).is_err(), "reinstall must rearm");
        assert_eq!(hit_counts(), vec![(Site::CoreSsm, 1)]);
        clear();
    }
}
