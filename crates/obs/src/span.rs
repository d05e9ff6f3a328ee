//! Scoped phase timers.
//!
//! A [`span`] is a guard that, while timing is enabled, measures the
//! wall time of its scope and attributes it to one [`Phase`]. A
//! thread-local stack of open frames lets a parent phase subtract the
//! time spent in its children, so the report can show both *total*
//! (inclusive) and *self* (exclusive) time per phase — the breakdown
//! the DviCL paper reports as refine / divide / combine / leaf-IR.
//!
//! Timing is off by default: an un-observed span costs one relaxed
//! atomic load and nothing else. Under the `obs-off` feature the guard
//! is a zero-sized type and the whole module is inert.

crate::catalog! {
    /// A timed phase of the `dvicl` process: one `crate.place` row per
    /// place that opens a [`span`]. The declaration order is the
    /// reporting order. `cli.run` is the root: every other phase the
    /// CLI opens nests inside it, so the self-times of one run add up
    /// to its total.
    ///
    /// ```
    /// assert_eq!(dvicl_obs::Phase::CoreLeafIr.name(), "core.leaf_ir");
    /// ```
    pub enum Phase {
        /// The whole `dvicl` subcommand (`cli::main`).
        CliRun => "cli.run",
        /// Loading a `DVIX1` index file (`index::disk`).
        IndexLoad => "index.load",
        /// Reading and parsing an input graph (`cli`).
        GraphLoad => "graph.load",
        /// One AutoTree build, root refinement included (`core::build`).
        CoreBuild => "core.build",
        /// Refinement of an input coloring (`refine`).
        RefineRefine => "refine.refine",
        /// Refinement after an individualization (`refine`).
        RefineIndividualize => "refine.individualize",
        /// One divide step of the build (`core::build`).
        CoreDivide => "core.divide",
        /// One non-singleton leaf labeling, CombineCL (`core::build`).
        CoreLeafIr => "core.leaf_ir",
        /// One IR search (`canon::search`).
        CanonSearch => "canon.search",
        /// One combine step of the build (`core::build`).
        CoreCombine => "core.combine",
        /// A `--paranoid` witness check (`core::verify`).
        CoreVerify => "core.verify",
        /// |Aut(G)| from the AutoTree (`cli`, `aut`).
        GroupOrder => "group.order",
        /// The orbit partition from the AutoTree (`cli`, `aut`).
        CoreOrbits => "core.orbits",
        /// The generator set from the AutoTree (`cli`, `aut`).
        CoreGenerators => "core.generators",
        /// SSM analysis and enumeration (`core::ssm`).
        CoreSsm => "core.ssm",
        /// Maximum-clique search (`apps::clique`).
        AppsClique => "apps.clique",
        /// Symmetry-aware clustering (`apps::cluster`).
        AppsCluster => "apps.cluster",
        /// Influence maximization (`apps::im`).
        AppsIm => "apps.im",
        /// The symmetry quotient (`apps::quotient`).
        AppsQuotient => "apps.quotient",
        /// Triangle counting (`apps::triangles`).
        AppsTriangles => "apps.triangles",
        /// Printing a certificate or generators (`cli`, `canon`/`aut`).
        GraphEmit => "graph.emit",
        /// Writing a `DVIX1` index file (`index::disk`).
        IndexSave => "index.save",
    }
}

/// Per-phase accumulated timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// How many spans of this phase completed.
    pub calls: u64,
    /// Inclusive wall time: the sum of each span's full duration.
    pub total_ns: u64,
    /// Exclusive wall time: [`PhaseStat::total_ns`] minus time spent in
    /// child spans opened (on the same thread) while this one was open.
    pub self_ns: u64,
}

#[cfg(not(feature = "obs-off"))]
mod imp {
    use super::{Phase, PhaseStat};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Instant;

    static TIMING: AtomicBool = AtomicBool::new(false);

    /// One phase's running totals. Each field is a statistic that
    /// publishes no other data, so relaxed atomics suffice, as for the
    /// counters.
    struct Cell {
        calls: AtomicU64,
        total_ns: AtomicU64,
        self_ns: AtomicU64,
    }

    static PHASES: [Cell; Phase::ALL.len()] = [const {
        Cell {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
        }
    }; Phase::ALL.len()];

    struct Frame {
        phase: Phase,
        start: Instant,
        child_ns: u64,
    }

    thread_local! {
        static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    }

    /// Turns span timing on or off process-wide.
    pub fn set_timing(on: bool) {
        TIMING.store(on, Ordering::SeqCst);
    }

    /// Whether spans are currently measuring time.
    pub fn timing_enabled() -> bool {
        TIMING.load(Ordering::Relaxed)
    }

    /// A scope guard created by [`span`](crate::span()); on drop it folds
    /// the scope's duration into the process-wide phase table.
    #[must_use = "a span measures until it is dropped; binding it to _ drops it immediately"]
    pub struct Span {
        active: bool,
    }

    /// Opens a timed span for `phase`. Returns an inert guard when
    /// timing is disabled.
    ///
    /// ```
    /// use dvicl_obs::Phase;
    /// dvicl_obs::set_timing(true);
    /// {
    ///     let _g = dvicl_obs::span(Phase::RefineRefine);
    /// }
    /// dvicl_obs::set_timing(false);
    /// let phases = dvicl_obs::phases();
    /// assert!(phases.iter().any(|(l, st)| *l == "refine.refine" && st.calls >= 1));
    /// ```
    pub fn span(phase: Phase) -> Span {
        if !timing_enabled() {
            return Span { active: false };
        }
        STACK.with(|s| {
            s.borrow_mut().push(Frame {
                phase,
                start: Instant::now(),
                child_ns: 0,
            });
        });
        Span { active: true }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            if !self.active {
                return;
            }
            let frame = STACK.with(|s| s.borrow_mut().pop());
            let Some(frame) = frame else { return };
            let total_ns =
                u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let self_ns = total_ns.saturating_sub(frame.child_ns);
            STACK.with(|s| {
                if let Some(parent) = s.borrow_mut().last_mut() {
                    parent.child_ns = parent.child_ns.saturating_add(total_ns);
                }
            });
            let cell = &PHASES[frame.phase as usize];
            cell.calls.fetch_add(1, Ordering::Relaxed);
            cell.total_ns.fetch_add(total_ns, Ordering::Relaxed);
            cell.self_ns.fetch_add(self_ns, Ordering::Relaxed);
        }
    }

    /// The phases with at least one completed span, in declaration
    /// order, each with its accumulated timing.
    pub fn phases() -> Vec<(&'static str, PhaseStat)> {
        Phase::ALL
            .iter()
            .map(|&p| {
                let cell = &PHASES[p as usize];
                let stat = PhaseStat {
                    calls: cell.calls.load(Ordering::Relaxed),
                    total_ns: cell.total_ns.load(Ordering::Relaxed),
                    self_ns: cell.self_ns.load(Ordering::Relaxed),
                };
                (p.name(), stat)
            })
            .filter(|(_, st)| st.calls > 0)
            .collect()
    }

    /// Clears the phase table. Test/benchmark helper — see
    /// [`crate::reset`].
    pub fn reset_phases() {
        for cell in &PHASES {
            cell.calls.store(0, Ordering::Relaxed);
            cell.total_ns.store(0, Ordering::Relaxed);
            cell.self_ns.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(feature = "obs-off")]
mod imp {
    use super::{Phase, PhaseStat};

    /// A scope guard created by [`span`](crate::span); zero-sized and
    /// inert under the `obs-off` feature.
    #[must_use = "a span measures until it is dropped; binding it to _ drops it immediately"]
    pub struct Span;

    /// Opens a timed span for `phase`; inert under `obs-off`.
    #[inline]
    pub fn span(_phase: Phase) -> Span {
        Span
    }

    /// Turns span timing on or off; ignored under `obs-off`.
    pub fn set_timing(_on: bool) {}

    /// Whether spans are measuring time — always `false` under
    /// `obs-off`.
    pub fn timing_enabled() -> bool {
        false
    }

    /// The phase table — always empty under `obs-off`.
    pub fn phases() -> Vec<(&'static str, PhaseStat)> {
        Vec::new()
    }

    /// Clears the phase table; a no-op under `obs-off`.
    pub fn reset_phases() {}
}

pub use imp::{phases, reset_phases, set_timing, span, timing_enabled, Span};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// The timing switch and the phase table are process-global: a test
    /// that turns timing on must not overlap one that counts phases.
    static LOCK: Mutex<()> = Mutex::new(());

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn nesting_attributes_self_time_to_each_phase() {
        let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset_phases();
        set_timing(true);
        {
            // Opened out of declaration order on purpose: the report
            // still lists `cli.run` first.
            let _outer = span(Phase::CoreBuild);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span(Phase::CliRun);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_timing(false);
        let table = phases();
        assert_eq!(
            table.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            ["cli.run", "core.build"]
        );
        let (inner, outer) = (table[0].1, table[1].1);
        assert!(outer.calls == 1 && inner.calls == 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns + inner.self_ns, outer.total_ns);
    }

    #[test]
    fn disabled_span_is_inert() {
        let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_timing(false);
        let before = phases();
        {
            let _g = span(Phase::AppsIm);
        }
        assert_eq!(phases(), before);
    }

    #[test]
    fn the_phases_perfbench_reads_by_name_are_declared() {
        // perfbench's traced replay looks these up by string and reads 0
        // on a miss, so a rename would silently zero its metrics.
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        for name in ["core.leaf_ir", "refine.individualize", "core.build"] {
            assert!(
                names.contains(&name),
                "{name} is not in Phase::ALL: {names:?}"
            );
        }
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn span_is_zero_sized_when_off() {
        assert_eq!(std::mem::size_of::<Span>(), 0);
        set_timing(true);
        assert!(!timing_enabled());
    }
}
