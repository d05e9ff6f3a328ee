//! `dvicl-obs` — zero-dependency observability for the DviCL pipeline.
//!
//! The ROADMAP's north star is a system that is "as fast as the hardware
//! allows", which is unverifiable without a way to *see* where time and
//! work go. This crate gives the whole workspace one shared vocabulary
//! for that, in the house style (no `tracing` crate; everything offline
//! and dependency-free):
//!
//! * [`Counter`] — a fixed catalog of cheap process-wide counters
//!   (search-tree nodes, refinement rounds, divide decisions, cache
//!   hits…). Bumping is one relaxed atomic add; with the `obs-off`
//!   feature it compiles to nothing at all.
//! * [`span()`] — a scoped timer attributing wall time to one [`Phase`]
//!   of a fixed catalog (`cli.run` at the root, then load, refine,
//!   divide, leaf-IR, combine, group order, emit…). Timing is off until
//!   [`set_timing`] enables it, so un-observed runs pay one atomic load
//!   per span.
//! * [`Sink`] — where events and the final summary go: [`NullSink`]
//!   (default), [`TextSink`] (the CLI's human `--stats` report on
//!   stderr), or [`JsonSink`] (newline-delimited JSON events plus a
//!   final summary object, the CLI's `--trace-json`).
//!
//! Counters, phases and `dvicl-govern`'s fault sites are each declared
//! once, as one [`catalog!`] table. The catalogs, sink selection and
//! overhead policy are documented in DESIGN.md §9.
//!
//! # Quick start
//!
//! ```
//! use dvicl_obs::{self as obs, Counter, Phase};
//!
//! // Counters: bump on the hot path, snapshot around a measured region.
//! let before = obs::snapshot();
//! obs::bump(Counter::SearchNodes);
//! obs::add(Counter::DivideSEdgesDeleted, 3);
//! let delta = obs::snapshot().diff(&before);
//! # #[cfg(not(feature = "obs-off"))]
//! assert_eq!(delta.get(Counter::SearchNodes), 1);
//!
//! // Spans: time a phase (a no-op unless timing was enabled).
//! {
//!     let _g = obs::span(Phase::CoreBuild);
//!     // ... the governed work ...
//! }
//! ```

#![deny(missing_docs)]

mod counters;
mod json;
mod sink;
mod span;

pub use counters::{add, bump, get, reset_counters, snapshot, Counter, Snapshot, NUM_COUNTERS};
pub use json::{JsonArr, JsonObj};
pub use sink::{
    emit, emit_budget_trip, finish, install, render_text, summary, summary_json, JsonSink,
    NullSink, PhaseRow, Sink, Summary, TextSink, Value,
};
pub use span::{phases, reset_phases, set_timing, span, timing_enabled, Phase, PhaseStat, Span};

/// Declares a closed catalog as a `Copy` enum from one table of
/// `Variant => "name"` rows, so the enum, its order and its names
/// cannot drift apart. The enum gets `ALL` (every variant, in
/// declaration order) and `name()` (the row's string). [`Counter`],
/// [`Phase`] and `dvicl_govern::Site` are declared this way.
///
/// ```
/// dvicl_obs::catalog! {
///     pub enum Place {
///         First => "demo.first",
///         Second => "demo.second",
///     }
/// }
/// assert_eq!(Place::ALL, [Place::First, Place::Second]);
/// assert_eq!(Place::Second.name(), "demo.second");
/// ```
#[macro_export]
macro_rules! catalog {
    (
        $(#[$meta:meta])*
        $vis:vis enum $ty:ident {
            $($(#[$doc:meta])* $variant:ident => $name:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        $vis enum $ty {
            $($(#[$doc])* $variant,)*
        }

        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant),*];

            /// The variant's stable name, as reports and specs spell it.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}

/// Resets every counter *and* the phase table. Test/benchmark helper:
/// production code measures with [`snapshot`] deltas instead, so that
/// concurrent measurements cannot clobber each other.
///
/// ```
/// dvicl_obs::reset();
/// assert_eq!(dvicl_obs::get(dvicl_obs::Counter::SearchNodes), 0);
/// ```
pub fn reset() {
    reset_counters();
    reset_phases();
}
