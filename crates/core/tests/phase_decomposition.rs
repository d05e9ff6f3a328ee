//! The phase table decomposes a build: every span a build opens,
//! the root refinement included, nests inside `core.build`, so the
//! self-times of all phases add up to `core.build`'s total.
//!
//! Span timing and the phase table are process-wide, so this test is
//! its own binary.

use dvicl_core::{try_build_autotree, Budget, DviclOptions};
use dvicl_graph::Coloring;

#[test]
fn self_times_add_up_to_the_build_total() {
    // A social analog: the root refinement is a large share of the
    // build, and the tree divides (internal nodes, several leaves).
    let g = (dvicl_data::social_suite()
        .into_iter()
        .find(|d| d.name == "Gnutella")
        .expect("suite graph")
        .build)();
    dvicl_obs::reset_phases();
    dvicl_obs::set_timing(true);
    let tree = try_build_autotree(
        &g,
        &Coloring::unit(g.n()),
        &DviclOptions::default(),
        &Budget::unlimited(),
    )
    .expect("unlimited build");
    dvicl_obs::set_timing(false);
    assert!(tree.stats().total_nodes > 1, "the build must divide");

    let phases = dvicl_obs::phases();
    let build = phases
        .iter()
        .find(|(label, _)| *label == "core.build")
        .map(|&(_, st)| st)
        .expect("a core.build span");
    assert_eq!(build.calls, 1);
    assert!(
        phases.iter().any(|(label, _)| *label == "refine.refine"),
        "the root refinement is timed: {phases:?}"
    );
    let self_sum: u64 = phases.iter().map(|(_, st)| st.self_ns).sum();
    let slack = build.total_ns / 1000;
    assert!(
        self_sum.abs_diff(build.total_ns) <= slack,
        "Σ self {self_sum} ns vs core.build total {} ns: {phases:?}",
        build.total_ns
    );
}
