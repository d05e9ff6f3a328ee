//! Under the `obs-off` feature the whole layer must be inert: spans are
//! zero-sized and counter bumps do nothing. Run with
//! `cargo test -p dvicl-obs --features obs-off`.

#![cfg(feature = "obs-off")]

use dvicl_obs::{self as obs, Counter, Phase};

#[test]
fn span_guard_is_a_zst() {
    obs::set_timing(true);
    assert!(!obs::timing_enabled());
    let g = obs::span(Phase::CoreBuild);
    assert_eq!(std::mem::size_of_val(&g), 0);
    drop(g);
    assert!(obs::phases().is_empty());
}

#[test]
fn bumps_do_nothing() {
    let before = obs::snapshot();
    obs::bump(Counter::SearchNodes);
    obs::add(Counter::RefineRounds, 100);
    let delta = obs::snapshot().diff(&before);
    assert_eq!(delta.get(Counter::SearchNodes), 0);
    assert_eq!(delta.get(Counter::RefineRounds), 0);
    assert_eq!(delta.distinct_nonzero(), 0);
}
