//! Self-check: the checkpoint registry, the static analyzer, and a
//! dynamic probe must agree on the set of fault-injection sites.
//!
//! Three views of "every checkpoint in the pipeline":
//!
//! 1. **Declared** — `govern::fault::CHECKPOINT_SITES`, the registry
//!    the fault-plan docs and DESIGN.md §11 point at.
//! 2. **Written** — the `fault::checkpoint("…")` call sites
//!    `dvicl-lint`'s item parser extracts from the workspace source
//!    (the same extraction the registry-coherence rule cross-checks
//!    in CI).
//! 3. **Executed** — the sites a probe-mode run actually hits when the
//!    pipeline is driven end to end: edge-list parsing, graph6
//!    decoding, a divided AutoTree build (which exercises refinement,
//!    individualization, arena carves, leaf IR, DFS search, and the
//!    budget), a symmetric-subgraph-matching query, and a fingerprint
//!    index insert + DVIX1 round trip.
//!
//! If someone adds a checkpoint without registering it, view 2 drifts
//! from view 1 (also a lint failure). If a registered site becomes
//! unreachable — dead code, a refactor that skips it — view 3 drifts
//! from view 1, which no purely static check can catch. This test is
//! its own binary because the fault plan is process-global.

use dvicl::core::ssm::{symmetric_key, SsmIndex};
use dvicl::core::{build_autotree, DviclOptions};
use dvicl::govern::fault::{self, FaultPlan, CHECKPOINT_SITES};
use dvicl::graph::{graph6, io, Coloring, Fingerprint};
use dvicl::index::FingerprintIndex;
use std::collections::BTreeSet;

#[test]
fn registry_analyzer_and_probe_agree() {
    // The registry itself: sorted and duplicate-free, so diffs against
    // it are stable.
    let registry: BTreeSet<&str> = CHECKPOINT_SITES.iter().copied().collect();
    assert_eq!(
        registry.len(),
        CHECKPOINT_SITES.len(),
        "CHECKPOINT_SITES contains duplicates"
    );
    let mut sorted = CHECKPOINT_SITES.to_vec();
    sorted.sort_unstable();
    assert_eq!(
        sorted.as_slice(),
        &CHECKPOINT_SITES[..],
        "CHECKPOINT_SITES must stay sorted"
    );

    // View 2: the analyzer's extraction of non-test checkpoint call
    // sites across the whole workspace.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let ws = dvicl_lint::analyze_workspace(root).expect("analyze the workspace");
    let written: BTreeSet<String> =
        dvicl_lint::rules::registry_coherence::used_checkpoint_sites(&ws)
            .into_iter()
            .map(|u| u.site)
            .collect();
    let written_refs: BTreeSet<&str> = written.iter().map(String::as_str).collect();
    assert_eq!(
        written_refs, registry,
        "analyzer-extracted checkpoint sites diverge from CHECKPOINT_SITES"
    );

    // View 3: a probe-mode run across every checkpoint surface.
    fault::install(FaultPlan::probe());

    // graph.edge_line + a graph with enough symmetry to exercise
    // refinement, individualization, and non-singleton leaves: K4 plus
    // a pendant path.
    let loaded = io::read_edge_list(
        "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n".as_bytes(),
    )
    .expect("parse edge list");
    let g = loaded.graph;

    // graph.graph6 (round-trip through the encoder so the string is
    // authoritative).
    let decoded = graph6::from_graph6(&graph6::to_graph6(&g)).expect("decode graph6");
    assert_eq!(decoded.n(), g.n());

    // The build: refine.refine, core.build_node, core.arena_carve,
    // govern.spend.
    let tree = build_autotree(&g, &Coloring::unit(g.n()), &DviclOptions::default());

    // core.ssm: one symmetric-key query over the built tree.
    let index = SsmIndex::new(&tree);
    let _key = symmetric_key(&tree, &index, &[0, 1]);

    // An 8-cycle is vertex-transitive: refinement cannot split the unit
    // coloring, so the build lands in a non-singleton leaf and must run
    // the full canonical search — core.leaf_ir, refine.individualize,
    // and canon.dfs.
    let cycle = io::read_edge_list("0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 0\n".as_bytes())
        .expect("parse cycle edge list")
        .graph;
    let _cycle_tree = build_autotree(&cycle, &Coloring::unit(cycle.n()), &DviclOptions::default());

    // index.insert + index.load: ingest a certificate into a
    // fingerprint index and round-trip it through the DVIX1 format.
    let form = tree.canonical_form().to_form();
    let mut fpi = FingerprintIndex::new();
    fpi.insert(Fingerprint::of_form(&form), form, true)
        .expect("insert certificate");
    let mut saved = Vec::new();
    fpi.save_to(&mut saved).expect("serialize index");
    let loaded = FingerprintIndex::load_from(&mut saved.as_slice(), true).expect("reload index");
    assert_eq!(loaded.len(), fpi.len());

    let hits = fault::hit_counts();
    fault::clear();
    let executed: BTreeSet<&str> = hits
        .iter()
        .filter(|&&(_, count)| count > 0)
        .map(|&(site, _)| site)
        .collect();
    assert_eq!(
        executed, registry,
        "probe-executed checkpoint sites diverge from CHECKPOINT_SITES \
         (hit counts: {hits:?})"
    );
}
