//! Self-check: every declared checkpoint site is reached by the
//! pipeline.
//!
//! `govern::fault::Site` declares the sites, and `fault::checkpoint`
//! accepts nothing else, so a site that code passes is always declared.
//! The converse — a declared site that no code path reaches any more
//! (dead code, a refactor that skips it) — is what this test catches: a
//! fault plan aimed at such a site injects nothing. A probe-mode run
//! drives the pipeline end to end — edge-list parsing, graph6 decoding,
//! a divided AutoTree build (which exercises refinement,
//! individualization, arena carves, leaf IR, DFS search, and the
//! budget), a symmetric-subgraph-matching query, and a fingerprint
//! index insert + DVIX1 round trip — and the sites it hits must be
//! exactly `Site::ALL`. This test is its own binary because the fault
//! plan is process-global.

use dvicl::core::ssm::{symmetric_key, SsmIndex};
use dvicl::core::{build_autotree, DviclOptions};
use dvicl::govern::fault::{self, FaultPlan, Site};
use dvicl::graph::{graph6, io, Coloring, Fingerprint};
use dvicl::index::FingerprintIndex;

#[test]
fn registry_and_probe_agree() {
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
    let executed: Vec<Site> = hits.iter().map(|&(site, _)| site).collect();
    assert_eq!(
        executed,
        Site::ALL,
        "probe-executed checkpoint sites diverge from Site::ALL (hit counts: {hits:?})"
    );
}
