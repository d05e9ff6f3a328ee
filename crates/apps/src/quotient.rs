//! Network quotients and symmetry-based structure entropy — the
//! "network simplification" and "network measurement" applications of the
//! paper's introduction (refs \[35\] and \[37\]).
//!
//! The *quotient* collapses every automorphism orbit to one vertex,
//! yielding the structural skeleton of the network; \[35\] shows quotients
//! preserve key functional properties while being substantially smaller.
//! The *structure entropy* of \[37\] is the Shannon entropy of the orbit
//! size distribution, normalized by `log n`: 1.0 for a fully asymmetric
//! (heterogeneous) graph, 0.0 for a vertex-transitive one.

use dvicl_core::{aut, AutoTree};
use dvicl_graph::{Graph, GraphBuilder, V};

/// The quotient of a graph under its automorphism orbits.
pub struct Quotient {
    /// The quotient graph: one vertex per orbit; orbits are adjacent iff
    /// any of their members are.
    pub graph: Graph,
    /// `orbit_of[v]` = quotient vertex of original vertex `v`.
    pub orbit_of: Vec<V>,
    /// Size of each orbit, indexed by quotient vertex.
    pub orbit_sizes: Vec<u32>,
}

/// Builds the quotient of `g` from its AutoTree.
pub fn quotient(g: &Graph, tree: &AutoTree) -> Quotient {
    let _span = dvicl_obs::span(dvicl_obs::Phase::AppsQuotient);
    let n = g.n();
    let mut orbits = aut::orbits(tree);
    let cells = orbits.cells();
    let mut orbit_of = vec![0 as V; n];
    let mut orbit_sizes = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        for &v in cell {
            orbit_of[v as usize] = i as V;
        }
        // dvicl-lint: allow(narrowing-cast) -- a cell holds at most n <= V::MAX vertices
        orbit_sizes.push(cell.len() as u32);
    }
    let mut b = GraphBuilder::new(cells.len());
    for (u, v) in g.edges() {
        let (qu, qv) = (orbit_of[u as usize], orbit_of[v as usize]);
        if qu != qv {
            b.add_edge(qu, qv);
        }
    }
    Quotient {
        graph: b.build(),
        orbit_of,
        orbit_sizes,
    }
}

/// The structure entropy of \[37\]: `−Σ (|orbit|/n) log₂(|orbit|/n) / log₂ n`,
/// in `\[0, 1\]`. Returns 0.0 for graphs with fewer than 2 vertices.
pub fn structure_entropy(g: &Graph, tree: &AutoTree) -> f64 {
    let n = g.n();
    if n < 2 {
        return 0.0;
    }
    let mut orbits = aut::orbits(tree);
    let mut h = 0.0f64;
    for cell in orbits.cells() {
        let p = cell.len() as f64 / n as f64;
        h -= p * p.log2();
    }
    h / (n as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_core::Session;
    use dvicl_graph::{named, Coloring};

    fn tree_of(g: &Graph) -> AutoTree {
        // A fresh session per tree matches the one-shot build exactly;
        // the apps layer consumes trees from either source unchanged.
        Session::default().build(g, &Coloring::unit(g.n()))
    }

    #[test]
    fn vertex_transitive_quotient_is_one_vertex() {
        for g in [named::petersen(), named::cycle(7), named::complete(5)] {
            let t = tree_of(&g);
            let q = quotient(&g, &t);
            assert_eq!(q.graph.n(), 1);
            assert_eq!(q.orbit_sizes, vec![g.n() as u32]);
            assert_eq!(structure_entropy(&g, &t), 0.0);
        }
    }

    #[test]
    fn rigid_quotient_is_the_graph_itself() {
        let g = named::frucht();
        let t = tree_of(&g);
        let q = quotient(&g, &t);
        assert_eq!(q.graph.n(), 12);
        assert_eq!(q.graph.m(), 18);
        assert!((structure_entropy(&g, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_quotient_is_an_edge() {
        // K_{1,n}: orbits {center}, {leaves} → quotient = K2.
        let g = named::star(9);
        let t = tree_of(&g);
        let q = quotient(&g, &t);
        assert_eq!(q.graph.n(), 2);
        assert_eq!(q.graph.m(), 1);
        let mut sizes = q.orbit_sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 9]);
    }

    #[test]
    fn fig1_quotient() {
        // Orbits {0..3}, {4,5,6}, {7}: quotient is a path-with-edges:
        // cycle-orbit — hub — triangle-orbit, plus no cycle↔triangle edge.
        let g = named::fig1_example();
        let t = tree_of(&g);
        let q = quotient(&g, &t);
        assert_eq!(q.graph.n(), 3);
        assert_eq!(q.graph.m(), 2);
        let e = structure_entropy(&g, &t);
        assert!(e > 0.0 && e < 1.0, "entropy {e} out of expected range");
    }

    #[test]
    fn entropy_decreases_with_added_symmetry() {
        // Adding twin leaves to a rigid graph lowers normalized entropy.
        let g = named::frucht();
        let t = tree_of(&g);
        let e_rigid = structure_entropy(&g, &t);
        let mut edges: Vec<(V, V)> = g.edges().collect();
        for i in 0..6 {
            edges.push((0, 12 + i));
        }
        let g2 = Graph::from_edges(18, &edges);
        let t2 = tree_of(&g2);
        let e_sym = structure_entropy(&g2, &t2);
        assert!(e_sym < e_rigid);
    }
}
