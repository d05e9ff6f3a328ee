//! Property-based tests for the refinement function `R`: the contract of
//! Section 4 — finer-or-equal, equitable, isomorphism-invariant, and
//! equal to the coarsest equitable refinement computed by a naive
//! oracle — on random graphs and colorings.
//!
//! The graph families straddle the splitter pass's internal paths: small
//! sparse graphs with four colors take the comparison-sort split, dense
//! graphs split on wide count ranges, near-monochrome graphs with cells
//! of 64–140 vertices take the radix split, and many copies of one small
//! graph keep cells of ≥33 vertices after refinement, so the radix split
//! also runs on the reordered spans an individualization leaves behind.

use dvicl_graph::{Coloring, Graph, Perm, V};
use dvicl_refine::{refine, refine_individualized};
use proptest::prelude::*;
use std::ops::Range;

/// `copies` disjoint copies of a random graph on `sizes` vertices with
/// `edges(n)` random edges and a random coloring with `colors` colors.
fn arb_graph(
    sizes: Range<usize>,
    edges: fn(usize) -> Range<usize>,
    colors: u32,
    copies: Range<usize>,
) -> impl Strategy<Value = (Graph, Coloring)> {
    (sizes, copies).prop_flat_map(move |(n, k)| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), edges(n)),
            proptest::collection::vec(0u32..colors, n),
        )
            .prop_map(move |(edges, labels)| {
                let mut all_edges = Vec::with_capacity(k * edges.len());
                for c in 0..k as u32 {
                    let shift = c * n as u32;
                    all_edges.extend(edges.iter().map(|&(u, v)| (u + shift, v + shift)));
                }
                let all_labels = labels.repeat(k);
                (
                    Graph::from_edges(n * k, &all_edges),
                    Coloring::from_labels(&all_labels),
                )
            })
    })
}

/// One of four families, uniformly: small sparse graphs with four
/// colors; dense graphs (m ≈ n²/4) with three colors; large
/// near-monochrome graphs whose cells hold ≥32 vertices; and 33–47
/// copies of a small graph, whose refined cells stay that large.
fn arb_colored_graph() -> impl Strategy<Value = (Graph, Coloring)> {
    (0u32..4).prop_flat_map(|family| match family {
        0 => arb_graph(2..25, |_| 0..60, 4, 1..2),
        1 => arb_graph(8..48, |n| n * n / 4..n * n / 4 + n, 3, 1..2),
        2 => arb_graph(64..140, |n| n..4 * n, 2, 1..2),
        _ => arb_graph(2..8, |n| 0..2 * n, 2, 33..48),
    })
}

/// The coarsest equitable coloring finer than `pi`, as a sorted list of
/// sorted cells: naive color refinement that recolors every vertex by
/// its color and the multiset of its neighbors' colors until the number
/// of colors stops growing.
fn coarsest_equitable(g: &Graph, pi: &Coloring) -> Vec<Vec<V>> {
    let n = g.n();
    let mut color = vec![0usize; n];
    for (c, cell) in pi.cells().iter().enumerate() {
        for &v in cell {
            color[v as usize] = c;
        }
    }
    let mut classes = pi.num_cells();
    loop {
        let signatures: Vec<(usize, Vec<usize>)> = (0..n)
            .map(|v| {
                let mut around: Vec<usize> = g
                    .neighbors(v as V)
                    .iter()
                    .map(|&w| color[w as usize])
                    .collect();
                around.sort_unstable();
                (color[v], around)
            })
            .collect();
        let mut distinct = signatures.clone();
        distinct.sort();
        distinct.dedup();
        if distinct.len() == classes {
            break;
        }
        classes = distinct.len();
        for (v, sig) in signatures.iter().enumerate() {
            color[v] = distinct.binary_search(sig).expect("signature is listed");
        }
    }
    let mut cells = vec![Vec::new(); classes];
    for v in 0..n {
        cells[color[v]].push(v as V);
    }
    cells.sort();
    cells
}

/// The cells of `pi` as a sorted list of sorted cells.
fn cell_sets(pi: &Coloring) -> Vec<Vec<V>> {
    let mut cells: Vec<Vec<V>> = pi
        .cells()
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.sort_unstable();
            c
        })
        .collect();
    cells.sort();
    cells
}

/// `pi` with `v` split off the front of its cell.
fn individualized(pi: &Coloring, v: V) -> Coloring {
    let mut cells = Vec::new();
    for cell in pi.cells() {
        if cell.contains(&v) {
            cells.push(vec![v]);
            cells.push(cell.iter().copied().filter(|&w| w != v).collect());
        } else {
            cells.push(cell.clone());
        }
    }
    Coloring::from_cells(cells).expect("still a partition")
}

fn shuffle(n: usize, seed: u64) -> Perm {
    let mut image: Vec<V> = (0..n as V).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        image.swap(i, (state >> 33) as usize % (i + 1));
    }
    Perm::from_image(image).expect("bijection")
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(256))]

    /// Property (i): R(G, π) ⪯ π, and the result is equitable.
    #[test]
    fn finer_and_equitable((g, pi) in arb_colored_graph()) {
        let r = refine(&g, &pi);
        prop_assert!(r.coloring.is_finer_or_equal(&pi));
        prop_assert!(r.coloring.is_equitable(&g));
    }

    /// R(G, π) is the *coarsest* equitable coloring finer than π: its
    /// cells are exactly the naive oracle's, also after an
    /// individualization.
    #[test]
    fn matches_naive_oracle((g, pi) in arb_colored_graph()) {
        let r = refine(&g, &pi);
        prop_assert_eq!(cell_sets(&r.coloring), coarsest_equitable(&g, &pi));
        let Some(cell) = r.coloring.cells().iter().find(|c| c.len() > 1) else {
            return Ok(());
        };
        let v = cell[cell.len() / 2];
        let ri = refine_individualized(&g, &r.coloring, v);
        prop_assert_eq!(
            cell_sets(&ri.coloring),
            coarsest_equitable(&g, &individualized(&r.coloring, v))
        );
    }

    /// Property (iii): R(G^γ, π^γ) = R(G, π)^(γ⁻¹-conjugate), with equal
    /// traces (the node-invariant requirement).
    #[test]
    fn isomorphism_invariance((g, pi) in arb_colored_graph(), seed in any::<u64>()) {
        let gamma = shuffle(g.n(), seed);
        let r1 = refine(&g, &pi);
        let r2 = refine(&g.permuted(&gamma), &pi.apply_perm(&gamma.inverse()));
        prop_assert_eq!(r1.trace, r2.trace);
        prop_assert_eq!(r2.coloring, r1.coloring.apply_perm(&gamma.inverse()));
    }

    /// Property (iii) at a child node: individualizing corresponding
    /// vertices of relabeled inputs gives relabeled results, equal
    /// traces and corresponding singleton orders.
    #[test]
    fn individualization_invariance((g, pi) in arb_colored_graph(), seed in any::<u64>()) {
        let refined = refine(&g, &pi).coloring;
        let Some(cell) = refined.cells().iter().find(|c| c.len() > 1) else {
            return Ok(());
        };
        let v = cell[cell.len() / 2];
        let gamma = shuffle(g.n(), seed);
        let inv = gamma.inverse();
        let r1 = refine_individualized(&g, &refined, v);
        // `apply_perm(&inv)` moves vertex `w` to `gamma.apply(w)`.
        let r2 = refine_individualized(&g.permuted(&gamma), &refined.apply_perm(&inv), gamma.apply(v));
        prop_assert_eq!(r1.trace, r2.trace);
        prop_assert_eq!(r2.coloring, r1.coloring.apply_perm(&inv));
        let mapped: Vec<V> = r1.new_singletons.iter().map(|&w| gamma.apply(w)).collect();
        prop_assert_eq!(r2.new_singletons, mapped);
    }

    /// Refinement is idempotent: refining an equitable coloring is a no-op.
    #[test]
    fn idempotent((g, pi) in arb_colored_graph()) {
        let once = refine(&g, &pi);
        let twice = refine(&g, &once.coloring);
        prop_assert_eq!(&twice.coloring, &once.coloring);
        // ... and reports no newly created singletons beyond the existing
        // ones (everything already singleton counts as "new" at entry).
        prop_assert_eq!(
            twice.new_singletons.len(),
            once.coloring.num_singletons()
        );
    }

    /// Individualization: v lands in a singleton cell; result is finer and
    /// equitable; automorphic choices give equal traces.
    #[test]
    fn individualization_contract((g, pi) in arb_colored_graph()) {
        let refined = refine(&g, &pi).coloring;
        let Some(cell) = refined.cells().iter().find(|c| c.len() > 1) else {
            return Ok(());
        };
        let v = cell[0];
        let r = refine_individualized(&g, &refined, v);
        prop_assert!(r.coloring.is_finer_or_equal(&refined));
        prop_assert!(r.coloring.is_equitable(&g));
        prop_assert_eq!(r.coloring.cell_len_of(v), 1);
    }

    /// The new-singleton report is exactly the difference between the
    /// input and output singleton sets.
    #[test]
    fn new_singletons_are_exact((g, pi) in arb_colored_graph()) {
        let refined = refine(&g, &pi).coloring;
        let Some(cell) = refined.cells().iter().find(|c| c.len() > 1) else {
            return Ok(());
        };
        let v = cell[1 % cell.len()];
        let r = refine_individualized(&g, &refined, v);
        let before: std::collections::HashSet<V> = refined
            .cells()
            .iter()
            .filter(|c| c.len() == 1)
            .map(|c| c[0])
            .collect();
        let after: std::collections::HashSet<V> = r
            .coloring
            .cells()
            .iter()
            .filter(|c| c.len() == 1)
            .map(|c| c[0])
            .collect();
        let reported: std::collections::HashSet<V> = r.new_singletons.iter().copied().collect();
        let expected: std::collections::HashSet<V> = after.difference(&before).copied().collect();
        prop_assert_eq!(reported, expected);
    }
}
