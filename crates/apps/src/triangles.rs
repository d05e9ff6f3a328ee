//! Triangle listing in degree order (the classic compact-forward scheme):
//! each triangle is reported exactly once.

use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{Graph, V};

/// Counts all triangles.
pub fn count_triangles(g: &Graph) -> u64 {
    let mut count = 0u64;
    for_each_triangle(g, |_, _, _| {
        count += 1;
        true
    });
    count
}

/// Budgeted [`count_triangles`]: spends one work unit per oriented edge
/// whose out-neighborhoods are intersected.
pub fn try_count_triangles(g: &Graph, budget: &Budget) -> Result<u64, DviclError> {
    let _span = dvicl_obs::span(dvicl_obs::Phase::AppsTriangles);
    let mut count = 0u64;
    try_for_each_triangle(g, budget, |_, _, _| {
        count += 1;
        true
    })?;
    Ok(count)
}

/// Lists up to `limit` triangles as ascending triples.
pub fn list_triangles(g: &Graph, limit: usize) -> Vec<[V; 3]> {
    let mut out = Vec::new();
    for_each_triangle(g, |a, b, c| {
        out.push([a, b, c]);
        out.len() < limit
    });
    out
}

/// Budgeted [`list_triangles`].
pub fn try_list_triangles(
    g: &Graph,
    limit: usize,
    budget: &Budget,
) -> Result<Vec<[V; 3]>, DviclError> {
    let _span = dvicl_obs::span(dvicl_obs::Phase::AppsTriangles);
    let mut out = Vec::new();
    try_for_each_triangle(g, budget, |a, b, c| {
        out.push([a, b, c]);
        out.len() < limit
    })?;
    Ok(out)
}

/// Visits each triangle `(a < b < c)` once; the callback returns `false`
/// to stop early.
pub fn for_each_triangle(g: &Graph, f: impl FnMut(V, V, V) -> bool) {
    // Infallible enumeration cannot exhaust the unlimited budget.
    let _ = try_for_each_triangle(g, &Budget::unlimited(), f);
}

/// Budgeted [`for_each_triangle`]: spends one work unit per oriented edge
/// `(u, v)` before intersecting the two out-neighborhoods — the unit of
/// work that dominates compact-forward's runtime.
pub fn try_for_each_triangle(
    g: &Graph,
    budget: &Budget,
    mut f: impl FnMut(V, V, V) -> bool,
) -> Result<(), DviclError> {
    budget.check()?;
    let n = g.n();
    // Rank by (degree, id): orienting edges toward higher rank makes every
    // vertex's out-neighborhood small (O(sqrt(m)) amortized).
    let mut rank: Vec<u32> = vec![0; n];
    let mut by_deg: Vec<V> = (0..n as V).collect();
    by_deg.sort_unstable_by_key(|&v| (g.degree(v), v));
    for (r, &v) in by_deg.iter().enumerate() {
        // dvicl-lint: allow(narrowing-cast) -- r < n and n fits in V = u32 by Graph's construction invariant
        rank[v as usize] = r as u32;
    }
    let higher = |u: V, v: V| rank[v as usize] > rank[u as usize];
    // out[u] = neighbors with higher rank, sorted by vertex id.
    let out: Vec<Vec<V>> = (0..n as V)
        .map(|u| {
            g.neighbors(u)
                .iter()
                .copied()
                .filter(|&w| higher(u, w))
                .collect()
        })
        .collect();
    for u in 0..n as V {
        let ou = &out[u as usize];
        for &v in ou {
            budget.spend(1)?;
            let ov = &out[v as usize];
            // Intersect out[u] ∩ out[v] (both sorted by id).
            let (mut i, mut j) = (0, 0);
            while i < ou.len() && j < ov.len() {
                match ou[i].cmp(&ov[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let w = ou[i];
                        let mut t = [u, v, w];
                        t.sort_unstable();
                        if !f(t[0], t[1], t[2]) {
                            return Ok(());
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_graph::named;

    #[test]
    fn counts() {
        assert_eq!(count_triangles(&named::complete(5)), 10);
        assert_eq!(count_triangles(&named::cycle(3)), 1);
        assert_eq!(count_triangles(&named::cycle(5)), 0);
        assert_eq!(count_triangles(&named::petersen()), 0);
        assert_eq!(count_triangles(&named::complete_bipartite(3, 3)), 0);
        // Fig. 1(a): triangle {4,5,6} + three {i, i+, 7} from it + the
        // 4-cycle vertices with the hub: each cycle edge + 7 = 4 more.
        // Triangles: {4,5,6}, {4,5,7}, {4,6,7}, {5,6,7}, {0,1,7}, {1,2,7},
        // {2,3,7}, {0,3,7} = 8.
        assert_eq!(count_triangles(&named::fig1_example()), 8);
    }

    #[test]
    fn listing_matches_count_and_is_unique() {
        let g = named::fig1_example();
        let list = list_triangles(&g, usize::MAX);
        assert_eq!(list.len() as u64, count_triangles(&g));
        let mut sorted = list.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), list.len());
        for [a, b, c] in list {
            assert!(a < b && b < c);
            assert!(g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c));
        }
    }

    #[test]
    fn limit_stops_early() {
        let g = named::complete(10); // 120 triangles
        assert_eq!(list_triangles(&g, 7).len(), 7);
    }

    #[test]
    fn work_budget_aborts_listing() {
        let g = named::complete(10); // 45 edges to orient
        let err = try_count_triangles(&g, &Budget::with_max_work(4)).unwrap_err();
        assert!(err.is_exhaustion());
        assert_eq!(err.exit_code(), 3);
        let n = try_count_triangles(&g, &Budget::with_max_work(1_000_000)).unwrap();
        assert_eq!(n, 120);
    }
}
