//! Exact maximum clique — branch and bound with a greedy coloring bound
//! (the Tomita-style algorithm family; the paper uses its authors' own
//! solver \[22\] to produce the query cliques of Table 7).

use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{Graph, V};

/// Finds one maximum clique (vertices ascending).
pub fn max_clique(g: &Graph) -> Vec<V> {
    try_max_clique(g, &Budget::unlimited())
        // dvicl-lint: allow(panic-freedom) -- Budget::unlimited() never exhausts, so the Err arm is unreachable
        .expect("unlimited clique search cannot exceed its budget")
}

/// Budgeted [`max_clique`]: spends one work unit per branch-and-bound node
/// and aborts with a typed error when the budget runs out — exact maximum
/// clique is NP-hard, so unbounded runtime is the default, not the
/// exception.
pub fn try_max_clique(g: &Graph, budget: &Budget) -> Result<Vec<V>, DviclError> {
    let _span = dvicl_obs::span(dvicl_obs::Phase::AppsClique);
    budget.check()?;
    let n = g.n();
    if n == 0 {
        return Ok(Vec::new());
    }
    // Order vertices by degeneracy (smallest-last); candidates explored in
    // that order shrink the branching early.
    let order = degeneracy_order(g);
    let mut best: Vec<V> = Vec::new();
    let mut current: Vec<V> = Vec::new();
    // Initial candidate set: all vertices, in degeneracy order.
    expand(g, &order, &mut current, &mut best, budget)?;
    best.sort_unstable();
    Ok(best)
}

/// Smallest-last (degeneracy) vertex order.
fn degeneracy_order(g: &Graph) -> Vec<V> {
    let n = g.n();
    let mut deg: Vec<usize> = (0..n as V).map(|v| g.degree(v)).collect();
    let maxd = deg.iter().copied().max().unwrap_or(0);
    let mut buckets: Vec<Vec<V>> = vec![Vec::new(); maxd + 1];
    for v in 0..n as V {
        buckets[deg[v as usize]].push(v);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut floor = 0usize;
    while order.len() < n {
        while floor <= maxd && buckets[floor].is_empty() {
            floor += 1;
        }
        if floor > maxd {
            break;
        }
        // dvicl-lint: allow(panic-freedom) -- `floor` is advanced past empty buckets by the loop above, so buckets[floor] is non-empty here
        let v = buckets[floor].pop().expect("non-empty bucket");
        if removed[v as usize] || deg[v as usize] != floor {
            // Stale entry: re-bucket if still alive.
            if !removed[v as usize] {
                buckets[deg[v as usize]].push(v);
            }
            continue;
        }
        removed[v as usize] = true;
        order.push(v);
        for &w in g.neighbors(v) {
            if !removed[w as usize] {
                deg[w as usize] -= 1;
                buckets[deg[w as usize]].push(w);
                if deg[w as usize] < floor {
                    floor = deg[w as usize];
                }
            }
        }
    }
    order.reverse(); // highest-core vertices first
    order
}

fn expand(
    g: &Graph,
    cands: &[V],
    current: &mut Vec<V>,
    best: &mut Vec<V>,
    budget: &Budget,
) -> Result<(), DviclError> {
    budget.spend(1)?;
    if cands.is_empty() {
        if current.len() > best.len() {
            *best = current.clone();
        }
        return Ok(());
    }
    // Greedy coloring bound: candidates are colored so adjacent ones get
    // different colors; current.len() + #colors bounds any clique below.
    let colors = greedy_color(g, cands);
    let maxcolor = colors.iter().copied().max().unwrap_or(0);
    if current.len() + (maxcolor as usize) < best.len() {
        return Ok(());
    }
    // Explore candidates in descending color (Tomita's order).
    let mut idx: Vec<usize> = (0..cands.len()).collect();
    idx.sort_unstable_by_key(|&i| std::cmp::Reverse(colors[i]));
    let mut remaining: Vec<V> = cands.to_vec();
    for i in idx {
        let v = cands[i];
        if current.len() + (colors[i] as usize) < best.len() {
            break; // all later candidates have smaller color bounds
        }
        let next: Vec<V> = remaining
            .iter()
            .copied()
            .filter(|&w| w != v && g.has_edge(v, w))
            .collect();
        current.push(v);
        expand(g, &next, current, best, budget)?;
        current.pop();
        remaining.retain(|&w| w != v);
    }
    Ok(())
}

/// Greedy proper coloring of the candidate set (induced), returning each
/// candidate's color index.
fn greedy_color(g: &Graph, cands: &[V]) -> Vec<u32> {
    let mut colors = vec![0u32; cands.len()];
    for (i, &v) in cands.iter().enumerate() {
        let mut used = 0u64;
        for (j, &w) in cands.iter().enumerate().take(i) {
            if g.has_edge(v, w) && colors[j] < 64 {
                used |= 1 << colors[j];
            }
        }
        colors[i] = (!used).trailing_zeros();
    }
    colors
}

/// All maximum cliques up to `limit`, given the maximum clique size is
/// already known (used for Table 7: clustering the maximum cliques).
pub fn all_max_cliques(g: &Graph, size: usize, limit: usize) -> Vec<Vec<V>> {
    try_all_max_cliques(g, size, limit, &Budget::unlimited())
        // dvicl-lint: allow(panic-freedom) -- Budget::unlimited() never exhausts, so the Err arm is unreachable
        .expect("unlimited clique enumeration cannot exceed its budget")
}

/// Budgeted [`all_max_cliques`]: spends one work unit per enumeration node.
pub fn try_all_max_cliques(
    g: &Graph,
    size: usize,
    limit: usize,
    budget: &Budget,
) -> Result<Vec<Vec<V>>, DviclError> {
    let _span = dvicl_obs::span(dvicl_obs::Phase::AppsClique);
    budget.check()?;
    let mut out = Vec::new();
    let order = degeneracy_order(g);
    let mut current = Vec::new();
    enumerate(g, &order, size, &mut current, &mut out, limit, budget)?;
    out.sort();
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    g: &Graph,
    cands: &[V],
    size: usize,
    current: &mut Vec<V>,
    out: &mut Vec<Vec<V>>,
    limit: usize,
    budget: &Budget,
) -> Result<(), DviclError> {
    budget.spend(1)?;
    if out.len() >= limit {
        return Ok(());
    }
    if current.len() == size {
        let mut c = current.clone();
        c.sort_unstable();
        out.push(c);
        return Ok(());
    }
    if current.len() + cands.len() < size {
        return Ok(());
    }
    let colors = greedy_color(g, cands);
    let maxcolor = colors.iter().copied().max().unwrap_or(0);
    if current.len() + maxcolor as usize + 1 < size {
        return Ok(());
    }
    let mut remaining: Vec<V> = cands.to_vec();
    for &v in cands.iter() {
        let next: Vec<V> = remaining
            .iter()
            .copied()
            .filter(|&w| w != v && g.has_edge(v, w))
            .collect();
        current.push(v);
        enumerate(g, &next, size, current, out, limit, budget)?;
        current.pop();
        remaining.retain(|&w| w != v);
        if out.len() >= limit {
            return Ok(());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_graph::named;

    #[test]
    fn complete_graph() {
        assert_eq!(max_clique(&named::complete(6)).len(), 6);
    }

    #[test]
    fn bipartite_max_clique_is_an_edge() {
        assert_eq!(max_clique(&named::complete_bipartite(4, 4)).len(), 2);
    }

    #[test]
    fn petersen_is_triangle_free() {
        assert_eq!(max_clique(&named::petersen()).len(), 2);
    }

    #[test]
    fn fig1_max_clique_is_the_triangle_plus_hub() {
        // {4,5,6,7} is a K4 in the Fig. 1(a) graph.
        let c = max_clique(&named::fig1_example());
        assert_eq!(c, vec![4, 5, 6, 7]);
    }

    #[test]
    fn result_is_a_clique() {
        let g = named::hypercube(4);
        let c = max_clique(&g);
        for (i, &u) in c.iter().enumerate() {
            for &v in &c[i + 1..] {
                assert!(g.has_edge(u, v));
            }
        }
        assert_eq!(c.len(), 2); // hypercubes are triangle-free
    }

    #[test]
    fn enumerate_all_triangles_of_k4() {
        let g = named::complete(4);
        let all = all_max_cliques(&g, 3, 100);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn enumerate_respects_limit() {
        let g = named::complete(8);
        let all = all_max_cliques(&g, 3, 5);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn work_budget_aborts_branch_and_bound() {
        use dvicl_govern::{DviclError, Resource};
        let g = named::complete(12);
        let err = try_max_clique(&g, &Budget::with_max_work(3)).unwrap_err();
        assert!(matches!(
            err,
            DviclError::BudgetExceeded {
                resource: Resource::WorkUnits,
                ..
            }
        ));
        assert_eq!(err.exit_code(), 3);
        // A generous budget gets the exact answer.
        let c = try_max_clique(&g, &Budget::with_max_work(1_000_000)).unwrap();
        assert_eq!(c.len(), 12);
        // Enumeration honors the budget too.
        let err = try_all_max_cliques(&g, 3, 1000, &Budget::with_max_work(3)).unwrap_err();
        assert!(err.is_exhaustion());
    }

    #[test]
    fn planted_clique_found() {
        // A cycle with a K5 planted on vertices 10..15.
        let mut edges: Vec<(V, V)> = (0..30).map(|v| (v, (v + 1) % 30)).collect();
        for a in 10..15 {
            for b in (a + 1)..15 {
                edges.push((a, b));
            }
        }
        let g = Graph::from_edges(30, &edges);
        assert_eq!(max_clique(&g), vec![10, 11, 12, 13, 14]);
    }
}
